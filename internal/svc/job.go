package svc

import (
	"strings"
	"sync"

	"repro/internal/experiment"
)

// Job states. A job is queued until its first configuration completes,
// running until the last one does, and then done. Cancelled marks a job
// whose last event-stream subscriber disconnected before completion.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
)

// Event is one line of a job's NDJSON progress stream, emitted per
// completed configuration. Seq is the completion sequence number within the
// job (0-based, dense); with more than one worker, delivery order across
// configs finishing simultaneously is not guaranteed, so consumers order by
// Seq.
type Event struct {
	Seq         int     `json:"seq"`
	ConfigID    string  `json:"config_id"`
	Done        int     `json:"done"`
	Total       int     `json:"total"`
	Cached      bool    `json:"cached"`
	Error       string  `json:"error,omitempty"`
	Jain        float64 `json:"jain"`
	Utilization float64 `json:"utilization"`
}

// Job is one submitted sweep: a canonical GridSpec, its expanded
// configurations in canonical grid order, and the results as they fill in
// from cache hits and worker results. The job ID is the spec's content
// address (GridSpec.Key), which is what makes identical submissions
// coalesce.
type Job struct {
	ID   string
	Spec experiment.GridSpec // canonical form

	mu       sync.Mutex
	cfgs     []experiment.Config
	ids      []string // cfgs[i].Normalize().ID(): human-readable labels (events, errors)
	keys     []string // cfgs[i].Key(): science identity (cache and task addressing)
	results  []experiment.Result
	filled   []bool
	done     int
	cached   int // slots satisfied from the cache, not a fresh simulation
	errored  int
	state    string
	events   []Event
	subs     map[chan Event]bool
	finished chan struct{} // closed on done or cancelled

	// onComplete, when set, runs once when the job reaches StateDone (the
	// server hooks journal compaction here).
	onComplete func(*Job)
}

func newJob(id string, spec experiment.GridSpec, cfgs []experiment.Config) *Job {
	j := &Job{
		ID:       id,
		Spec:     spec,
		cfgs:     cfgs,
		ids:      make([]string, len(cfgs)),
		keys:     make([]string, len(cfgs)),
		results:  make([]experiment.Result, len(cfgs)),
		filled:   make([]bool, len(cfgs)),
		state:    StateQueued,
		subs:     make(map[chan Event]bool),
		finished: make(chan struct{}),
	}
	for i := range cfgs {
		j.ids[i] = cfgs[i].Normalize().ID()
		j.keys[i] = cfgs[i].Key()
	}
	return j
}

// deliver fills slot idx with a completed result (from the cache when
// cached is true, from a worker's simulation otherwise), emits the progress
// event, and finishes the job when every slot is full.
func (j *Job) deliver(idx int, res experiment.Result, cached bool) {
	j.mu.Lock()
	if j.filled[idx] || j.state == StateCancelled {
		j.mu.Unlock()
		return
	}
	j.results[idx] = res
	j.filled[idx] = true
	j.done++
	if cached {
		j.cached++
	}
	if res.Errored() {
		j.errored++
	}
	if j.state == StateQueued {
		j.state = StateRunning
	}
	complete := j.done == len(j.cfgs)
	if complete {
		j.state = StateDone
	}
	ev := Event{
		Seq:         j.done - 1,
		ConfigID:    res.Config.ID(),
		Done:        j.done,
		Total:       len(j.cfgs),
		Cached:      cached,
		Error:       res.Error,
		Jain:        res.Jain,
		Utilization: res.Utilization,
	}
	j.events = append(j.events, ev)
	subs := make([]chan Event, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	onComplete := j.onComplete
	j.mu.Unlock()

	for _, ch := range subs {
		select {
		case ch <- ev: // subscriber channels are sized for the whole job
		default: // a wedged subscriber loses events rather than wedging a worker
		}
	}
	if complete {
		close(j.finished)
		if onComplete != nil {
			onComplete(j)
		}
	}
}

// Subscribe registers an event-stream subscriber, returning the live
// channel plus a replay of every event emitted so far (a late subscriber
// sees the full history, in order, before any live event).
func (j *Job) Subscribe() (chan Event, []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, len(j.cfgs)+1)
	replay := make([]Event, len(j.events))
	copy(replay, j.events)
	j.subs[ch] = true
	return ch, replay
}

// Unsubscribe removes a subscriber and returns how many remain along with
// whether the job is still in flight — the inputs to the server's
// cancel-on-last-disconnect rule.
func (j *Job) Unsubscribe(ch chan Event) (remaining int, inFlight bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
	return len(j.subs), j.state == StateQueued || j.state == StateRunning
}

// Cancel marks an in-flight job cancelled and returns the science keys of
// its unfilled slots so the caller can release them from the coordinator.
// A done or already-cancelled job returns nil.
func (j *Job) Cancel() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateCancelled {
		return nil
	}
	j.state = StateCancelled
	var pending []string
	for i, ok := range j.filled {
		if !ok {
			pending = append(pending, j.keys[i])
		}
	}
	close(j.finished)
	return pending
}

// Status is the wire form of GET /v1/sweeps/{id}: state plus per-config
// skip (cache) and error accounting. Every field is deterministic for a
// given spec and cache state, which keeps the endpoint golden-testable.
type Status struct {
	ID    string              `json:"id"`
	State string              `json:"state"`
	Spec  experiment.GridSpec `json:"spec"`
	Total int                 `json:"total"`
	Done  int                 `json:"done"`
	// Cached counts configurations served from the content-addressed cache
	// instead of a simulation (usually at submit time, occasionally via the
	// coordinator's second-chance lookup when a result lands mid-submit).
	Cached int `json:"cached"`
	// Simulated counts configurations this job actually ran (or joined in
	// flight): Done - Cached.
	Simulated int `json:"simulated"`
	Errored   int `json:"errored"`
	// Errors maps config ID to failure message for errored configurations.
	Errors map[string]string `json:"errors,omitempty"`
	// Quarantined lists the config IDs (grid order) whose errored result came
	// from the coordinator's poison-config quarantine: the config exhausted
	// its lease retry budget by repeatedly killing or losing its worker.
	Quarantined []string `json:"quarantined,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Total:     len(j.cfgs),
		Done:      j.done,
		Cached:    j.cached,
		Simulated: j.done - j.cached,
		Errored:   j.errored,
	}
	if j.errored > 0 {
		st.Errors = make(map[string]string, j.errored)
		for i, ok := range j.filled {
			if ok && j.results[i].Errored() {
				st.Errors[j.ids[i]] = j.results[i].Error
				if strings.HasPrefix(j.results[i].Error, quarantinedErrPrefix) {
					st.Quarantined = append(st.Quarantined, j.ids[i])
				}
			}
		}
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Results returns the completed result set in canonical grid order, or
// false while the job is in flight or cancelled.
func (j *Job) Results() ([]experiment.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.results, true
}

// Finished returns a channel closed when the job completes or is
// cancelled.
func (j *Job) Finished() <-chan struct{} { return j.finished }
