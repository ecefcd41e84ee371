package svc

import (
	"time"

	"repro/internal/experiment"
)

// Cluster task lifecycle. A task is one configuration the coordinator owes
// an answer for. It is pending until a worker claims it, leased while a
// worker holds it (a remote worker inside a lease, an in-process worker
// directly), and done once any worker's upload lands (at which point it
// leaves the table — the result lives in the content-addressed cache).
// Expiry, worker death, and explicit release move a task from leased back
// to pending; work stealing moves it from one live lease to another
// without touching the state.
type taskState uint8

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// clusterTask is one configuration awaiting a worker, shared by every job
// that requested it (per-config singleflight: jobs wanting the same science
// key coalesce onto one task as waiters).
type clusterTask struct {
	key     string // Config.Key(): the science identity
	cfg     experiment.Config
	state   taskState
	lease   *lease // the lease currently holding the task (leased to a remote worker only)
	waiters []waiter

	// Retry accounting for poison-config quarantine: failures counts the
	// leases this task lost to expiry or worker death (graceful releases are
	// free), failLog keeps one line per loss for the quarantine Result.
	failures int
	failLog  []string
}

// lease is one worker's claim on a batch of tasks: a deadline after which
// the coordinator takes the work back, and the set of keys not yet
// uploaded. keys preserves grant order so work stealing can take the tail —
// the configs the straggling worker is furthest from reaching.
type lease struct {
	id        string
	worker    string
	deadline  time.Time
	keys      []string // grant order (superset of remaining; stolen/done keys stay listed)
	remaining map[string]*clusterTask
}

// tail returns up to n remaining tasks from the back of the grant order —
// the work a straggler would reach last, and therefore the cheapest to
// steal without colliding with its current simulation.
func (l *lease) tail(n int) []*clusterTask {
	var out []*clusterTask
	for i := len(l.keys) - 1; i >= 0 && len(out) < n; i-- {
		if t, ok := l.remaining[l.keys[i]]; ok {
			out = append(out, t)
		}
	}
	return out
}

// clusterWorker is one registered remote worker: liveness timestamp and
// the leases it currently holds.
type clusterWorker struct {
	id       string
	name     string
	lastSeen time.Time
	leases   map[string]*lease
}
