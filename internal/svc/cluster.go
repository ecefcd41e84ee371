package svc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
)

// ClusterOptions configure the coordinator. In coordinator mode it hands
// leased batches of configurations to workers that registered over HTTP,
// and survives their failures; a single node runs it with the defaults and
// in-process workers.
type ClusterOptions struct {
	// LeaseTTL is the failure-detection horizon: a lease not renewed (by a
	// heartbeat or an upload) within this window is taken back, and a
	// worker silent for longer than this is declared dead and its leases
	// re-queued. Default 15s.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to heartbeat at. Default
	// LeaseTTL/5.
	Heartbeat time.Duration
	// LeaseBatch is the maximum configurations per lease. Bigger batches
	// amortize RPCs; smaller ones bound how much work a worker death can
	// strand until re-queue. Default 16.
	LeaseBatch int
	// RetryBudget is how many lease failures (expiry or worker death —
	// never a graceful release) a single configuration may cause before it
	// is quarantined as a structured errored Result instead of re-leased.
	// A poison config that deterministically kills its worker would
	// otherwise crash-loop the cluster forever. Default 3.
	RetryBudget int
	// RequeueQuarantined clears a configuration's quarantine record when a
	// sweep requests it again, granting a fresh retry budget — the
	// operator's override after fixing whatever killed the workers.
	RequeueQuarantined bool
}

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 5
	}
	if o.LeaseBatch <= 0 {
		o.LeaseBatch = 16
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 3
	}
	return o
}

// clusterCounters are the coordinator's /metrics counters. All mutation
// happens under Coordinator.mu.
type clusterCounters struct {
	workersJoined      uint64 // registrations (including re-registrations)
	workersDead        uint64 // workers reaped for missing heartbeats
	heartbeats         uint64
	leasesGranted      uint64
	leasesExpired      uint64 // leases taken back on deadline
	leasesReleased     uint64 // leases handed back by a draining worker
	leasesStolen       uint64 // steal events (tail of a straggler's lease)
	configsLeased      uint64 // configurations granted across all leases
	configsRequeued    uint64 // configurations moved leased→pending (expiry, death, release)
	configsStolen      uint64 // configurations moved between live leases
	results            uint64 // unique accepted results: the configurations simulated
	duplicateResults   uint64 // idempotent re-uploads (retries, stolen double-runs)
	configsQuarantined uint64 // configurations that exhausted their retry budget
	quarantineServed   uint64 // enqueues answered straight from the quarantine record
	configsCoalesced   uint64 // enqueues that joined an existing task
	simEvents          uint64 // simulator events across accepted results
	simWallNS          int64  // simulation wall time across accepted results
	peakQueueBytes     int64  // largest Result.PeakQueueBytes accepted
	fairEpisodes       uint64 // starvation episodes across accepted results
}

// Coordinator is sweepd's one scheduler: it resolves every submitted
// configuration against the content-addressed cache, owns the task table,
// the worker registry and the lease state machine, and feeds results into
// the cache and job machinery. Its workers are either remote (sweepd
// -join, over HTTP) or, on a single node, in-process goroutines that claim
// tasks and upload directly — so a cluster sweep is byte-identical to a
// solo one. Crash tolerance is lease-based: every grant to a remote worker
// carries a deadline, heartbeats and uploads renew it, and a reaper
// re-queues whatever dead or silent workers were holding. In-process
// workers cannot fail apart from the coordinator, so they hold no leases.
// Uploads are idempotent by Config.Key(), so retries and stolen
// double-executions cost a counter bump, never a wrong or duplicated
// result.
type Coordinator struct {
	opts  ClusterOptions
	cache *Cache

	mu      sync.Mutex
	workers map[string]*clusterWorker
	tasks   map[string]*clusterTask
	pending []*clusterTask // FIFO, lazily compacted (entries may have left taskPending)
	leases  map[string]*lease
	nextID  uint64 // worker and lease ID sequence
	closed  bool
	c       clusterCounters

	// wake (on mu) rouses idle in-process workers: Enqueue, requeue and
	// Close signal it. locals counts the running in-process workers.
	wake   *sync.Cond
	locals sync.WaitGroup

	// Per-config distributions of accepted results, for /metrics.
	wallHist histogram // wall seconds per simulated config
	rateHist histogram // simulator events/sec per simulated config
	convHist histogram // fairness convergence time (sim seconds) per converged config

	// quarantine holds the poison configs: keys that exhausted their retry
	// budget, with the errored Result every current and future waiter gets.
	// Quarantined results are never cached — a -requeue-quarantined restart
	// (or RequeueQuarantined here) must be able to re-run them.
	quarantine map[string]*quarantineRecord

	// now is injectable for deterministic expiry tests.
	now func() time.Time

	reapStop chan struct{}
	reapDone chan struct{}
}

// NewCoordinator starts a coordinator over the shared result cache and
// begins reaping expired leases and dead workers in the background.
func NewCoordinator(opts ClusterOptions, cache *Cache) *Coordinator {
	c := &Coordinator{
		opts:       opts.withDefaults(),
		cache:      cache,
		workers:    make(map[string]*clusterWorker),
		tasks:      make(map[string]*clusterTask),
		leases:     make(map[string]*lease),
		quarantine: make(map[string]*quarantineRecord),
		now:        time.Now,
		reapStop:   make(chan struct{}),
		reapDone:   make(chan struct{}),
		wallHist:   newHistogram(0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300),
		rateHist:   newHistogram(1e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8),
		convHist:   newHistogram(0.1, 0.5, 1, 2, 5, 10, 30, 60, 120),
	}
	c.wake = sync.NewCond(&c.mu)
	go c.reapLoop()
	return c
}

// testHookBeforeSim, when non-nil, runs in an in-process worker immediately
// before a simulation — the injection point for cancellation, ordering and
// shutdown tests.
var testHookBeforeSim func(key string)

// startLocal starts n in-process workers (0 = GOMAXPROCS). They register
// no worker and take no lease: nothing can reap them, and a simulation
// longer than the lease TTL is not a failure.
func (c *Coordinator) startLocal(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c.locals.Add(n)
	for i := 0; i < n; i++ {
		go c.runLocal()
	}
}

// runLocal is one in-process worker. It claims one task at a time, so a
// cancelled job's queued configs are never started and a single worker
// finishes in grid order; it sleeps on wake while nothing is pending; and
// its results take the same accept path as remote uploads. Once the
// coordinator closes it finishes its current simulation and exits.
func (c *Coordinator) runLocal() {
	defer c.locals.Done()
	for {
		c.mu.Lock()
		var claimed []*clusterTask
		for !c.closed && len(claimed) == 0 {
			if claimed = c.take(1); len(claimed) == 0 {
				c.wake.Wait()
			}
		}
		c.mu.Unlock()
		if len(claimed) == 0 {
			return
		}
		cfg := claimed[0].cfg
		if testHookBeforeSim != nil {
			testHookBeforeSim(cfg.Key())
		}
		c.upload("", experiment.RunOne(cfg))
	}
}

// reapLoop periodically sweeps for dead workers and expired leases. The
// period is a quarter of the TTL so detection latency stays well under one
// extra TTL.
func (c *Coordinator) reapLoop() {
	defer close(c.reapDone)
	tick := time.NewTicker(c.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case <-tick.C:
			c.Reap()
		}
	}
}

// Reap takes back every expired lease and every lease held by a worker
// whose heartbeats stopped, moving their unfinished configurations back to
// pending — unless a configuration has now burned through its retry
// budget, in which case it is quarantined and its waiters get the errored
// Result. It is called from the background loop and directly by tests.
func (c *Coordinator) Reap() {
	c.mu.Lock()
	now := c.now()
	var quarantined []*clusterTask
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.opts.LeaseTTL {
			for _, l := range w.leases {
				quarantined = append(quarantined, c.requeueLeaseLocked(l, "worker died")...)
			}
			delete(c.workers, id)
			c.c.workersDead++
		}
	}
	for _, l := range c.leases {
		if now.After(l.deadline) {
			quarantined = append(quarantined, c.requeueLeaseLocked(l, "lease expired")...)
			c.c.leasesExpired++
		}
	}
	c.mu.Unlock()
	c.deliverQuarantined(quarantined)
}

// requeueCauseRelease marks the graceful path: a draining worker handing
// work back is not a failure and never consumes retry budget.
const requeueCauseRelease = ""

// requeueLeaseLocked returns a lease's unfinished tasks to the pending
// queue and drops the lease. Tasks whose result already arrived (taskDone)
// are gone from remaining and unaffected. A non-empty cause records a
// failure against each task; tasks that exhaust the retry budget are
// quarantined instead of re-queued and returned for delivery after the
// lock is dropped (their waiters must be answered without holding mu).
func (c *Coordinator) requeueLeaseLocked(l *lease, cause string) (quarantined []*clusterTask) {
	workerName := l.worker
	if w, ok := c.workers[l.worker]; ok && w.name != "" {
		workerName = w.name
	}
	for _, t := range l.remaining {
		if t.state == taskLeased && t.lease == l {
			t.state = taskPending
			t.lease = nil
			if cause != requeueCauseRelease {
				t.failures++
				t.failLog = append(t.failLog, fmt.Sprintf("%s (worker %s, lease %s, failure %d/%d)",
					cause, workerName, l.id, t.failures, c.opts.RetryBudget))
				if t.failures >= c.opts.RetryBudget {
					c.quarantineTaskLocked(t)
					quarantined = append(quarantined, t)
					continue
				}
			}
			c.pending = append(c.pending, t)
			c.c.configsRequeued++
			c.wake.Signal()
		}
	}
	l.remaining = map[string]*clusterTask{}
	delete(c.leases, l.id)
	if w, ok := c.workers[l.worker]; ok {
		delete(w.leases, l.id)
	}
	return quarantined
}

// quarantinedErrPrefix is the stable marker on every quarantine Result's
// error string; Job.Status uses it to report quarantined config IDs.
const quarantinedErrPrefix = "sweepd: quarantined"

// quarantineRecord is one poison config: the failure history and the
// entry of the structured errored Result served to every waiter, current
// and future.
type quarantineRecord struct {
	cfg      experiment.Config
	failures int
	failLog  []string
	res      *experiment.Entry
}

// quarantineTaskLocked retires a task that exhausted its retry budget: it
// leaves the task table for good, its waiters are answered (by the caller,
// after unlock) with an errored Result carrying the full failure history —
// the coordinator-side flight record of which workers died holding it —
// and future Enqueues of the same key are served from the record.
func (c *Coordinator) quarantineTaskLocked(t *clusterTask) {
	t.state = taskDone
	delete(c.tasks, t.key)
	rec := &quarantineRecord{
		cfg:      t.cfg,
		failures: t.failures,
		failLog:  t.failLog,
		res: experiment.NewEntry(experiment.Result{
			Config: t.cfg.Recorded(),
			Error: fmt.Sprintf("%s: %d lease failures exhausted the retry budget: %s",
				quarantinedErrPrefix, t.failures, strings.Join(t.failLog, "; ")),
		}),
	}
	c.quarantine[t.key] = rec
	c.c.configsQuarantined++
	logger().Warn("config quarantined as poison",
		"config_id", t.cfg.ID(),
		"config_key", t.key,
		"failures", t.failures,
		"fail_log", strings.Join(t.failLog, "; "))
}

// deliverQuarantined answers the waiters of freshly quarantined tasks.
// Must be called without holding mu (deliver runs job callbacks).
func (c *Coordinator) deliverQuarantined(tasks []*clusterTask) {
	for _, t := range tasks {
		e := c.quarantine[t.key].res
		ws := t.waiters
		t.waiters = nil
		for _, w := range ws {
			w.job.deliver(w.idx, e, false)
		}
	}
}

// waiter is one job's claim on a task: when the config completes, the
// coordinator delivers the result into slot idx of that job.
type waiter struct {
	job *Job
	idx int
}

// Enqueue resolves a configuration for the job's slot idx, under the
// coordinator lock and in this order: the cache (one counted lookup), an
// in-flight task for the same science key (joined), the quarantine record
// (served), and otherwise a new task. Uploads fill the cache under the same
// lock, so a result is either served here or still owed by a task.
func (c *Coordinator) Enqueue(key string, cfg experiment.Config, j *Job, idx int) {
	c.mu.Lock()
	e, cached := c.cache.Get(key)
	if !cached {
		e = c.scheduleLocked(key, cfg, waiter{j, idx})
	}
	c.mu.Unlock()
	if e != nil {
		j.deliver(idx, e, cached)
	}
}

// scheduleLocked attaches a cache miss to its task, opening one if none is
// in flight, and returns nil; or it returns the entry that answers the
// waiter at once: the quarantine record's, or an errored one once the
// coordinator has closed.
func (c *Coordinator) scheduleLocked(key string, cfg experiment.Config, w waiter) *experiment.Entry {
	if t, ok := c.tasks[key]; ok {
		t.waiters = append(t.waiters, w)
		c.c.configsCoalesced++
		return nil
	}
	if rec, ok := c.quarantine[key]; ok {
		if !c.opts.RequeueQuarantined {
			c.c.quarantineServed++
			return rec.res
		}
		// Operator override: forget the record and open a fresh task with a
		// full retry budget.
		delete(c.quarantine, key)
	}
	if c.closed {
		return experiment.NewEntry(experiment.Result{Config: cfg.Recorded(),
			Error: "sweepd: coordinator shutting down; configuration was not scheduled"})
	}
	t := &clusterTask{key: key, cfg: cfg, state: taskPending, waiters: []waiter{w}}
	c.tasks[key] = t
	c.pending = append(c.pending, t)
	c.wake.Signal()
	return nil
}

// ReleaseJob withdraws a cancelled job's interest in the given config keys.
// Pending tasks nobody else wants are dropped unrun; leased tasks keep
// running on their workers (the upload lands in the cache for the future)
// with only this job's waiters removed.
func (c *Coordinator) ReleaseJob(j *Job, keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range keys {
		t, ok := c.tasks[key]
		if !ok {
			continue
		}
		kept := t.waiters[:0]
		for _, w := range t.waiters {
			if w.job != j {
				kept = append(kept, w)
			}
		}
		t.waiters = kept
		if len(t.waiters) == 0 && t.state == taskPending {
			t.state = taskDone // lazily skipped when the pending queue is scanned
			delete(c.tasks, key)
		}
	}
}

// register admits a worker (or re-admits one that was reaped during a
// partition) and tells it the cluster's heartbeat and lease parameters.
func (c *Coordinator) register(name string) registerResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := fmt.Sprintf("w%d", c.nextID)
	if name == "" {
		name = id
	}
	c.workers[id] = &clusterWorker{id: id, name: name, lastSeen: c.now(), leases: make(map[string]*lease)}
	c.c.workersJoined++
	return registerResponse{
		WorkerID:    id,
		HeartbeatNS: int64(c.opts.Heartbeat),
		LeaseTTLNS:  int64(c.opts.LeaseTTL),
		LeaseBatch:  c.opts.LeaseBatch,
	}
}

// heartbeat renews a worker's liveness and every lease it holds. Unknown
// workers (reaped during a partition, or a coordinator restart) get false —
// the worker must re-register, and its old leases are already re-queued.
func (c *Coordinator) heartbeat(workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return false
	}
	now := c.now()
	w.lastSeen = now
	for _, l := range w.leases {
		l.deadline = now.Add(c.opts.LeaseTTL)
	}
	c.c.heartbeats++
	return true
}

// acquire grants a worker a lease over up to max pending configurations,
// taken from the head of the FIFO pending queue, or, when the queue is
// empty, stolen from the tail of the largest outstanding lease — so one
// straggling worker cannot pin the sweep's completion to its own pace.
func (c *Coordinator) acquire(workerID string, max int) (leaseResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return leaseResponse{}, false
	}
	now := c.now()
	w.lastSeen = now
	if max <= 0 || max > c.opts.LeaseBatch {
		max = c.opts.LeaseBatch
	}

	grant := c.take(max)
	stolen := false
	if len(grant) == 0 {
		// Queue is dry: steal the tail of the straggler holding the most
		// unfinished work, if there is enough of it to share.
		var victim *lease
		for _, l := range c.leases {
			if l.worker == workerID || len(l.remaining) < 2 {
				continue
			}
			if victim == nil || len(l.remaining) > len(victim.remaining) {
				victim = l
			}
		}
		if victim != nil {
			for _, t := range victim.tail(len(victim.remaining) / 2) {
				delete(victim.remaining, t.key)
				grant = append(grant, t)
			}
			stolen = true
			c.c.leasesStolen++
			c.c.configsStolen += uint64(len(grant))
		}
	}
	if len(grant) == 0 {
		return leaseResponse{RetryAfterNS: int64(c.opts.Heartbeat)}, true
	}

	c.nextID++
	l := &lease{
		id:        fmt.Sprintf("%s-l%d", workerID, c.nextID),
		worker:    workerID,
		deadline:  now.Add(c.opts.LeaseTTL),
		remaining: make(map[string]*clusterTask, len(grant)),
	}
	resp := leaseResponse{LeaseID: l.id, DeadlineNS: l.deadline.UnixNano(), Stolen: stolen}
	for _, t := range grant {
		t.state = taskLeased
		t.lease = l
		l.keys = append(l.keys, t.key)
		l.remaining[t.key] = t
		resp.Configs = append(resp.Configs, t.cfg)
	}
	c.leases[l.id] = l
	w.leases[l.id] = l
	c.c.leasesGranted++
	c.c.configsLeased += uint64(len(grant))
	return resp, true
}

// take claims up to max pending tasks, scanning c.pending from the head
// and stopping as soon as the grant is full, so a grant costs what it
// takes plus the entries it passes. Entries no longer pending (done,
// cancelled, or re-granted) are dropped as the scan passes them; the
// unscanned tail keeps its order.
func (c *Coordinator) take(max int) []*clusterTask {
	var grant []*clusterTask
	i := 0
	for ; i < len(c.pending) && len(grant) < max; i++ {
		t := c.pending[i]
		c.pending[i] = nil
		if t.state == taskPending {
			t.state = taskLeased // claimed; acquire attaches it to a lease
			grant = append(grant, t)
		}
	}
	c.pending = c.pending[i:]
	return grant
}

// upload accepts one result. The first upload for a science key completes
// the task — cache insertion happens under the coordinator lock, before the
// task leaves the table, so Enqueue finds the key in one or the other —
// and any later upload of the same key (an RPC retry after a lost
// ACK, or a stolen config its original worker finished anyway) is
// acknowledged as a duplicate no-op. Results are accepted regardless of the
// uploader's registration state: a worker reaped during a partition still
// carries valid science.
func (c *Coordinator) upload(workerID string, res experiment.Result) (duplicate bool) {
	key := res.Config.Key()
	c.mu.Lock()
	now := c.now()
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = now
	}
	t, ok := c.tasks[key]
	if !ok || t.state == taskDone {
		c.c.duplicateResults++
		c.mu.Unlock()
		return true
	}
	t.state = taskDone
	if l := t.lease; l != nil {
		delete(l.remaining, key)
		l.deadline = now.Add(c.opts.LeaseTTL) // progress renews the lease
		if len(l.remaining) == 0 {
			delete(c.leases, l.id)
			if w, ok := c.workers[l.worker]; ok {
				delete(w.leases, l.id)
			}
		}
	}
	delete(c.tasks, key)
	ws := t.waiters
	t.waiters = nil
	c.observeLocked(res)
	e := c.cache.Put(res) // never fails: a result the journal cannot take yet stays served from memory
	c.mu.Unlock()
	for _, w := range ws {
		w.job.deliver(w.idx, e, false)
	}
	return false
}

// observeLocked folds one accepted result into the /metrics counters and
// per-config distributions.
func (c *Coordinator) observeLocked(res experiment.Result) {
	c.c.results++
	c.c.simEvents += res.Events
	c.c.simWallNS += int64(res.Wall)
	wall := res.Wall.Seconds()
	rate := 0.0
	if wall > 0 {
		rate = float64(res.Events) / wall
	}
	c.wallHist.observe(wall)
	c.rateHist.observe(rate)
	c.c.peakQueueBytes = max(c.c.peakQueueBytes, res.PeakQueueBytes)
	if fr := res.Fairness; fr != nil {
		if fr.Converged {
			c.convHist.observe(fr.ConvergenceTime.Seconds())
		}
		c.c.fairEpisodes += uint64(len(fr.Episodes))
	}
}

// release hands a draining worker's unfinished lease work back immediately
// — the graceful path that never waits out a TTL. An empty leaseID with bye
// set releases everything the worker holds and deregisters it.
func (c *Coordinator) release(workerID, leaseID string, bye bool) (requeued int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return 0
	}
	before := c.c.configsRequeued
	if leaseID != "" {
		if l, ok := w.leases[leaseID]; ok {
			c.requeueLeaseLocked(l, requeueCauseRelease)
			c.c.leasesReleased++
		}
	}
	if bye {
		for _, l := range w.leases {
			c.requeueLeaseLocked(l, requeueCauseRelease)
			c.c.leasesReleased++
		}
		delete(c.workers, workerID)
	}
	return int(c.c.configsRequeued - before)
}

// Close stops the reaper, lets the in-process workers finish their current
// simulations (whose results reach the cache and journal), and then fails
// every outstanding task so its jobs complete (errored) instead of waiting
// for workers that will never be answered.
func (c *Coordinator) Close() {
	close(c.reapStop)
	<-c.reapDone
	c.mu.Lock()
	c.closed = true
	c.wake.Broadcast()
	c.mu.Unlock()
	c.locals.Wait()
	c.mu.Lock()
	tasks := make([]*clusterTask, 0, len(c.tasks))
	for _, t := range c.tasks {
		tasks = append(tasks, t)
	}
	c.tasks = make(map[string]*clusterTask)
	c.pending = nil
	c.leases = make(map[string]*lease)
	c.mu.Unlock()
	for _, t := range tasks {
		e := experiment.NewEntry(experiment.Result{Config: t.cfg.Recorded(),
			Error: "sweepd: coordinator shutting down; configuration was not run"})
		for _, w := range t.waiters {
			w.job.deliver(w.idx, e, false)
		}
	}
}

// clusterSnapshot gathers the coordinator gauges, counters and
// distributions for /metrics.
type clusterSnapshot struct {
	workers, leasesActive, pendingConfigs, leasedConfigs, quarantined int
	c                                                                 clusterCounters
	wallHist, rateHist, convHist                                      histogram
}

func (c *Coordinator) snapshot() clusterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := clusterSnapshot{workers: len(c.workers), leasesActive: len(c.leases),
		quarantined: len(c.quarantine), c: c.c,
		wallHist: c.wallHist.clone(), rateHist: c.rateHist.clone(), convHist: c.convHist.clone()}
	for _, t := range c.pending {
		if t.state == taskPending {
			s.pendingConfigs++
		}
	}
	for _, l := range c.leases {
		s.leasedConfigs += len(l.remaining)
	}
	return s
}

// Cluster wire types. Durations travel as int64 nanoseconds, matching the
// _ns convention of every other wire struct in the repo.
type registerRequest struct {
	Name string `json:"name,omitempty"`
}

type registerResponse struct {
	WorkerID    string `json:"worker_id"`
	HeartbeatNS int64  `json:"heartbeat_ns"`
	LeaseTTLNS  int64  `json:"lease_ttl_ns"`
	LeaseBatch  int    `json:"lease_batch"`
}

type leaseRequest struct {
	Max int `json:"max,omitempty"`
}

type leaseResponse struct {
	LeaseID string `json:"lease_id,omitempty"`
	// Configs is the leased batch; empty means no work right now, retry
	// after RetryAfterNS.
	Configs      []experiment.Config `json:"configs,omitempty"`
	DeadlineNS   int64               `json:"deadline_unix_ns,omitempty"`
	Stolen       bool                `json:"stolen,omitempty"`
	RetryAfterNS int64               `json:"retry_after_ns,omitempty"`
}

type uploadRequest struct {
	LeaseID string            `json:"lease_id,omitempty"`
	Result  experiment.Result `json:"result"`
}

type uploadResponse struct {
	Duplicate bool `json:"duplicate"`
}

type releaseRequest struct {
	LeaseID string `json:"lease_id,omitempty"`
	// Bye releases every lease the worker holds and deregisters it — the
	// graceful shutdown goodbye.
	Bye bool `json:"bye,omitempty"`
}

type releaseResponse struct {
	Requeued int `json:"requeued"`
}

// Cluster HTTP handlers, mounted by Server.Handler in coordinator mode
// (which caps every POST body at maxBodyBytes).

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, "register body", err)
		return
	}
	writeJSON(w, http.StatusOK, c.register(req.Name))
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.heartbeat(r.PathValue("id")) {
		httpError(w, http.StatusNotFound, "unknown worker %q (re-register)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, "lease body", err)
		return
	}
	resp, ok := c.acquire(r.PathValue("id"), req.Max)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown worker %q (re-register)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req uploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, "upload body", err)
		return
	}
	dup := c.upload(r.PathValue("id"), req.Result)
	writeJSON(w, http.StatusOK, uploadResponse{Duplicate: dup})
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, "release body", err)
		return
	}
	n := c.release(r.PathValue("id"), req.LeaseID, req.Bye)
	writeJSON(w, http.StatusOK, releaseResponse{Requeued: n})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
