package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
)

// testRetry keeps chaos tests fast: two quick attempts instead of the
// production four-with-seconds-of-backoff.
var testRetry = retryPolicy{Attempts: 2, Base: 5 * time.Millisecond, Max: 25 * time.Millisecond, PerTry: 5 * time.Second}

// newClusterServer starts a coordinator-mode server.
func newClusterServer(t *testing.T, cluster ClusterOptions, opts Options) (*Server, *Client, string) {
	t.Helper()
	opts.Cluster = &cluster
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{Base: hs.URL, HTTP: hs.Client()}, hs.URL
}

// startWorker runs a Worker in the background and returns a drain function
// that cancels it and waits for the graceful goodbye.
func startWorker(t *testing.T, opts WorkerOptions) (drain func()) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	if opts.Retry.Attempts == 0 {
		opts.Retry = testRetry
	}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker exited: %v", err)
		}
	}()
	var once sync.Once
	drain = func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Error("worker did not drain in time")
			}
		})
	}
	t.Cleanup(drain)
	return drain
}

// fakeRun is a synthetic simulation for chaos tests that do not grade
// science bytes: instant, deterministic, never errored.
func fakeRun(cfg experiment.Config) experiment.Result {
	return experiment.Result{Config: cfg.Normalize(), Utilization: 0.5, Jain: 1, Flows: 2}
}

// setNow swaps the coordinator's clock (reads happen under mu, so the swap
// is race-free even with the reaper running).
func (c *Coordinator) setNow(f func() time.Time) {
	c.mu.Lock()
	c.now = f
	c.mu.Unlock()
}

func (c *Coordinator) counters() clusterCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// TestClusterMatchesLocalSweep: the cluster is a distribution strategy, not
// different science — a sweep served by coordinator + workers must be
// byte-identical (modulo wall_ns) to a direct in-process sweep of the same
// spec.
func TestClusterMatchesLocalSweep(t *testing.T) {
	spec := tinySpec()
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	local, err := experiment.RunAllOpts(plan.Configs, experiment.RunAllOptions{Workers: 2, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiment.WriteJSON(&want, &experiment.ResultSet{Note: plan.Note, Results: local}); err != nil {
		t.Fatal(err)
	}

	_, client, url := newClusterServer(t, ClusterOptions{LeaseTTL: 10 * time.Second}, Options{})
	for i := 0; i < 2; i++ {
		startWorker(t, WorkerOptions{Coordinator: url, Parallel: 2})
	}
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID)
	served, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripWall(served), stripWall(want.Bytes())) {
		t.Errorf("cluster bytes differ from a local sweep of the same spec.\n--- cluster ---\n%s\n--- local ---\n%s",
			stripWall(served), stripWall(want.Bytes()))
	}
}

// TestClusterWorkerDeathRequeues: a worker that takes a lease and goes
// silent (SIGKILL's in-process twin) must be reaped after the TTL and its
// unfinished configurations re-queued — and a healthy worker then finishes
// the sweep. Nothing already uploaded is re-simulated.
func TestClusterWorkerDeathRequeues(t *testing.T) {
	s, client, url := newClusterServer(t,
		ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 8}, Options{})
	coord := s.coord

	// The doomed worker grabs a lease by hand (no heartbeat loop) and
	// uploads exactly one result before "dying".
	reg := coord.register("doomed")
	spec := tinySpec()
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	lr, ok := coord.acquire(reg.WorkerID, 8)
	if !ok || len(lr.Configs) != 2 {
		t.Fatalf("doomed worker leased %d configs (ok=%v), want 2", len(lr.Configs), ok)
	}
	if dup := coord.upload(reg.WorkerID, fakeRun(lr.Configs[0])); dup {
		t.Fatal("first upload flagged duplicate")
	}

	// Silence past the TTL, then reap: the worker is dead, its remaining
	// config re-queued, the uploaded one untouched.
	coord.setNow(func() time.Time { return time.Now().Add(2 * time.Minute) })
	coord.Reap()
	c := coord.counters()
	if c.workersDead != 1 {
		t.Fatalf("workersDead = %d, want 1", c.workersDead)
	}
	if c.configsRequeued != 1 {
		t.Fatalf("configsRequeued = %d, want 1 (the un-uploaded config only)", c.configsRequeued)
	}
	coord.setNow(time.Now)

	// A healthy worker picks up the re-queued config and completes the job.
	var sims atomic.Uint64
	startWorker(t, WorkerOptions{Coordinator: url, Parallel: 1,
		Run: func(cfg experiment.Config) experiment.Result {
			sims.Add(1)
			return fakeRun(cfg)
		}})
	waitDone(t, client, st.ID)
	if got := sims.Load(); got != 1 {
		t.Fatalf("healthy worker simulated %d configs, want exactly the 1 re-queued", got)
	}
	c = coord.counters()
	if c.results != 2 {
		t.Fatalf("results = %d, want 2", c.results)
	}
}

// TestClusterPartitionHealReregisters: a worker partitioned past the TTL is
// reaped; when the partition heals its heartbeat 404s, it re-registers
// under a fresh identity, and the sweep still completes — with re-leased
// configurations served from the worker's local journal, not re-simulated.
func TestClusterPartitionHealReregisters(t *testing.T) {
	s, client, url := newClusterServer(t,
		ClusterOptions{LeaseTTL: 300 * time.Millisecond, Heartbeat: 50 * time.Millisecond, LeaseBatch: 2},
		Options{})
	coord := s.coord

	var partitioned atomic.Bool
	base := http.DefaultTransport
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if partitioned.Load() {
			return nil, errors.New("injected partition")
		}
		return base.RoundTrip(r)
	})}

	// The worker journals locally, simulates slowly enough for the
	// partition to land mid-lease, and counts its sims.
	var sims atomic.Uint64
	gate := make(chan struct{}, 64)
	startWorker(t, WorkerOptions{
		Coordinator: url,
		Parallel:    1,
		Journal:     filepath.Join(t.TempDir(), "worker.ckpt.jsonl"),
		HTTP:        hc,
		Run: func(cfg experiment.Config) experiment.Result {
			sims.Add(1)
			<-gate // each simulation waits for the test's go-ahead
			return fakeRun(cfg)
		},
	})

	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Let the first simulation start, then partition before it can upload.
	waitFor(t, "first simulation", func() bool { return sims.Load() >= 1 })
	partitioned.Store(true)
	gate <- struct{}{} // finish sim 1; its upload fails into the void

	// The coordinator reaps the silent worker and re-queues the lease.
	waitFor(t, "worker reaped", func() bool { return coord.counters().workersDead >= 1 })

	// Heal. The worker re-registers (heartbeat 404 path) and re-acquires
	// the re-queued work; the config it already simulated comes from its
	// journal, so total sims stays 2 (the grid size), not more.
	partitioned.Store(false)
	close(gate) // all further sims proceed immediately
	waitDone(t, client, st.ID)

	c := coord.counters()
	if c.workersJoined < 2 {
		t.Errorf("workersJoined = %d, want >= 2 (initial + re-register)", c.workersJoined)
	}
	if c.workersDead < 1 {
		t.Errorf("workersDead = %d, want >= 1", c.workersDead)
	}
	if got := sims.Load(); got != 2 {
		t.Errorf("worker simulated %d configs across the partition, want 2 (journal served the re-lease)", got)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClusterStealsFromStraggler: when the pending queue is dry and one
// worker sits on a deep lease, an idle worker must steal the tail half —
// and if the straggler later finishes a stolen config anyway, its upload is
// a duplicate no-op, never a double result.
func TestClusterStealsFromStraggler(t *testing.T) {
	s, client, _ := newClusterServer(t,
		ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 16}, Options{})
	coord := s.coord

	spec := tinySpec()
	spec.Seeds = 4 // 2 pairings x 4 seeds = 8 configs
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	slow := coord.register("straggler")
	lr, ok := coord.acquire(slow.WorkerID, 16)
	if !ok || len(lr.Configs) != 8 {
		t.Fatalf("straggler leased %d configs, want all 8", len(lr.Configs))
	}

	fast := coord.register("thief")
	stolen, ok := coord.acquire(fast.WorkerID, 16)
	if !ok || !stolen.Stolen {
		t.Fatalf("idle worker did not steal (ok=%v, resp=%+v)", ok, stolen)
	}
	if len(stolen.Configs) != 4 {
		t.Fatalf("stole %d configs, want the tail half (4)", len(stolen.Configs))
	}
	c := coord.counters()
	if c.leasesStolen != 1 || c.configsStolen != 4 {
		t.Fatalf("steal counters = %d leases / %d configs, want 1/4", c.leasesStolen, c.configsStolen)
	}

	// Both workers race to finish a stolen config: first upload wins, the
	// straggler's late duplicate is absorbed.
	dupCfg := stolen.Configs[0]
	if dup := coord.upload(fast.WorkerID, fakeRun(dupCfg)); dup {
		t.Fatal("thief's upload flagged duplicate")
	}
	if dup := coord.upload(slow.WorkerID, fakeRun(dupCfg)); !dup {
		t.Fatal("straggler's late upload of a stolen config was not flagged duplicate")
	}

	// Finish everything else and check the job completes with one result
	// per config.
	for _, cfg := range stolen.Configs[1:] {
		coord.upload(fast.WorkerID, fakeRun(cfg))
	}
	for _, cfg := range lr.Configs {
		coord.upload(slow.WorkerID, fakeRun(cfg)) // overlaps are duplicates
	}
	waitDone(t, client, st.ID)
	c = coord.counters()
	if c.results != 8 {
		t.Errorf("results = %d, want 8", c.results)
	}
	if c.duplicateResults < 1 {
		t.Errorf("duplicateResults = %d, want >= 1", c.duplicateResults)
	}
}

// TestClusterGracefulReleaseNeverExpires: a worker stopped cleanly must
// hand its unworked lease remainder back immediately (release + goodbye) —
// the expiry path stays untouched, and another worker finishes the sweep
// without waiting out a TTL.
func TestClusterGracefulReleaseNeverExpires(t *testing.T) {
	s, client, url := newClusterServer(t,
		ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 8}, Options{})
	coord := s.coord

	// Submit before the worker starts: a first lease poll that finds no work
	// is told to retry after a heartbeat (TTL/5 = 12 s), longer than waitFor.
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	var sims atomic.Uint64
	gate := make(chan struct{})
	drain := startWorker(t, WorkerOptions{Coordinator: url, Parallel: 1,
		Run: func(cfg experiment.Config) experiment.Result {
			sims.Add(1)
			<-gate // hold the first simulation so the drain happens mid-lease
			return fakeRun(cfg)
		}})
	waitFor(t, "first simulation", func() bool { return sims.Load() >= 1 })

	// Drain the worker mid-lease: the in-flight config finishes and
	// uploads, the unstarted one is released back, and the goodbye
	// deregisters the worker.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	drain()

	c := coord.counters()
	if c.leasesReleased < 1 {
		t.Fatalf("leasesReleased = %d, want >= 1", c.leasesReleased)
	}
	if c.leasesExpired != 0 {
		t.Fatalf("leasesExpired = %d, want 0 (graceful stop must not expire)", c.leasesExpired)
	}
	if c.configsRequeued < 1 {
		t.Fatalf("configsRequeued = %d, want >= 1 (the released remainder)", c.configsRequeued)
	}
	coord.mu.Lock()
	registered := len(coord.workers)
	coord.mu.Unlock()
	if registered != 0 {
		t.Fatalf("%d workers still registered after goodbye, want 0", registered)
	}

	// A fresh worker picks up the released config; the sweep completes.
	startWorker(t, WorkerOptions{Coordinator: url, Parallel: 1, Run: fakeRun})
	waitDone(t, client, st.ID)
}

// TestClusterUploadIdempotent: the duplicate-absorbing upload path, which
// makes RPC retries after lost ACKs safe, exercised directly.
func TestClusterUploadIdempotent(t *testing.T) {
	s, client, _ := newClusterServer(t, ClusterOptions{LeaseTTL: time.Minute}, Options{})
	coord := s.coord
	reg := coord.register("w")
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	lr, _ := coord.acquire(reg.WorkerID, 16)
	res := fakeRun(lr.Configs[0])
	if dup := coord.upload(reg.WorkerID, res); dup {
		t.Fatal("first upload flagged duplicate")
	}
	for i := 0; i < 3; i++ { // retried uploads after a lost ACK
		if dup := coord.upload(reg.WorkerID, res); !dup {
			t.Fatalf("retry %d not flagged duplicate", i+1)
		}
	}
	c := coord.counters()
	if c.results != 1 || c.duplicateResults != 3 {
		t.Fatalf("results/duplicates = %d/%d, want 1/3", c.results, c.duplicateResults)
	}
	// The cached result serves an identical re-submit without any worker.
	for _, cfg := range lr.Configs[1:] {
		coord.upload(reg.WorkerID, fakeRun(cfg))
	}
	waitDone(t, client, st.ID)
}

// heapInuse and buildInfo strip the nondeterministic lines from a fresh
// coordinator's /metrics: the heap gauge measures the machine, and the
// build_info labels carry the Go toolchain version.
var (
	heapInuse = regexp.MustCompile(`(?m)^sweepd_heap_inuse_bytes .*$`)
	buildInfo = regexp.MustCompile(`(?m)^sweepd_build_info\{.*\} 1$`)
)

// TestClusterMetricsGolden pins the coordinator-mode /metrics surface: the
// simulation counters and distributions (fed by uploads) and the cluster
// gauges and counters.
func TestClusterMetricsGolden(t *testing.T) {
	_, client, _ := newClusterServer(t, ClusterOptions{}, Options{})
	body, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	got := heapInuse.ReplaceAll(body, []byte("sweepd_heap_inuse_bytes STRIPPED"))
	got = buildInfo.ReplaceAll(got, []byte(`sweepd_build_info{version="STRIPPED",go_version="STRIPPED"} 1`))
	checkGolden(t, "cluster_metrics.golden.txt", got)
}

// TestMetricsSameNamesBothModes: a single node and a coordinator run the
// same scheduler, so /metrics exposes the same metric names in both.
func TestMetricsSameNamesBothModes(t *testing.T) {
	_, single := newTestServer(t, Options{Shards: 1})
	_, cluster, _ := newClusterServer(t, ClusterOptions{}, Options{})
	typeLine := regexp.MustCompile(`(?m)^# TYPE (\S+) `)
	names := func(c *Client) string {
		body, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range typeLine.FindAllSubmatch(body, -1) {
			out = append(out, string(m[1]))
		}
		return strings.Join(out, "\n")
	}
	if a, b := names(single), names(cluster); a != b {
		t.Fatalf("metric names differ.\n--- single node ---\n%s\n--- coordinator ---\n%s", a, b)
	}
}

// TestTraceRefusedInCoordinatorMode checks that New refuses Trace together
// with Cluster, whose workers upload results without traces, and that
// each of the two alone still starts.
func TestTraceRefusedInCoordinatorMode(t *testing.T) {
	if s, err := New(Options{Trace: true, Cluster: &ClusterOptions{}}); err == nil {
		s.Close()
		t.Fatal("New accepted Trace with Cluster")
	} else if !strings.Contains(err.Error(), "single-node only") {
		t.Fatalf("refusal does not name the reason: %v", err)
	}
	newTestServer(t, Options{Shards: 1, Trace: true})
	newClusterServer(t, ClusterOptions{}, Options{})
}

// TestAcquireTakesOnlyWhatItGrants: successive grants come off the head of
// the pending queue in FIFO order and stop once full, the ungranted tail
// keeps its order, and entries cancelled or completed while queued are
// dropped when a scan passes them. Every registered worker gets the same
// head-of-queue grants: no worker is preferred for any key.
func TestAcquireTakesOnlyWhatItGrants(t *testing.T) {
	cache, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 8}, cache)
	defer c.Close()
	spec := tinySpec()
	spec.Seeds = 4 // 8 configs
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(experiment.Plan{Key: "fifo", Configs: cfgs})
	for i := range cfgs {
		c.Enqueue(j.keys[i], cfgs[i], j, i)
	}
	id := c.register("").WorkerID

	grant := func(id string, max int) []string {
		lr, ok := c.acquire(id, max)
		if !ok {
			t.Fatal("worker unknown")
		}
		var keys []string
		for _, cfg := range lr.Configs {
			keys = append(keys, cfg.Key())
		}
		return keys
	}
	pending := func() []string {
		c.mu.Lock()
		defer c.mu.Unlock()
		var keys []string
		for _, task := range c.pending {
			keys = append(keys, task.key)
		}
		return keys
	}
	check := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}

	check("first grant", grant(id, 2), j.keys[0:2])
	check("tail after first grant", pending(), j.keys[2:])

	// Cancel configs 2 and 6 and complete config 4 while all three are
	// still queued: their entries stay until a scan reaches them.
	c.ReleaseJob(j, []string{j.keys[2], j.keys[6]})
	c.upload("elsewhere", fakeRun(cfgs[4]))
	check("tail with stale entries", pending(), j.keys[2:])

	// The second grant drops 2 and 4 on its way to 3 and 5, then stops:
	// stale 6 lies past the full grant and stays queued, in order.
	check("second grant", grant(id, 2), []string{j.keys[3], j.keys[5]})
	check("tail after second grant", pending(), j.keys[6:])
	check("draining grant", grant(id, 8), j.keys[7:])
	check("empty queue", pending(), nil)

	spec.Duration = "2s" // a fresh set of keys
	if cfgs, err = spec.Expand(); err != nil {
		t.Fatal(err)
	}
	j2 := newJob(experiment.Plan{Key: "fifo-remote", Configs: cfgs})
	for i := range cfgs {
		c.Enqueue(j2.keys[i], cfgs[i], j2, i)
	}
	for i, name := range []string{"a", "b", "c", "d"} {
		remote := c.register(name).WorkerID
		check("grant to remote worker "+name, grant(remote, 2), j2.keys[2*i:2*i+2])
	}
}

// TestClusterPoisonConfigQuarantine walks one configuration through the
// full quarantine lifecycle: graceful releases cost nothing, three lease
// failures (worker death) exhaust the default retry budget, the config is
// quarantined as a structured errored Result carrying the failure history,
// and the rest of the grid completes normally — byte-identical science for
// every non-quarantined slot.
func TestClusterPoisonConfigQuarantine(t *testing.T) {
	s, client, _ := newClusterServer(t,
		ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 8}, Options{})
	coord := s.coord

	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	// Pick the poison: lease the whole grid once, upload everything but the
	// first config, and hand the lease back gracefully.
	reg := coord.register("picker")
	lr, ok := coord.acquire(reg.WorkerID, 8)
	if !ok || len(lr.Configs) != 2 {
		t.Fatalf("leased %d configs (ok=%v), want 2", len(lr.Configs), ok)
	}
	poison := lr.Configs[0]
	poisonID := poison.Normalize().ID()
	healthy := fakeRun(lr.Configs[1])
	if dup := coord.upload(reg.WorkerID, healthy); dup {
		t.Fatal("healthy upload flagged duplicate")
	}
	coord.release(reg.WorkerID, lr.LeaseID, true)

	// Graceful releases never consume retry budget: acquire and release the
	// poison config three more times than the budget allows.
	for i := 0; i < 4; i++ {
		reg := coord.register("polite")
		lr, ok := coord.acquire(reg.WorkerID, 8)
		if !ok || len(lr.Configs) != 1 {
			t.Fatalf("release round %d: leased %d configs, want the 1 poison", i, len(lr.Configs))
		}
		coord.release(reg.WorkerID, lr.LeaseID, true)
	}
	if c := coord.counters(); c.configsQuarantined != 0 {
		t.Fatalf("graceful releases quarantined %d configs, want 0", c.configsQuarantined)
	}

	// Three rounds of a worker taking the poison lease and dying: each
	// round registers at the current (virtual) time, leases, then the clock
	// jumps past the TTL and the reaper declares the worker dead.
	base := time.Now()
	for round := 0; round < 3; round++ {
		now := base.Add(time.Duration(round) * 10 * time.Minute)
		coord.setNow(func() time.Time { return now })
		reg := coord.register("crashy")
		lr, ok := coord.acquire(reg.WorkerID, 8)
		if !ok || len(lr.Configs) != 1 || lr.Configs[0].Key() != poison.Key() {
			t.Fatalf("death round %d: lease = %+v (ok=%v), want the poison config", round, lr, ok)
		}
		later := now.Add(2 * time.Minute)
		coord.setNow(func() time.Time { return later })
		coord.Reap()
	}
	coord.setNow(time.Now)

	c := coord.counters()
	if c.configsQuarantined != 1 {
		t.Fatalf("configsQuarantined = %d, want 1", c.configsQuarantined)
	}
	if c.workersDead != 3 {
		t.Fatalf("workersDead = %d, want 3", c.workersDead)
	}

	// The job completed without any worker ever finishing the poison: the
	// quarantine Result filled its slot.
	final := waitDone(t, client, st.ID)
	if final.Errored != 1 {
		t.Fatalf("Errored = %d, want 1", final.Errored)
	}
	if len(final.Quarantined) != 1 || final.Quarantined[0] != poisonID {
		t.Fatalf("Quarantined = %v, want [%s]", final.Quarantined, poisonID)
	}
	msg := final.Errors[poisonID]
	if !strings.HasPrefix(msg, quarantinedErrPrefix) {
		t.Fatalf("quarantine error %q lacks prefix %q", msg, quarantinedErrPrefix)
	}
	if !strings.Contains(msg, "worker died") || !strings.Contains(msg, "3/3") {
		t.Fatalf("quarantine error %q lacks the failure history", msg)
	}

	// Quarantined results never enter the content-addressed cache.
	if _, ok := s.cache.Get(poison.Key()); ok {
		t.Fatal("quarantined result found in the cache")
	}

	// The healthy slot is real science, untouched by the chaos.
	body, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var set experiment.ResultSet
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, res := range set.Results {
		if res.Config.Key() != healthy.Config.Key() {
			continue
		}
		found = true
		res.Wall, healthy.Wall = 0, 0
		got, _ := json.Marshal(res)
		want, _ := json.Marshal(healthy)
		if !bytes.Equal(got, want) {
			t.Fatalf("healthy result altered by the chaos:\ngot  %s\nwant %s", got, want)
		}
	}
	if !found {
		t.Fatalf("healthy result missing from the final set:\n%s", body)
	}
}

// TestClusterQuarantineServedAndRequeue: a later request for a quarantined
// key is answered straight from the quarantine record — no lease, no worker
// — unless RequeueQuarantined is set, which clears the record and grants a
// fresh retry budget.
func TestClusterQuarantineServedAndRequeue(t *testing.T) {
	s, client, _ := newClusterServer(t,
		ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 8, RetryBudget: 1}, Options{})
	coord := s.coord

	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// Kill the whole grid once: budget 1 quarantines both configs.
	base := time.Now()
	reg := coord.register("crashy")
	lr, _ := coord.acquire(reg.WorkerID, 8)
	if len(lr.Configs) != 2 {
		t.Fatalf("leased %d configs, want 2", len(lr.Configs))
	}
	coord.setNow(func() time.Time { return base.Add(2 * time.Minute) })
	coord.Reap()
	coord.setNow(time.Now)
	final := waitDone(t, client, st.ID)
	if final.Errored != 2 || len(final.Quarantined) != 2 {
		t.Fatalf("errored/quarantined = %d/%d, want 2/2", final.Errored, len(final.Quarantined))
	}

	// A fresh job asking for a quarantined key is served from the record.
	cfg := lr.Configs[0]
	j2 := newJob(experiment.Plan{Key: "served", Configs: []experiment.Config{cfg}})
	coord.Enqueue(cfg.Key(), cfg, j2, 0)
	select {
	case <-j2.Finished():
	case <-time.After(5 * time.Second):
		t.Fatal("quarantine-served job did not finish")
	}
	if c := coord.counters(); c.quarantineServed != 1 {
		t.Fatalf("quarantineServed = %d, want 1", c.quarantineServed)
	}
	if st2 := j2.Status(); len(st2.Quarantined) != 1 {
		t.Fatalf("served job Quarantined = %v, want the config", st2.Quarantined)
	}

	// With the override armed, the same request re-opens a real task.
	coord.mu.Lock()
	coord.opts.RequeueQuarantined = true
	coord.mu.Unlock()
	j3 := newJob(experiment.Plan{Key: "requeued", Configs: []experiment.Config{cfg}})
	coord.Enqueue(cfg.Key(), cfg, j3, 0)
	coord.mu.Lock()
	_, reopened := coord.tasks[cfg.Key()]
	_, stillQuarantined := coord.quarantine[cfg.Key()]
	coord.mu.Unlock()
	if !reopened || stillQuarantined {
		t.Fatalf("requeue override: task reopened=%v quarantine cleared=%v, want true/true", reopened, !stillQuarantined)
	}
	// A worker finishes it this time: full rehabilitation.
	reg2 := coord.register("healthy")
	lr2, _ := coord.acquire(reg2.WorkerID, 8)
	if len(lr2.Configs) != 1 {
		t.Fatalf("rehab lease has %d configs, want 1", len(lr2.Configs))
	}
	coord.upload(reg2.WorkerID, fakeRun(lr2.Configs[0]))
	select {
	case <-j3.Finished():
	case <-time.After(5 * time.Second):
		t.Fatal("rehabilitated job did not finish")
	}
	if st3 := j3.Status(); st3.Errored != 0 {
		t.Fatalf("rehabilitated job errored: %+v", st3)
	}
}
