package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinySpec is the 2-config grid every API test runs: small enough to
// simulate in milliseconds, rich enough to exercise two pairings.
func tinySpec() experiment.GridSpec {
	return experiment.GridSpec{
		Bandwidths: "100Mbps",
		Queues:     "2",
		AQMs:       "fifo",
		Pairings:   "reno:reno,cubic:cubic",
		Duration:   "1s",
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// wallNS strips machine timing from result JSON so byte comparisons grade
// the science, not the stopwatch.
var wallNS = regexp.MustCompile(`"wall_ns": \d+`)

func stripWall(b []byte) []byte {
	return wallNS.ReplaceAll(b, []byte(`"wall_ns": 0`))
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test ./internal/svc -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func waitDone(t *testing.T, c *Client, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateCancelled {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return Status{}
}

// TestAPIGolden pins the wire format of the status, results, and report
// endpoints on the tiny 2-config grid.
func TestAPIGolden(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 || st.Cached != 0 {
		t.Fatalf("fresh submit: %+v", st)
	}
	if err := client.Stream(context.Background(), st.ID, nil); err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, client, st.ID)
	if st.State != StateDone || st.Errored != 0 || st.Simulated != 2 {
		t.Fatalf("final status: %+v", st)
	}

	raw, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "status.golden.json", append(raw, '\n'))

	results, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "results.golden.json", stripWall(results))

	report, err := client.Report(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden.md", report)
}

// TestServedMatchesLocalSweep: the service must be a cache in front of the
// exact computation cmd/sweep performs — same results, same order, same
// provenance note, byte-identical modulo wall_ns.
func TestServedMatchesLocalSweep(t *testing.T) {
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

	_, client := newTestServer(t, Options{Shards: 2})
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
		t.Errorf("served bytes differ from a local sweep of the same spec.\n--- served ---\n%s\n--- local ---\n%s",
			stripWall(served), stripWall(want.Bytes()))
	}
}

// TestCachedResultsCarryNoRunControls: a result served from the cache must
// not carry the run controls of the job that simulated it. An audited job
// with an event budget warms the cache; a plain job of the same grid is then
// served from it, byte-identically to a local sweep of the plain spec.
func TestCachedResultsCarryNoRunControls(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	armed := tinySpec()
	armed.Audit = true
	armed.MaxEvents = 1 << 40
	st, err := client.Submit(armed)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID)

	spec := tinySpec()
	st, err = client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.Cached != 2 {
		t.Fatalf("plain job served %d cached results, want 2", st.Cached)
	}
	served, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
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
	if !bytes.Equal(stripWall(served), stripWall(want.Bytes())) {
		t.Errorf("cached results differ from a local sweep of the plain spec.\n--- served ---\n%s\n--- local ---\n%s",
			stripWall(served), stripWall(want.Bytes()))
	}
}

// TestSubmitRefusesServerFiles: a POSTed spec whose faults, topo or flows
// value names an @file must not make the daemon open a path of its own. The
// POST is answered 400 before anything parses the spec, and no job is
// made. The client resolves @file itself: Client.Submit of the same spec
// sends the file's contents and is served byte-identically to a local sweep.
func TestSubmitRefusesServerFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"flaps":[{"at_ns":300000000,"down_ns":100000000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, client := newTestServer(t, Options{Shards: 2})
	for _, field := range []string{"faults", "topo", "flows"} {
		body, err := json.Marshal(map[string]any{"bandwidths": "100Mbps", "configs": 1, field: " @" + path})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.HTTP.Post(client.Base+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field+": @file") {
			t.Fatalf("POST with %s=@file: %d %s, want 400 naming the field", field, resp.StatusCode, msg)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("refused submissions left %d jobs", jobs)
	}

	spec := tinySpec()
	spec.Faults = "@" + path
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
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.State != StateDone || st.Errored != 0 {
		t.Fatalf("client-resolved @file job: %+v", st)
	}
	served, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripWall(served), stripWall(want.Bytes())) {
		t.Errorf("served @file sweep differs from a local sweep of the same spec.\n--- served ---\n%s\n--- local ---\n%s",
			stripWall(served), stripWall(want.Bytes()))
	}
}

// TestRecordedConfigMatchesRunOne: the coordinator's errored results record
// the same config as an errored experiment.RunOne, every run control cleared.
func TestRecordedConfigMatchesRunOne(t *testing.T) {
	cfg := experiment.Config{
		Pairing:        experiment.Pairing{CCA1: "no-such-cca", CCA2: cca.Cubic},
		Bottleneck:     100 * units.MegabitPerSec,
		Duration:       time.Second,
		MaxEvents:      1 << 40,
		MaxWall:        time.Hour,
		Audit:          true,
		Trace:          true,
		TraceRingCap:   64,
		TraceSampleN:   2,
		Fairness:       true,
		FairnessWindow: time.Second,
	}
	res := experiment.RunOne(cfg)
	if !res.Errored() {
		t.Fatal("a run with an unknown CCA succeeded")
	}
	got, _ := json.Marshal(cfg.Recorded())
	want, _ := json.Marshal(res.Config)
	if !bytes.Equal(got, want) {
		t.Fatalf("Config.Recorded differs from RunOne's recorded config:\n got %s\nwant %s", got, want)
	}
}

// TestCacheHitPath: an identical POST coalesces onto the existing job; an
// equivalent spec under a different key is served entirely from the
// content-addressed cache with zero new simulations; and the journal warms
// a restarted server.
func TestCacheHitPath(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "cache.ckpt.jsonl")
	s, client := newTestServer(t, Options{Shards: 1, Journal: journal})

	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID)
	if got := simsTotal(t, client); got != 2 {
		t.Fatalf("first job simulated %d configs, want 2", got)
	}

	// Identical POST: answered by the same job, nothing scheduled.
	st2, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("identical spec got a different job: %s vs %s", st2.ID, st.ID)
	}
	if st2.State != StateDone {
		t.Fatalf("coalesced job state %s, want done", st2.State)
	}
	if got := simsTotal(t, client); got != 2 {
		t.Fatalf("coalesced POST triggered simulations: %d", got)
	}
	if s.jobsCoalesced.Load() != 1 {
		t.Fatalf("job coalesce counter = %d, want 1", s.jobsCoalesced.Load())
	}

	// Same grid under a different spec key (audit toggled — excluded from
	// config identity): a new job, served 100% from the config cache.
	audited := tinySpec()
	audited.Audit = true
	st3, err := client.Submit(audited)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == st.ID {
		t.Fatal("audit toggle should be a distinct job key")
	}
	st3 = waitDone(t, client, st3.ID)
	if st3.Cached != 2 || st3.Simulated != 0 {
		t.Fatalf("cache-path job: %+v, want 2 cached / 0 simulated", st3)
	}
	if got := simsTotal(t, client); got != 2 {
		t.Fatalf("cache-path job re-simulated: sims = %d", got)
	}

	// The counters must be visible on /metrics in Prometheus text format.
	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"sweepd_cache_hits_total 2",
		"sweepd_sims_total 2",
		"sweepd_jobs_coalesced_total 1",
		"sweepd_jobs_done 2",
		"# TYPE sweepd_cache_hits_total counter",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Results served straight from cache must be byte-identical to the
	// originals (same configs, audit bit excluded from identity).
	r1, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := client.Results(st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(b []byte) []byte { // the two notes differ (different spec keys)
		lines := bytes.SplitN(b, []byte("\n"), 3)
		return lines[len(lines)-1]
	}
	if !bytes.Equal(norm(r1), norm(r3)) {
		t.Error("cache-served results differ from the originally simulated ones")
	}

	// A restarted daemon warms its cache from the journal.
	hs2 := httptest.NewServer(mustServer(t, Options{Shards: 1, Journal: journal}).Handler())
	defer hs2.Close()
	client2 := &Client{Base: hs2.URL}
	st4, err := client2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	st4 = waitDone(t, client2, st4.ID)
	if st4.Cached != 2 || st4.Simulated != 0 {
		t.Fatalf("restarted server did not serve from journal: %+v", st4)
	}
}

// TestOverridesArePartOfCacheIdentity: two specs that expand to the same
// grid cells but differ in a science-affecting override (duration, paper
// scale) must never serve each other's cached results — each override is
// simulated on its own. (Regression: the cache was once keyed by
// Config.ID, which omits the overrides.)
func TestOverridesArePartOfCacheIdentity(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID)
	if got := simsTotal(t, client); got != 2 {
		t.Fatalf("first job simulated %d configs, want 2", got)
	}

	longer := tinySpec()
	longer.Duration = "2s"
	st2, err := client.Submit(longer)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatal("duration override should be a distinct job key")
	}
	st2 = waitDone(t, client, st2.ID)
	if st2.Cached != 0 || st2.Simulated != 2 {
		t.Fatalf("2s job served 1s results from cache: %+v, want 0 cached / 2 simulated", st2)
	}
	if got := simsTotal(t, client); got != 4 {
		t.Fatalf("2s job did not re-simulate: sims = %d, want 4", got)
	}

	// The served result bodies must actually differ — same grid cells,
	// different physics. (The notes differ trivially, so compare past them.)
	r1, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.Results(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	body := func(b []byte) []byte {
		lines := bytes.SplitN(b, []byte("\n"), 3)
		return lines[len(lines)-1]
	}
	if bytes.Equal(stripWall(body(r1)), stripWall(body(r2))) {
		t.Error("1s and 2s sweeps served identical result bodies")
	}
}

// simsTotal reads sweepd_sims_total from the server's /metrics.
func simsTotal(t *testing.T, c *Client) int {
	t.Helper()
	body, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return metric(t, body, "sweepd_sims_total")
}

// metric reads one label-less integer metric from a /metrics body.
func metric(t *testing.T, body []byte, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics has no %s:\n%s", name, body)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCacheCountsEachConfigOnce: one job mixing a cached config, one in
// flight for another job, and new ones counts exactly one cache hit or
// miss per config; a config that joins an in-flight task is a miss.
func TestCacheCountsEachConfigOnce(t *testing.T) {
	started, release := gateSims(t)
	defer release()
	s, client := newTestServer(t, Options{Shards: 1})
	spec := tinySpec()
	spec.Seeds = 2 // 4 configs
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(fakeRun(cfgs[0]))

	first := spec
	first.Configs = 2 // the cached config and one to simulate
	stA, err := client.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	<-started // config 1 is on the worker
	stB, err := client.Submit(spec)
	metrics, merr := client.Metrics()
	release()
	if err != nil || merr != nil {
		t.Fatal(err, merr)
	}
	// The first job: config 0 hits, config 1 misses. The second: config 0
	// hits, config 1 joins the task in flight, configs 2 and 3 are new.
	hits, misses := metric(t, metrics, "sweepd_cache_hits_total"), metric(t, metrics, "sweepd_cache_misses_total")
	if coalesced := metric(t, metrics, "sweepd_configs_coalesced_total"); hits != 2 || misses != 4 || coalesced != 1 {
		t.Fatalf("hits %d, misses %d, coalesced %d; want 2, 4, 1", hits, misses, coalesced)
	}
	for _, c := range []struct {
		id             string
		cached, simmed int
	}{{stA.ID, 1, 1}, {stB.ID, 1, 3}} {
		if st := waitDone(t, client, c.id); st.Cached != c.cached || st.Simulated != c.simmed || st.Errored != 0 {
			t.Fatalf("job %s: %+v, want %d cached / %d simulated", c.id, st, c.cached, c.simmed)
		}
	}
	if got := simsTotal(t, client); got != 3 {
		t.Fatalf("sims = %d, want 3 (configs 1, 2 and 3 once each)", got)
	}
}

// TestPoolCloseFailsQueuedWork: at shutdown the configuration already
// running drains into the cache and journal, and configurations accepted
// but never started come back errored, so their jobs complete and a polling
// client sees the failure instead of hanging on work that will never run.
func TestPoolCloseFailsQueuedWork(t *testing.T) {
	started, release := gateSims(t)
	defer release()
	journal := filepath.Join(t.TempDir(), "close.ckpt.jsonl")
	s, err := New(Options{Shards: 1, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := &Client{Base: hs.URL, HTTP: hs.Client()}
	spec := tinySpec()
	spec.Seeds = 2 // 4 configs
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // config 0 is on the worker; 1..3 are queued

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "coordinator close", func() bool {
		s.coord.mu.Lock()
		defer s.coord.mu.Unlock()
		return s.coord.closed
	})
	release() // so Close can drain
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if st := j.Status(); st.State != StateDone || st.Done != 4 || st.Errored != 3 {
		t.Fatalf("after close: %+v, want done with 1 clean / 3 errored", st)
	}
	cache, err := OpenCache(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if cache.Len() != 1 {
		t.Fatalf("journal holds %d results after close, want the 1 that was running", cache.Len())
	}

	// Enqueue on a closed coordinator must fail the slot immediately.
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	j2 := newJob(experiment.Plan{Key: "job2", Configs: cfgs})
	s.coord.Enqueue(j2.keys[1], cfgs[1], j2, 1)
	if st := j2.Status(); st.Done != 1 || st.Errored != 1 {
		t.Fatalf("Enqueue after close: %+v, want an immediate errored delivery", st)
	}
}

// TestLocalWorkerOutlivesLeaseTTL: an in-process worker whose simulation
// runs past the lease TTL is neither reaped nor requeued — it cannot die
// apart from the coordinator, so it holds no lease — and the config
// simulates exactly once.
func TestLocalWorkerOutlivesLeaseTTL(t *testing.T) {
	started, release := gateSims(t)
	defer release()
	s, client := newTestServer(t, Options{Shards: 1})
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	coord := s.coord
	coord.setNow(func() time.Time { return time.Now().Add(time.Hour) })
	coord.Reap()
	coord.setNow(time.Now)
	c := coord.counters()
	metrics, merr := client.Metrics()
	release()
	if merr != nil {
		t.Fatal(merr)
	}
	if c.workersDead != 0 || c.leasesExpired != 0 || c.configsRequeued != 0 {
		t.Fatalf("reap past the TTL: %d dead / %d expired / %d requeued, want 0/0/0",
			c.workersDead, c.leasesExpired, c.configsRequeued)
	}
	// The worker mid-simulation is neither a registered worker nor a lease
	// holder: leases are for workers that can fail apart from the
	// coordinator.
	for _, want := range []string{"\nsweepd_cluster_workers 0\n", "\nsweepd_cluster_leases_active 0\n"} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics during the simulation lacks %q:\n%s", strings.TrimSpace(want), metrics)
		}
	}

	if st = waitDone(t, client, st.ID); st.Simulated != 2 || st.Errored != 0 {
		t.Fatalf("final status: %+v", st)
	}
	if got := simsTotal(t, client); got != 2 {
		t.Fatalf("sims = %d, want 2 (each config exactly once)", got)
	}
	if n := len(started); n != 1 {
		t.Fatalf("%d further simulation starts, want 1", n)
	}
}

func mustServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestEventsStreamOrdering: the NDJSON stream must replay one line per
// completed configuration with dense ascending seq, done counters, and —
// with a single shard — completion in canonical grid order.
func TestEventsStreamOrdering(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	spec := tinySpec()
	spec.Seeds = 2 // 4 configs
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID)

	var events []Event
	if err := client.Stream(context.Background(), st.ID, func(ev Event) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cfgs) {
		t.Fatalf("streamed %d events, want %d", len(events), len(cfgs))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Done != i+1 || ev.Total != len(cfgs) {
			t.Errorf("event %d progress %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, len(cfgs))
		}
		if want := cfgs[i].Normalize().ID(); ev.ConfigID != want {
			t.Errorf("event %d completed %s, want grid-order %s", i, ev.ConfigID, want)
		}
		if ev.Cached || ev.Error != "" {
			t.Errorf("event %d unexpectedly cached/errored: %+v", i, ev)
		}
	}
}

// gateSims installs an in-process worker test hook that reports each
// simulation start on the returned channel and blocks it until release is
// called. release is idempotent; callers defer it as well, so a test that
// fails while a simulation is gated releases it before the deferred or
// cleanup Server.Close waits for that simulation.
func gateSims(t *testing.T) (started chan string, release func()) {
	t.Helper()
	started = make(chan string, 16)
	proceed := make(chan struct{})
	var once sync.Once
	prev := testHookBeforeSim
	testHookBeforeSim = func(key string) {
		started <- key
		<-proceed
	}
	t.Cleanup(func() { testHookBeforeSim = prev })
	return started, func() { once.Do(func() { close(proceed) }) }
}

// TestDisconnectCancelsRemainingWork: when the only event subscriber
// disconnects mid-job, the job's queued configurations are released unrun;
// the configuration already running drains into the cache.
func TestDisconnectCancelsRemainingWork(t *testing.T) {
	started, release := gateSims(t)
	defer release()
	s, client := newTestServer(t, Options{Shards: 1})
	spec := tinySpec()
	spec.Seeds = 2 // 4 configs
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // first config is on the worker, three are queued

	// A results fetch on an incomplete job must 409, not block or serve
	// partial data.
	if _, err := client.Results(st.ID); err == nil || !strings.Contains(err.Error(), "not complete") {
		t.Fatalf("partial results fetch: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	streamErr := make(chan error, 1)
	go func() { streamErr <- client.Stream(ctx, st.ID, nil) }()
	// The subscriber must be registered before the disconnect means
	// anything; poll for it.
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	waitFor(t, "subscriber registration", func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.subs) == 1
	})
	cancel()
	<-streamErr
	waitFor(t, "cancellation", func() bool { return j.State() == StateCancelled })

	release() // let the running simulation (and any stragglers) finish
	waitFor(t, "task table drain", func() bool {
		s.coord.mu.Lock()
		defer s.coord.mu.Unlock()
		return len(s.coord.tasks) == 0
	})
	if got := simsTotal(t, client); got != 1 {
		t.Errorf("cancelled job simulated %d configs, want 1 (only the one already running)", got)
	}
	if s.cache.Len() != 1 {
		t.Errorf("drained configuration missing from cache: %d entries", s.cache.Len())
	}
	if _, err := client.Results(st.ID); err == nil {
		t.Error("cancelled job served results")
	}

	// Re-POSTing the identical spec must not coalesce onto the cancelled
	// job: the tombstone is replaced by a fresh job that reuses the drained
	// config from cache and simulates only the abandoned remainder.
	st2, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("identical spec changed job ID after cancel: %s vs %s", st2.ID, st.ID)
	}
	if st2.State == StateCancelled {
		t.Fatal("resubmission coalesced onto the cancelled job")
	}
	for i := 0; i < 3; i++ {
		<-started
	}
	st2 = waitDone(t, client, st2.ID)
	if st2.State != StateDone || st2.Cached != 1 || st2.Simulated != 3 {
		t.Fatalf("resubmission after cancel: %+v, want done with 1 cached / 3 simulated", st2)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubmitValidation: malformed and invalid specs must 400 with a JSON
// error, unknown jobs must 404.
func TestSubmitValidation(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := client.http().Post(client.url("/v1/sweeps"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, body := range []string{
		`{not json`,
		`{"bandwidths":"100Parsecs"}`,
		`{"pairings":"bbr9:cubic"}`,
		`{"no_such_field":true}`,
	} {
		resp := post(body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s → %d, want 400", body, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error body not JSON: %v", body, err)
		}
		resp.Body.Close()
	}
	if _, err := client.Status("deadbeef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job status: %v", err)
	}
	if err := client.Stream(context.Background(), "deadbeef", nil); err == nil {
		t.Error("unknown job stream should error")
	}
}

// TestSubmitTooLarge: a spec body past maxBodyBytes is refused with 413 and
// a JSON error, without the server buffering the rest of it.
func TestSubmitTooLarge(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	body := io.MultiReader(strings.NewReader(`{"bandwidths":"`),
		io.LimitReader(repeatByte('a'), maxBodyBytes), strings.NewReader(`"}`))
	resp, err := client.http().Post(client.url("/v1/sweeps"), "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec → %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body is not a JSON error: %q (%v)", e.Error, err)
	}
}

// TestSubmitGridTooLarge: a tiny spec whose grid would exceed the size cap
// (here through its seed count) is refused with 400 before anything is
// expanded, and the daemon keeps serving.
func TestSubmitGridTooLarge(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1})
	resp, err := client.http().Post(client.url("/v1/sweeps"), "application/json",
		strings.NewReader(`{"seeds":9223372036854775807}`))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("oversized grid → %d %q, want 400 naming the cap", resp.StatusCode, e.Error)
	}
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatalf("submit after the refusal: %v", err)
	}
	if st.Total != 2 {
		t.Fatalf("submit after the refusal: %d configurations, want 2", st.Total)
	}
}

// repeatByte is an endless reader of one byte value.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
