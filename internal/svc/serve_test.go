package svc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// TestEventsCarrySlotIDs: every streamed event is labelled with the ID the
// job's status uses for that slot, the quarantined slot's included.
func TestEventsCarrySlotIDs(t *testing.T) {
	s, client, _ := newClusterServer(t,
		ClusterOptions{LeaseTTL: time.Minute, LeaseBatch: 8, RetryBudget: 1}, Options{})
	coord := s.coord
	st, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// One worker takes the grid, uploads the second config and dies
	// holding the first, which the budget of 1 quarantines.
	base := time.Now()
	coord.setNow(func() time.Time { return base })
	reg := coord.register("crashy")
	lr, _ := coord.acquire(reg.WorkerID, 8)
	if len(lr.Configs) != 2 {
		t.Fatalf("leased %d configs, want 2", len(lr.Configs))
	}
	coord.upload(reg.WorkerID, fakeRun(lr.Configs[1]))
	coord.setNow(func() time.Time { return base.Add(2 * time.Minute) })
	coord.Reap()
	coord.setNow(time.Now)
	final := waitDone(t, client, st.ID)
	if len(final.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want one config", final.Quarantined)
	}

	var events []Event
	if err := client.Stream(context.Background(), st.ID, func(ev Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	ids := s.jobs[st.ID].ids
	s.mu.Unlock()
	if len(events) != len(ids) {
		t.Fatalf("streamed %d events, want %d", len(events), len(ids))
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.ConfigID] = true
		if ev.Error != "" && ev.ConfigID != final.Quarantined[0] {
			t.Errorf("quarantined event labelled %q, status names %q", ev.ConfigID, final.Quarantined[0])
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("no event labelled with slot ID %q (events %+v)", id, events)
		}
	}
}

// registerJob adds a planned job to the server without scheduling it, so
// a test can deliver hand-made results into its slots.
func registerJob(s *Server, p experiment.Plan) *Job {
	j := newJob(p)
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	return j
}

// TestResultsUnencodableIs500: a result JSON cannot encode (a NaN metric)
// is answered with a 500 naming its configuration, never with a 200 and an
// empty body.
func TestResultsUnencodableIs500(t *testing.T) {
	s, client, _ := newClusterServer(t, ClusterOptions{}, Options{})
	plan, err := tinySpec().Plan()
	if err != nil {
		t.Fatal(err)
	}
	plan.Key = "nan"
	j := registerJob(s, plan)
	j.deliver(0, experiment.NewEntry(fakeRun(plan.Configs[0])), false)
	bad := fakeRun(plan.Configs[1])
	bad.Jain = math.NaN()
	j.deliver(1, experiment.NewEntry(bad), false)

	resp, err := client.http().Get(client.url("/v1/sweeps/nan/results"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(j.ids[1])) || !bytes.Contains(body, []byte("NaN")) {
		t.Fatalf("500 body %q does not name config %s and its NaN", body, j.ids[1])
	}
}

// TestResultsSlotKeepsItsEntry: a Put that supersedes a key (a duplicate
// upload with another wall_ns) must not change the bytes an earlier job
// serves for it, and a job's repeated fetches serve identical bytes.
func TestResultsSlotKeepsItsEntry(t *testing.T) {
	s, client, _ := newClusterServer(t, ClusterOptions{}, Options{})
	spec := tinySpec()
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		res := fakeRun(cfg)
		res.Wall = 111
		s.cache.Put(res)
	}
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Cached != len(cfgs) {
		t.Fatalf("warm submit: %+v", st)
	}
	first, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		res := fakeRun(cfg)
		res.Wall = 222
		s.cache.Put(res)
	}
	again, err := client.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) || !bytes.Contains(again, []byte(`"wall_ns": 111`)) {
		t.Fatalf("a superseding Put changed the job's served bytes:\n%s\n---\n%s", first, again)
	}
}

// TestTraceHeaderIsJSON: the header line ahead of each trace is JSON even
// when the config ID carries a control character (from a flows population
// name), which Go's %q would escape as \x01 and JSON decoders reject.
func TestTraceHeaderIsJSON(t *testing.T) {
	_, client := newTestServer(t, Options{Shards: 1, Trace: true})
	spec := tinySpec()
	spec.Pairings = "cubic:cubic"
	spec.Duration = "300ms"
	spec.Flows = `{"populations":[{"name":"m\u0001","max_flows":2}]}`
	st, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, client, st.ID); st.Simulated != st.Total || st.Errored != 0 {
		t.Fatalf("final status: %+v", st)
	}
	resp, err := client.http().Get(client.url("/v1/sweeps/" + st.ID + "/trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var h telemetry.StreamHeader
	if err := json.Unmarshal([]byte(line), &h); err != nil {
		t.Fatalf("trace header %q is not JSON: %v", line, err)
	}
	if !strings.Contains(h.ID, "m\u0001") || h.Config == "" {
		t.Fatalf("trace header %+v does not name the config", h)
	}
}
