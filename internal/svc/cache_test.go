package svc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/failpoint"
)

// degradedResult fabricates a distinct cacheable result per seed.
func degradedResult(seed uint64) experiment.Result {
	cfg := tinySpec()
	cfgs, _ := cfg.Expand()
	c := cfgs[0]
	c.Seed = seed
	return fakeRun(c)
}

// TestCacheJournalDegradationAndRecovery: sustained journal failure (every
// write fails, drain included) must never fail a Put — results shed to the
// in-memory overflow and stay servable — and once the disk recovers the
// overflow drains back, the cache leaves degraded mode, and a reload from
// the journal sees every result.
func TestCacheJournalDegradationAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	// Three consecutive write failures: the first Put's append plus the two
	// drain attempts the following Puts make. checkpoint.append.write sits
	// inside Checkpoint.Append, so the drain path fails exactly like the
	// direct one — sustained disk-full, not a one-shot blip.
	if err := failpoint.Enable("checkpoint.append.write=err(injected: no space left on device)@times=3"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	results := []experiment.Result{degradedResult(1), degradedResult(2), degradedResult(3)}
	for i, res := range results {
		e := c.Put(res)
		if got, ok := c.LookupEntry(res.Config.Key()); !ok || got != e {
			t.Fatalf("Put %d during degradation did not return its indexed entry", i)
		}
	}
	degraded, overflow, errs, lastErr := c.Degraded()
	if !degraded || overflow != 3 || errs != 3 {
		t.Fatalf("after 3 failed puts: degraded=%v overflow=%d errs=%d, want true/3/3", degraded, overflow, errs)
	}
	if !strings.Contains(lastErr, "no space left") {
		t.Fatalf("lastErr = %q, want the injected disk error", lastErr)
	}
	// Science is unaffected: every shed result still serves from memory.
	for _, res := range results {
		if _, ok := c.Get(res.Config.Key()); !ok {
			t.Fatalf("result %s not servable while degraded", res.Config.ID())
		}
	}

	// Disk recovers (failpoint exhausted): the next Put drains the overflow
	// and journals itself.
	c.Put(degradedResult(4))
	degraded, overflow, _, _ = c.Degraded()
	if degraded || overflow != 0 {
		t.Fatalf("after recovery: degraded=%v overflow=%d, want false/0", degraded, overflow)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon warms from the journal with nothing missing.
	c2, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 4 {
		t.Fatalf("reloaded cache has %d results, want 4", c2.Len())
	}
}

// TestCacheCompactFailsWhileDegraded: Compact must refuse to write a
// snapshot that silently misses shed results — it reports the overflow
// instead, which is how sweepd -merge detects an unhealed journal.
func TestCacheCompactFailsWhileDegraded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("checkpoint.append.write=err(injected EIO)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	c.Put(degradedResult(1))
	if err := c.Compact(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Compact while degraded = %v, want a degraded-journal error", err)
	}
	failpoint.DisableAll()
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact after recovery: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzReportsJournalDegradation: /healthz flips to 503 with the
// overflow depth while the journal is shedding writes and recovers to 200
// once it drains.
func TestHealthzReportsJournalDegradation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := New(Options{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	check := func(wantCode int, wantBody string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode || !strings.Contains(string(body), wantBody) {
			t.Fatalf("/healthz = %d %q, want %d containing %q", resp.StatusCode, body, wantCode, wantBody)
		}
	}
	check(http.StatusOK, "ok")

	if err := failpoint.Enable("checkpoint.append.write=err(injected: disk full)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	s.cache.Put(degradedResult(1))
	check(http.StatusServiceUnavailable, "1 results in memory overflow")

	failpoint.DisableAll()
	s.cache.Put(degradedResult(2)) // drains the overflow
	check(http.StatusOK, "ok")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmJobLeavesJournalAlone: a job served from cache writes nothing, so
// it must leave the journal file alone — no per-job rewrite, even over a
// journal that holds a stale line — while shutdown still compacts that
// journal to one record per key.
func TestWarmJobLeavesJournalAlone(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "cache.ckpt.jsonl")
	snapshot := func() (os.FileInfo, []byte) {
		t.Helper()
		fi, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		return fi, data
	}
	untouched := func(what string, fi os.FileInfo, data []byte) {
		t.Helper()
		fi2, data2 := snapshot()
		if !os.SameFile(fi, fi2) || !bytes.Equal(data, data2) {
			t.Fatalf("%s rewrote the journal", what)
		}
	}
	start := func() (*Server, *Client) {
		t.Helper()
		s, err := New(Options{Shards: 1, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		return s, &Client{Base: hs.URL, HTTP: hs.Client()}
	}
	run := func(c *Client, spec experiment.GridSpec, wantCached int) {
		t.Helper()
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, c, st.ID); st.Cached != wantCached || st.Errored != 0 {
			t.Fatalf("job %+v, want %d cached and none errored", st, wantCached)
		}
	}

	// A completed sweep, then the same grid under a new spec key (audit
	// toggled): a new job served entirely from cache.
	s, client := start()
	run(client, tinySpec(), 0)
	fi, data := snapshot()
	audited := tinySpec()
	audited.Audit = true
	run(client, audited, 2)
	untouched("a fully cached resubmit", fi, data)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Duplicate one record, then serve the grid from cache over the stale
	// journal: the job still leaves it alone, and Close compacts it.
	ck, err := experiment.OpenCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(ck.Results()[0]); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	fi, data = snapshot()
	s, client = start()
	run(client, tinySpec(), 2)
	untouched("a cached job over a stale journal", fi, data)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, data = snapshot(); bytes.Count(data, []byte("\nr ")) != 2 {
		t.Fatalf("journal after Close holds %d records, want 2 (one per key)", bytes.Count(data, []byte("\nr ")))
	}
}
