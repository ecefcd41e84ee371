package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
)

// journalLines returns the journal's raw non-empty record lines (the v2
// version header doesn't count — it is metadata, not a record).
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	return out
}

// TestCheckpointCompact: a journal bloated by resumes — superseded results,
// torn fragments — must shrink to one line per live config ID on Compact,
// stay appendable afterwards, and resume identically to the original.
func TestCheckpointCompact(t *testing.T) {
	cfgs := hardeningConfigs(3)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, util float64) Result {
		return Result{Config: cfgs[i].Normalize(), Utilization: util, Jain: 1, Flows: 2}
	}
	// Two generations of config 0 (last write wins), one of config 1, and a
	// torn fragment as from a crash mid-append.
	for _, res := range []Result{mk(0, 0.5), mk(1, 0.7), mk(0, 0.9)} {
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ck.f.Write([]byte(`{"config":{"pairing":`)); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	ck, err = OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	before := ck.Results()
	if len(journalLines(t, path)) != 4 { // 3 appends + healed torn line
		t.Fatalf("pre-compact journal has %d lines, want 4", len(journalLines(t, path)))
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("compacted journal has %d lines, want 2 (one per live config):\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	if !reflect.DeepEqual(ck.Results(), before) {
		t.Fatal("Compact changed the live result set")
	}

	// The handle must still append into the compacted file.
	if err := ck.Append(mk(2, 0.8)); err != nil {
		t.Fatal(err)
	}
	if len(journalLines(t, path)) != 3 {
		t.Fatal("post-compact Append did not land in the compacted journal")
	}

	// A fresh open of the compacted journal resumes identically: every
	// config is satisfied from it, nothing re-runs, and the superseded
	// generation of config 0 is gone for good.
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 3 {
		t.Fatalf("reloaded compacted journal has %d results, want 3", ck2.Len())
	}
	if res, ok := ck2.Lookup(cfgs[0].Key()); !ok || res.Utilization != 0.9 {
		t.Fatalf("config 0 after compact+reload: %+v, %v (want the last-written generation)", res, ok)
	}
	runs := withPanicOn(t) // counts runs, panics never
	results, err := RunAllOpts(cfgs, RunAllOptions{Workers: 2, Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("resume from compacted journal re-ran %d configs, want 0", got)
	}
	for i, res := range results {
		if res.Config.ID() != cfgs[i].Normalize().ID() {
			t.Fatalf("config %d resumed out of order", i)
		}
	}
}

// TestCheckpointKeyedByScience: a journaled result may only satisfy a
// resume of the configuration that produced it. The same grid cell under a
// different duration or paper scale is different science and must re-run;
// the watchdog budgets and audit bit must not split the key. (Regression:
// the journal was once keyed by Config.ID, which omits the overrides, so a
// resume under a different -duration silently served wrong results.)
func TestCheckpointKeyedByScience(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	cfg := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, time.Second)
	if err := ck.Append(Result{Config: cfg.Normalize(), Jain: 1, Flows: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Lookup(cfg.Key()); !ok {
		t.Fatal("identical config missing from journal")
	}
	longer := cfg
	longer.Duration = 2 * time.Second
	if _, ok := ck.Lookup(longer.Key()); ok {
		t.Error("a 2s resume was served the 1s result")
	}
	paper := cfg
	paper.PaperScale = true
	if _, ok := ck.Lookup(paper.Key()); ok {
		t.Error("a paper-scale resume was served the scaled result")
	}
	budgeted := cfg
	budgeted.Audit = true
	budgeted.MaxEvents = 1 << 40
	if _, ok := ck.Lookup(budgeted.Key()); !ok {
		t.Error("audit/watchdog toggles must not orphan journaled work")
	}
}

// TestCheckpointBrokenHandleFailsFast: once the post-compact reopen has
// failed, the old handle points at an unlinked inode — Append and Compact
// must return the sticky error instead of silently writing into the void.
func TestCheckpointBrokenHandleFailsFast(t *testing.T) {
	cfgs := hardeningConfigs(2)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(Result{Config: cfgs[0].Normalize(), Jain: 1, Flows: 2}); err != nil {
		t.Fatal(err)
	}
	// Inject the state Compact leaves behind when the reopen fails.
	ck.mu.Lock()
	ck.err = errors.New("injected: compact reopen failed")
	ck.f.Close()
	ck.f = nil
	ck.mu.Unlock()
	if err := ck.Append(Result{Config: cfgs[1].Normalize(), Jain: 1, Flows: 2}); err == nil {
		t.Error("Append succeeded on a broken journal handle")
	}
	if err := ck.Compact(); err == nil {
		t.Error("Compact succeeded on a broken journal handle")
	}
	if err := ck.Close(); err == nil {
		t.Error("Close swallowed the sticky journal error")
	}
}

// TestCheckpointMemoryOnly: an empty path is the memory-only store. It
// creates no file, and Append, Lookup, Sync, Compact and Close all work on
// the index alone.
func TestCheckpointMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	ck, err := OpenCheckpoint("")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := hardeningConfigs(2)
	for _, cfg := range cfgs {
		if err := ck.Append(Result{Config: cfg.Normalize(), Jain: 1, Flows: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Append(Result{Config: cfgs[0].Normalize(), Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if res, ok := ck.Lookup(cfgs[0].Key()); !ok || res.Errored() || ck.Len() != 2 {
		t.Fatalf("memory-only index: %d results, config 0 = %+v (%v)", ck.Len(), res, ok)
	}
	if err := ck.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("memory-only store touched the disk: %v %v", entries, err)
	}
}

// TestCheckpointResultsSorted: Results must come back ordered by config ID
// regardless of append order, so compaction and cache loads are
// deterministic.
func TestCheckpointResultsSorted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	for _, seed := range []uint64{3, 1, 2} {
		cfg := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, seed, 2*time.Second)
		if err := ck.Append(Result{Config: cfg.Normalize(), Jain: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := ck.Results()
	for i := 1; i < len(got); i++ {
		if got[i-1].Config.ID() >= got[i].Config.ID() {
			t.Fatalf("Results not sorted: %s >= %s", got[i-1].Config.ID(), got[i].Config.ID())
		}
	}
}
