package experiment

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/failpoint"
)

func hardeningConfigs(n int) []Config {
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2,
			uint64(i+1), 2*time.Second)
	}
	return cfgs
}

// withPanicOn installs a test hook that panics for configs whose seed is in
// the given set, restoring the hook on cleanup.
func withPanicOn(t *testing.T, seeds ...uint64) *atomic.Int64 {
	t.Helper()
	bad := map[uint64]bool{}
	for _, s := range seeds {
		bad[s] = true
	}
	var runs atomic.Int64
	prev := testHookBeforeRun
	testHookBeforeRun = func(cfg Config) {
		runs.Add(1)
		if bad[cfg.Seed] {
			panic("injected failure")
		}
	}
	t.Cleanup(func() { testHookBeforeRun = prev })
	return &runs
}

// TestRunAllSurvivesPanic: a configuration that panics must become an
// errored Result identified by its config ID while every other
// configuration still completes.
func TestRunAllSurvivesPanic(t *testing.T) {
	cfgs := hardeningConfigs(4)
	withPanicOn(t, cfgs[1].Seed)

	results, err := RunAllOpts(cfgs, RunAllOptions{Workers: 2, KeepGoing: true})
	if err != nil {
		t.Fatalf("KeepGoing sweep returned error: %v", err)
	}
	for i, res := range results {
		if i == 1 {
			if !res.Errored() || !strings.Contains(res.Error, "injected failure") {
				t.Fatalf("panicked config not reported: %+v", res)
			}
			if res.Config.ID() != cfgs[1].Normalize().ID() {
				t.Fatalf("errored result misidentified: %s", res.Config.ID())
			}
			continue
		}
		if res.Errored() {
			t.Fatalf("config %d errored: %s", i, res.Error)
		}
		if res.Utilization <= 0 {
			t.Fatalf("config %d did not actually run: %+v", i, res)
		}
	}

	// Without KeepGoing the sweep error names the failed config, but only
	// after every configuration was attempted.
	results, err = RunAllOpts(cfgs, RunAllOptions{Workers: 2})
	if err == nil {
		t.Fatal("strict sweep swallowed the failure")
	}
	if !strings.Contains(err.Error(), cfgs[1].Normalize().ID()) {
		t.Fatalf("sweep error does not identify the config: %v", err)
	}
	for i, res := range results {
		if i != 1 && res.Errored() {
			t.Fatalf("strict mode abandoned config %d", i)
		}
	}
}

// TestRunAllWatchdogAbort: a configuration with an impossible event budget
// must be reported errored without disturbing its neighbours.
func TestRunAllWatchdogAbort(t *testing.T) {
	cfgs := hardeningConfigs(3)
	cfgs[1].MaxEvents = 1000 // a 2 s run needs far more events than this

	results, err := RunAllOpts(cfgs, RunAllOptions{Workers: 3, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if !results[1].Errored() || !strings.Contains(results[1].Error, "watchdog") {
		t.Fatalf("watchdog abort not reported: %+v", results[1])
	}
	if results[0].Errored() || results[2].Errored() {
		t.Fatal("watchdog abort leaked into healthy configs")
	}
}

// TestCheckpointResume: a resumed sweep must not re-run configurations
// already journaled, must re-run errored ones, and must produce the same
// results either way.
func TestCheckpointResume(t *testing.T) {
	cfgs := hardeningConfigs(4)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// First pass: config 2 panics, the rest complete and are journaled.
	runs := withPanicOn(t, cfgs[2].Seed)
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunAllOpts(cfgs, RunAllOptions{Workers: 2, KeepGoing: true, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("first pass ran %d configs, want 4", got)
	}
	if ck.Len() != 3 {
		t.Fatalf("checkpoint has %d results, want 3 (errored config must not journal)", ck.Len())
	}
	ck.Close()

	// Second pass, fresh process: only the previously-errored config runs.
	runs = withPanicOn(t) // no panics this time
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 3 {
		t.Fatalf("reloaded checkpoint has %d results, want 3", ck2.Len())
	}
	var progress []Progress
	second, err := RunAllOpts(cfgs, RunAllOptions{
		Workers:    2,
		Checkpoint: ck2,
		OnProgress: func(p Progress) { progress = append(progress, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("resume ran %d configs, want 1", got)
	}
	if len(progress) != 1 || progress[0].Skipped != 3 || progress[0].Done != 4 {
		t.Fatalf("resume progress: %+v", progress)
	}
	for i := range cfgs {
		if second[i].Errored() {
			t.Fatalf("config %d errored on resume: %s", i, second[i].Error)
		}
		if i != 2 && !reflect.DeepEqual(second[i], first[i]) {
			t.Fatalf("config %d: resumed result differs from journaled original", i)
		}
	}
	if ck2.Len() != 4 {
		t.Fatalf("checkpoint after resume has %d results, want 4", ck2.Len())
	}
}

// TestCheckpointHealsFailedAppend: a journal write that fails mid-sweep
// must not lose the result. It stays indexed, the next append journals it,
// and the reopened journal holds every result. (Regression: the failed
// result never reached the index, so neither a retry nor the closing
// Compact could write it, and a keep-going sweep exited 0 without it.)
func TestCheckpointHealsFailedAppend(t *testing.T) {
	defer failpoint.DisableAll()
	cfgs := hardeningConfigs(3)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("checkpoint.append.write=err(injected: no space left on device)@times=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllOpts(cfgs, RunAllOptions{Workers: 2, KeepGoing: true, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	if pending, errs, _ := ck.Degraded(); pending != 0 || errs != 1 {
		t.Fatalf("after the sweep: %d results queued, %d journal errors, want 0 and 1", pending, errs)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, cfg := range cfgs {
		if _, ok := re.Lookup(cfg.Key()); !ok {
			t.Fatalf("result %s lost to the failed append", cfg.Normalize().ID())
		}
	}
}

// TestCheckpointToleratesTornLine: a torn final line (crash mid-write) must
// cost exactly that one configuration a re-run, nothing more.
func TestCheckpointToleratesTornLine(t *testing.T) {
	cfgs := hardeningConfigs(2)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllOpts(cfgs, RunAllOptions{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	// Tear the last line in half, as a crash mid-Append would.
	if _, err := ck.f.Seek(-40, 2); err != nil {
		t.Fatal(err)
	}
	if err := ck.f.Truncate(mustSize(t, ck) - 40); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("torn checkpoint loaded %d results, want 1", ck2.Len())
	}
}

func mustSize(t *testing.T, ck *Checkpoint) int64 {
	t.Helper()
	fi, err := ck.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRunAllConcurrentProgress: the progress callback must be serialized
// and monotone even with a wide worker pool.
func TestRunAllConcurrentProgress(t *testing.T) {
	cfgs := hardeningConfigs(6)
	var mu sync.Mutex
	lastDone := 0
	_, err := RunAllOpts(cfgs, RunAllOptions{
		Workers: 6,
		OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done != lastDone+1 {
				t.Errorf("progress jumped from %d to %d", lastDone, p.Done)
			}
			lastDone = p.Done
			if p.Total != 6 {
				t.Errorf("total = %d", p.Total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 6 {
		t.Fatalf("final done = %d", lastDone)
	}
}
