package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Progress reports sweep progress to a callback.
type Progress struct {
	Done    int
	Total   int
	Skipped int // configs satisfied from the checkpoint, not re-run
	Errored int // configs that panicked or hit the watchdog so far
	Last    Result
	LastID  string
}

// RunAllOptions controls a hardened sweep.
type RunAllOptions struct {
	// Workers is the worker-pool width (0 = GOMAXPROCS).
	Workers int
	// OnProgress, when set, is called (serialized) after every completed
	// configuration.
	OnProgress func(Progress)
	// KeepGoing makes RunAllOpts return a nil error even when individual
	// configurations fail; failures are still recorded in Result.Error.
	// Without it the first failure is returned as the sweep error — but
	// only after every configuration has been attempted either way.
	KeepGoing bool
	// Checkpoint, when set, is consulted before running (configs whose
	// science identity is already journaled are filled from it and skipped)
	// and appended to as each configuration completes.
	Checkpoint *Checkpoint
}

// testHookBeforeRun, when non-nil, runs inside the per-config recover()
// scope before each simulation — the injection point for the runner's
// panic-hardening tests.
var testHookBeforeRun func(Config)

// RunOne executes a single configuration with the sweep runner's hardening:
// a panic anywhere under Run, or any error Run returns, comes back as an
// errored Result carrying the config as Run records it, never a crash.
// RunAllOpts and sweepd's workers both run configurations through it, so
// CLI and daemon sweeps get exactly the same recovery, watchdog, and audit
// semantics.
func RunOne(cfg Config) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Config: cfg.Recorded(), Error: fmt.Sprintf("panic: %v", r)}
		}
	}()
	if testHookBeforeRun != nil {
		testHookBeforeRun(cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		res.Config = cfg.Recorded()
		res.Error = err.Error()
	}
	return res
}

// RunAll executes the configurations on a worker pool of the given width
// (0 = GOMAXPROCS) and returns results in input order. Each simulation is
// single-threaded and deterministic; parallelism is purely across
// configurations, so results are independent of worker count.
func RunAll(cfgs []Config, workers int, onProgress func(Progress)) ([]Result, error) {
	return RunAllOpts(cfgs, RunAllOptions{Workers: workers, OnProgress: onProgress})
}

// RunAllOpts is RunAll with hardening options: per-config panic recovery,
// keep-going error policy, and checkpoint/resume. Every configuration is
// attempted exactly once (or resumed from the checkpoint); a failed
// configuration yields an errored Result identified by its config and
// never stops the others.
func RunAllOpts(cfgs []Config, o RunAllOptions) ([]Result, error) {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) && len(cfgs) > 0 {
		workers = len(cfgs)
	}

	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	skip := make([]bool, len(cfgs))
	skipped := 0
	if o.Checkpoint != nil {
		for i := range cfgs {
			if res, ok := o.Checkpoint.Lookup(cfgs[i].Key()); ok {
				results[i] = res
				skip[i] = true
				skipped++
			}
		}
	}

	jobs := make(chan int)

	var mu sync.Mutex
	done := skipped
	errored := 0

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := RunOne(cfgs[i])
				results[i] = res
				mu.Lock()
				if res.Errored() {
					errs[i] = errors.New(res.Error)
					errored++
				} else if o.Checkpoint != nil {
					errs[i] = o.Checkpoint.Append(res)
				}
				done++
				if o.OnProgress != nil {
					o.OnProgress(Progress{Done: done, Total: len(cfgs), Skipped: skipped,
						Errored: errored, Last: res, LastID: res.Config.ID()})
				}
				mu.Unlock()
			}
		}()
	}
	for i := range cfgs {
		if !skip[i] {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()

	if o.KeepGoing {
		return results, nil
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("config %d (%s): %w", i, results[i].Config.ID(), err)
		}
	}
	return results, nil
}
