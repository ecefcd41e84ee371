// Command sweep runs the paper's measurement grid (Table 1: 9 CCA pairings
// × 3 AQMs × 6 buffer sizes × 5 bottleneck bandwidths) over the simulator
// and writes a JSON result set that cmd/figures renders into the paper's
// figures and tables. The grid subset is an experiment.GridSpec — the same
// type sweepd accepts over HTTP — and with -remote the command becomes a
// thin client of a running daemon, submitting the identical spec and saving
// the served bytes.
//
// Examples:
//
//	sweep -out results.json                        # scaled grid, 1 seed
//	sweep -out results.json -seeds 5 -workers 4    # 5 replicas each
//	sweep -out quick.json -bws 100Mbps,1Gbps -queues 2,16
//	sweep -table3 results.json                     # print Table 3 and exit
//	sweep -remote http://localhost:8422 -bws 1Gbps # run via sweepd
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/failpoint"
	"repro/internal/svc"
	"repro/internal/telemetry"
)

func main() {
	var spec experiment.GridSpec
	spec.RegisterFlags(flag.CommandLine)
	var (
		out        = flag.String("out", "results.json", "output JSON path")
		workers    = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS; local mode only)")
		table3     = flag.String("table3", "", "render Table 3 from an existing results JSON and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		checkpoint = flag.String("checkpoint", "", "checkpoint journal path: append each finished result and, on restart, skip configurations already journaled (compacted on clean completion)")
		keepGoing  = flag.Bool("keep-going", true, "complete the sweep even if individual configurations fail; exit non-zero only when false")
		strict     = flag.Bool("strict", false, "exit non-zero if any configuration errored or was skipped by checkpoint resume (for CI smoke runs)")

		remote       = flag.String("remote", "", "submit the spec to a sweepd daemon at this base URL instead of simulating locally")
		printMetrics = flag.Bool("print-metrics", false, "after a -remote sweep, fetch the daemon's /metrics and print it to stdout")
		traceDir     = flag.String("trace-dir", "", "record flight-recorder telemetry for every configuration and write one <Config.Key()>.trace.ndjson per result into this directory (local mode only; reruns overwrite deterministically)")
		fairOut      = flag.String("fairness-out", "", "write the per-config fairness reports as NDJSON to this path (implies -fairness; same line shape as sweepd's /v1/sweeps/{id}/fairness; local mode only)")
		failpoints   = flag.String("failpoints", os.Getenv("FAILPOINTS"),
			"arm fault-injection points for durability testing, e.g. 'checkpoint.fsync=err(disk full)@hit=2' (default $FAILPOINTS)")
	)
	flag.Parse()

	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "sweep: failpoints armed: %s\n", *failpoints)
		}
	}

	if *table3 != "" {
		rs, err := experiment.LoadFile(*table3)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.Summarize(rs.Results).RenderTable3())
		return
	}

	if *remote != "" {
		runRemote(*remote, spec, *out, *quiet, *strict, *printMetrics)
		return
	}

	plan, err := spec.Plan()
	if err != nil {
		fatal(err)
	}
	cfgs := plan.Configs
	if *traceDir != "" {
		// Tracing is observation-only and excluded from Config.Key(), so
		// traced results keep the same science identity (checkpoints and
		// caches still apply).
		for i := range cfgs {
			cfgs[i].Trace = true
		}
	}
	if *fairOut != "" {
		// Same deal as tracing: the observatory is observation-only and
		// excluded from Config.Key().
		for i := range cfgs {
			cfgs[i].Fairness = true
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d configurations\n", len(cfgs))

	start := time.Now()
	var onProgress func(experiment.Progress)
	if !*quiet {
		// Perf telemetry alongside the science: per-run simulator speed
		// (events/sec of wall time) and the process's peak heap so event-core
		// regressions are visible from the CLI. onProgress is serialized by
		// the runner, so peakHeap needs no locking.
		var peakHeap uint64
		onProgress = func(p experiment.Progress) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peakHeap {
				peakHeap = ms.HeapInuse
			}
			evRate := 0.0
			if p.Last.Wall > 0 {
				evRate = float64(p.Last.Events) / p.Last.Wall.Seconds()
			}
			status := fmt.Sprintf("u=%.3f J=%.3f", p.Last.Utilization, p.Last.Jain)
			if p.Last.Errored() {
				status = "ERROR " + p.Last.Error
			}
			fmt.Fprintf(os.Stderr, "[%4d/%4d] %-55s %s %6.2fMev/s heap=%dMiB skip=%d err=%d (%v)\n",
				p.Done, p.Total, p.LastID, status,
				evRate/1e6, peakHeap>>20, p.Skipped, p.Errored,
				time.Since(start).Round(time.Second))
		}
	}
	runOpts := experiment.RunAllOptions{
		Workers:    *workers,
		OnProgress: onProgress,
		KeepGoing:  *keepGoing,
	}
	skippedAhead := 0
	var ck *experiment.Checkpoint
	if *checkpoint != "" {
		ck, err = experiment.OpenCheckpoint(*checkpoint)
		if err != nil {
			fatal(err)
		}
		if n := ck.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "sweep: resuming, %d results already journaled in %s\n", n, *checkpoint)
		}
		runOpts.Checkpoint = ck
		for _, c := range cfgs {
			if _, ok := ck.Lookup(c.Key()); ok {
				skippedAhead++
			}
		}
	}
	results, err := experiment.RunAllOpts(cfgs, runOpts)
	if err != nil {
		fatal(err)
	}
	errored := countErrored(results)
	if errored > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d configurations errored (kept going)\n", errored, len(cfgs))
	}
	if ck != nil {
		// Successful completion: fold the append-only journal down to one
		// line per live config so it stops growing across resumes.
		if errored == 0 {
			if err := ck.Compact(); err != nil {
				fatal(err)
			}
		}
		// Close retries any result whose append failed; one the journal
		// still cannot take fails the sweep rather than vanish from it.
		if err := ck.Close(); err != nil {
			fatal(err)
		}
	}

	if *traceDir != "" {
		if err := writeTraces(*traceDir, results); err != nil {
			fatal(err)
		}
	}
	if *fairOut != "" {
		if err := writeFairness(*fairOut, results); err != nil {
			fatal(err)
		}
	}

	if err := experiment.SaveFile(*out, &experiment.ResultSet{Note: plan.Note, Results: results}); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %s in %v\n", *out, time.Since(start).Round(time.Second))

	fmt.Println()
	fmt.Print(experiment.Summarize(results).RenderTable3())

	if *strict && (errored > 0 || skippedAhead > 0) {
		fatal(fmt.Errorf("strict: %d errored, %d checkpoint-skipped configurations", errored, skippedAhead))
	}
}

// runRemote drives a sweepd daemon with the same spec the local path would
// run: submit, stream progress, save the served result bytes verbatim (so
// the file is byte-identical to the daemon's cache, which is byte-identical
// to a local sweep), and print Table 3.
func runRemote(base string, spec experiment.GridSpec, out string, quiet, strict, printMetrics bool) {
	start := time.Now()
	client := &svc.Client{Base: base}
	st, err := client.Submit(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: remote job %s on %s: %d configurations, %d cached\n",
		st.ID, base, st.Total, st.Cached)

	onEvent := func(ev svc.Event) {
		if quiet {
			return
		}
		status := fmt.Sprintf("u=%.3f J=%.3f", ev.Utilization, ev.Jain)
		if ev.Error != "" {
			status = "ERROR " + ev.Error
		}
		src := "sim"
		if ev.Cached {
			src = "hit"
		}
		fmt.Fprintf(os.Stderr, "[%4d/%4d] %-55s %s %s (%v)\n",
			ev.Done, ev.Total, ev.ConfigID, status, src, time.Since(start).Round(time.Second))
	}
	if err := client.Stream(context.Background(), st.ID, onEvent); err != nil {
		fatal(err)
	}
	st, err = client.Status(st.ID)
	if err != nil {
		fatal(err)
	}
	if st.State != svc.StateDone {
		fatal(fmt.Errorf("remote job %s ended in state %s (%d/%d done)", st.ID, st.State, st.Done, st.Total))
	}
	if st.Errored > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d configurations errored remotely\n", st.Errored, st.Total)
	}

	raw, err := client.Results(st.ID)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %s in %v\n", out, time.Since(start).Round(time.Second))

	rs, err := experiment.LoadFile(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(experiment.Summarize(rs.Results).RenderTable3())

	if printMetrics {
		metrics, err := client.Metrics()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(metrics)
	}
	if strict && st.Errored > 0 {
		fatal(fmt.Errorf("strict: %d errored configurations", st.Errored))
	}
}

// writeTraces writes each traced result's telemetry as NDJSON, one file per
// configuration named by its science key so a rerun of the same spec lands
// on the same paths. Checkpoint-skipped and errored results carry no trace
// and are silently absent.
func writeTraces(dir string, results []experiment.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for i := range results {
		r := &results[i]
		if r.Trace == nil {
			continue
		}
		path := filepath.Join(dir, r.Config.Key()+".trace.ndjson")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := telemetry.EncodeNDJSON(f, r.Trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %d telemetry traces to %s\n", n, dir)
	return nil
}

// writeFairness writes the per-config fairness reports as NDJSON in grid
// order, one experiment.FairnessLine per fairness-armed result — the same
// byte shape sweepd's GET /v1/sweeps/{id}/fairness streams, so a local run
// and a daemon round-trip of the same spec diff clean. Checkpoint-skipped
// results from a fairness-off journal carry no report and are silently
// absent.
func writeFairness(path string, results []experiment.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	n := 0
	for i := range results {
		r := &results[i]
		if r.Fairness == nil {
			continue
		}
		line := experiment.FairnessLine{Config: r.Config.Key(), ID: r.Config.ID(), Fairness: r.Fairness}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
		n++
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %d fairness reports to %s\n", n, path)
	return nil
}

func countErrored(results []experiment.Result) int {
	n := 0
	for _, r := range results {
		if r.Errored() {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
