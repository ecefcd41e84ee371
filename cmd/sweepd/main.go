// Command sweepd serves the measurement grid as a long-running service:
// clients POST experiment.GridSpec sweeps and stream results over HTTP,
// while a coordinator schedules each configuration at most once onto
// -shards in-process workers and a content-addressed cache (persisted via
// the checkpoint journal) answers repeats without re-simulating. A
// served sweep is byte-identical to a direct cmd/sweep run of the same spec.
//
//	sweepd -journal sweeps.ckpt.jsonl                # listen on :8422
//	sweepd -addr 127.0.0.1:0 -addr-file /tmp/addr    # ephemeral port, for scripts
//	sweep -remote http://localhost:8422 -bws 1Gbps   # submit via the CLI client
//
// Cluster mode runs the same coordinator without in-process workers: it
// owns the API, the cache, and the lease state machine, and any number of
// joined workers pull leased batches of configurations, simulate them, and
// upload results.
// Workers heartbeat; a worker that dies mid-lease has its unfinished
// configurations re-queued after the lease TTL, already-uploaded results
// are never re-simulated, and idle workers steal the tail of a
// straggler's lease. The merged result set stays byte-identical to a
// single-process sweep.
//
//	sweepd -coordinator -journal sweeps.ckpt.jsonl   # cluster brain
//	sweepd -join http://coordinator:8422             # execution worker
//	sweepd -merge -journal merged.jsonl w1.jsonl w2.jsonl  # fold worker journals
//
// API:
//
//	POST /v1/sweeps              submit a GridSpec (JSON body); identical
//	                             specs coalesce onto one job. @file
//	                             faults/topo/flows specs are resolved by
//	                             the client only (sweep -remote sends the
//	                             file's contents); the daemon answers 400
//	                             to any @file value and never opens it
//	GET  /v1/sweeps/{id}         status with per-config skip/error counts
//	GET  /v1/sweeps/{id}/events  NDJSON progress stream, one line per
//	                             completed configuration
//	GET  /v1/sweeps/{id}/results merged experiment.ResultSet JSON
//	GET  /v1/sweeps/{id}/report  paper-vs-measured markdown (cmd/report path)
//	GET  /v1/sweeps/{id}/trace   per-config telemetry NDJSON (needs -trace,
//	                             single-node only: -coordinator refuses it;
//	                             ?config=<key> narrows to one configuration)
//	GET  /v1/sweeps/{id}/fairness per-config fairness-observatory reports as
//	                             NDJSON (needs -fairness or fairness in the
//	                             spec; ?config=<key> narrows to one)
//	GET  /metrics                Prometheus text format (histograms of
//	                             per-config wall time, event rate, and
//	                             fairness convergence time, plus the
//	                             sweepd_cluster_* lease counters; the same
//	                             names with or without -coordinator, and
//	                             on a single node, whose in-process
//	                             workers hold no leases, the worker and
//	                             lease metrics read 0)
//	GET  /debug/pprof/           Go profiler (only with -pprof)
//
// Cluster API (coordinator only; used by sweepd -join, not by clients):
//
//	POST /v1/workers                       register, returns worker ID and
//	                                       heartbeat/lease parameters
//	POST /v1/workers/{id}/heartbeat        renew liveness and lease deadlines
//	POST /v1/workers/{id}/lease            acquire a leased batch of configs
//	POST /v1/workers/{id}/results          upload one result (idempotent)
//	POST /v1/workers/{id}/release          hand back unworked lease remainder
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/failpoint"
	"repro/internal/svc"
)

// fsckJournal runs the startup integrity scan on demand: CRC verification,
// duplicate and science-key accounting, and (unless dry) a repair that
// quarantines damaged raw bytes beside the journal and rewrites it as one
// clean v2 record per live configuration.
func fsckJournal(path string, repair bool) error {
	if path == "" {
		return errors.New("-fsck requires -journal")
	}
	rep, err := experiment.FsckJournal(path, repair)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "sweepd: "+rep.String())
	if !repair && rep.Dirty() {
		return fmt.Errorf("journal %s is dirty (re-run without -fsck-dry-run to repair)", path)
	}
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8422", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
		journal  = flag.String("journal", "", "checkpoint journal persisting the result cache (empty = in-memory only)")
		shards   = flag.Int("shards", 0, "parallel simulations: in-process workers, or per worker with -join (0 = GOMAXPROCS; ignored with -coordinator)")
		auditRun = flag.Bool("audit", false, "arm the runtime invariant auditor on every simulated configuration")
		traceRun = flag.Bool("trace", false, "record flight-recorder telemetry for every simulated configuration (serves /v1/sweeps/{id}/trace; single-node only)")
		fairRun  = flag.Bool("fairness", false, "arm the fairness observatory on every simulated configuration (serves /v1/sweeps/{id}/fairness)")
		pprofOn  = flag.Bool("pprof", false, "mount the Go profiler at /debug/pprof/ (exposes internals; keep off on untrusted networks)")
		logFmt   = flag.String("log-format", "text", "log encoding: text (key=value) or json (one object per line)")

		coordinator = flag.Bool("coordinator", false, "cluster mode: lease configurations to joined workers instead of simulating locally")
		join        = flag.String("join", "", "cluster mode: run as a worker for the coordinator at this URL (no local HTTP API)")
		name        = flag.String("name", "", "worker name reported to the coordinator (default host:pid; only with -join)")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "failure-detection horizon: unrenewed leases and silent workers are reaped after this (only with -coordinator)")
		heartbeat   = flag.Duration("heartbeat", 0, "worker heartbeat interval (0 = lease-ttl/5 on the coordinator, coordinator-suggested on a worker)")
		leaseBatch  = flag.Int("lease-batch", 0, "maximum configurations per lease (0 = 16; only with -coordinator)")
		merge       = flag.Bool("merge", false, "offline: fold the journals given as arguments into -journal, compact, and exit")

		fsck        = flag.Bool("fsck", false, "offline: verify -journal (CRCs, duplicates, science-key agreement), repair into a compacted journal, report drops, and exit")
		fsckDry     = flag.Bool("fsck-dry-run", false, "with -fsck: report damage without rewriting the journal")
		retryBudget = flag.Int("retry-budget", 0, "lease failures before a configuration is quarantined as poison (0 = 3; only with -coordinator)")
		requeueQ    = flag.Bool("requeue-quarantined", false, "grant quarantined configurations a fresh retry budget when requested again (only with -coordinator)")
		failpoints  = flag.String("failpoints", os.Getenv("FAILPOINTS"),
			"arm fault-injection points, e.g. 'checkpoint.fsync=err(disk full)@times=3;worker.run=exit:7@arg=<config-id>' (default $FAILPOINTS)")
	)
	flag.Parse()

	if err := svc.ConfigureLogging(*logFmt, os.Stderr); err != nil {
		fatal(err)
	}
	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweepd: failpoints armed: %s\n", *failpoints)
	}

	modes := 0
	for _, on := range []bool{*coordinator, *join != "", *merge, *fsck} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatal(errors.New("-coordinator, -join, -merge, and -fsck are mutually exclusive"))
	}

	if *fsck {
		if err := fsckJournal(*journal, !*fsckDry); err != nil {
			fatal(err)
		}
		return
	}
	if *merge {
		if err := mergeJournals(*journal, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if *join != "" {
		runWorker(*join, *name, *journal, *shards, *heartbeat)
		return
	}

	opts := svc.Options{Journal: *journal, Shards: *shards,
		Audit: *auditRun, Trace: *traceRun, Fairness: *fairRun, Pprof: *pprofOn}
	if *coordinator {
		opts.Cluster = &svc.ClusterOptions{LeaseTTL: *leaseTTL, Heartbeat: *heartbeat,
			LeaseBatch: *leaseBatch, RetryBudget: *retryBudget, RequeueQuarantined: *requeueQ}
	}
	server, err := svc.New(opts)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	mode := "single-node"
	if *coordinator {
		mode = "coordinator"
	}
	fmt.Fprintf(os.Stderr, "sweepd: listening on http://%s (mode=%s journal=%s audit=%v trace=%v fairness=%v pprof=%v)\n",
		ln.Addr(), mode, orNone(*journal), *auditRun, *traceRun, *fairRun, *pprofOn)
	if *addrFile != "" {
		// Write-then-rename so a watching script never reads a torn address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatal(err)
		}
	}

	// Request bodies are capped by the handler; headers get a deadline so a
	// client that never finishes them cannot hold a connection open.
	httpSrv := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "sweepd: shutting down: draining running configurations")
	case err := <-errCh:
		fatal(err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd: http shutdown:", err)
	}
	if err := server.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "sweepd: journal flushed, bye")
}

// runWorker joins a coordinator and works leases until SIGINT/SIGTERM, then
// drains gracefully: in-flight simulations finish and upload, the rest of
// the lease is released back so the coordinator reschedules it immediately.
func runWorker(coordURL, name, journal string, parallel int, heartbeat time.Duration) {
	w, err := svc.NewWorker(svc.WorkerOptions{
		Coordinator: coordURL,
		Name:        name,
		Parallel:    parallel,
		Journal:     journal,
		Heartbeat:   heartbeat,
	})
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "sweepd: joining %s as worker (journal=%s)\n", coordURL, orNone(journal))
	if err := w.Run(ctx); err != nil {
		fatal(err)
	}
}

// mergeJournals folds per-worker journals into one cache journal:
// every source result is appended to dest (content-addressed, so repeats
// across workers collapse), then the journal is compacted down to one line
// per configuration. Damage in a source — torn tails, corrupt regions,
// key-mismatched records, even an unopenable file — is skipped and
// reported, never fatal: every record the resilient reader can still
// recover is merged, and the exit is nonzero only if no source yielded
// anything at all.
func mergeJournals(dest string, sources []string) error {
	if dest == "" {
		return errors.New("-merge requires -journal (the destination)")
	}
	if len(sources) == 0 {
		return errors.New("-merge requires source journals as arguments")
	}
	cache, err := svc.OpenCache(dest)
	if err != nil {
		return err
	}
	total, added, merged, skipped := 0, 0, 0, 0
	for _, src := range sources {
		ck, err := experiment.OpenCheckpoint(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: skipping %s: %v\n", src, err)
			skipped++
			continue
		}
		results := ck.Results()
		st := ck.Stats()
		if err := ck.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: close %s: %v (its %d readable results are still merged)\n",
				src, err, len(results))
		}
		for _, res := range results {
			total++
			before := cache.Len()
			cache.Put(res) // never fails; the Compact below reports an unhealed journal
			if cache.Len() > before {
				added++
			}
		}
		if d := st.Damaged(); d > 0 {
			fmt.Fprintf(os.Stderr, "sweepd: merged %s (%d results; dropped %d damaged record(s): %d corrupt, %d key-mismatched, %d oversized)\n",
				src, len(results), d, st.Corrupt, st.KeyMismatch, st.Oversized)
		} else {
			fmt.Fprintf(os.Stderr, "sweepd: merged %s (%d results)\n", src, len(results))
		}
		merged++
	}
	if merged == 0 {
		cache.Close()
		return fmt.Errorf("nothing merged: all %d source journal(s) unreadable", skipped)
	}
	// Compact fails while the destination journal still holds results it
	// could not write — the strict signal that the merge did not land.
	if err := cache.Compact(); err != nil {
		return err
	}
	held := cache.Len()
	if err := cache.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweepd: %s now holds %d configurations (%d read, %d new, %d source(s) skipped)\n",
		dest, held, total, added, skipped)
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "sweepd:", err)
	os.Exit(1)
}
