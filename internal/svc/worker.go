package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/failpoint"
)

// WorkerOptions configure a cluster worker (sweepd -join).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8422".
	Coordinator string
	// Name labels the worker in coordinator logs and metrics (default
	// "host:pid").
	Name string
	// Parallel is how many configurations simulate concurrently (0 =
	// GOMAXPROCS).
	Parallel int
	// Journal optionally persists a worker-local result cache: a restarted
	// worker re-leased a configuration it already simulated serves it from
	// its journal instead of re-running it, and sweepd -merge can fold
	// worker journals into a coordinator journal offline.
	Journal string
	// Heartbeat overrides the coordinator-suggested heartbeat interval
	// (0 = accept the coordinator's).
	Heartbeat time.Duration
	// HTTP overrides the transport (nil = a fresh http.Client). Tests
	// inject partition-simulating transports here.
	HTTP *http.Client
	// Run overrides the simulation function (nil = experiment.RunOne).
	// Tests inject instrumented or gated runners.
	Run func(experiment.Config) experiment.Result
	// Logf receives progress lines (nil = stderr).
	Logf func(format string, args ...any)
	// Retry overrides the RPC backoff schedule (zero value = package
	// default).
	Retry retryPolicy
}

// Worker is the execution half of the cluster split: it registers with the
// coordinator, heartbeats, pulls leased batches of configurations, runs
// them through the same hardened experiment.RunOne path a single node's
// in-process workers use, and uploads each result as it lands. Every RPC
// goes through the shared retry helper (jittered exponential backoff under
// per-attempt deadlines), uploads are idempotent (keyed by Config.Key()
// coordinator-side), and a context cancellation drains gracefully: in-flight
// simulations finish and upload, unstarted lease work is released back to
// the coordinator so it reschedules immediately instead of waiting out the
// lease TTL.
type Worker struct {
	opts  WorkerOptions
	cache *Cache
	hc    *http.Client
	run   func(experiment.Config) experiment.Result

	mu sync.Mutex
	id string // current registration; replaced on re-register after a partition
	hb time.Duration
	rp retryPolicy // capped to half the lease TTL at registration

	// Counters, exposed for tests and the shutdown log line.
	sims      atomic.Uint64 // configurations actually simulated
	cacheHits atomic.Uint64 // lease entries served from the worker-local journal
	uploads   atomic.Uint64 // accepted uploads
	dupes     atomic.Uint64 // uploads the coordinator already had
	released  atomic.Uint64 // configs handed back on graceful drain
}

// NewWorker opens the worker-local journal (if any) and prepares a worker;
// Run does the registering.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	cache, err := OpenCache(opts.Journal)
	if err != nil {
		return nil, err
	}
	w := &Worker{opts: opts, cache: cache, run: opts.Run, rp: opts.Retry, hc: opts.HTTP}
	if w.run == nil {
		w.run = experiment.RunOne
	}
	if w.rp.Attempts == 0 {
		w.rp = defaultRetry
	}
	if w.hc == nil {
		w.hc = &http.Client{}
	}
	if w.opts.Name == "" {
		host, _ := os.Hostname()
		w.opts.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if w.opts.Parallel <= 0 {
		w.opts.Parallel = runtime.GOMAXPROCS(0)
	}
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "sweepd-worker: "+format+"\n", args...)
}

func (w *Worker) url(path string) string {
	return strings.TrimRight(w.opts.Coordinator, "/") + path
}

// policy snapshots the current retry policy (registration may shrink it).
func (w *Worker) policy() retryPolicy {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rp
}

// post runs one coordinator RPC under the retry policy.
func (w *Worker) post(ctx context.Context, op, path string, in, out any) error {
	return w.policy().do(ctx, op, func(ctx context.Context) error {
		return postJSON(ctx, w.hc, w.url(path), in, out)
	})
}

// register (re-)registers the worker, updating its identity and adopting
// the coordinator's heartbeat interval unless overridden.
func (w *Worker) register(ctx context.Context) error {
	var resp registerResponse
	if err := w.post(ctx, "register", "/v1/workers", registerRequest{Name: w.opts.Name}, &resp); err != nil {
		return err
	}
	w.mu.Lock()
	w.id = resp.WorkerID
	w.hb = time.Duration(resp.HeartbeatNS)
	if w.opts.Heartbeat > 0 {
		w.hb = w.opts.Heartbeat
	}
	if w.hb <= 0 {
		w.hb = 3 * time.Second
	}
	if ttl := time.Duration(resp.LeaseTTLNS); ttl > 0 {
		// A retry storm must never outlive our own lease: an upload still
		// backing off past the TTL would hand the config to a second worker
		// while this one eventually lands it too (harmless — uploads are
		// idempotent — but wasteful). Half the TTL leaves the attempts
		// themselves room under the other half.
		w.rp = w.rp.capTotal(ttl / 2)
	}
	w.mu.Unlock()
	w.logf("registered as %s (heartbeat %v, lease TTL %v)", resp.WorkerID,
		time.Duration(resp.HeartbeatNS), time.Duration(resp.LeaseTTLNS))
	return nil
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// isNotFound matches the coordinator's "unknown worker" responses, which
// mean this worker was reaped (partition, coordinator restart) and must
// re-register rather than retry. Transport errors never match.
func isNotFound(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusNotFound
}

// Run drives the worker until ctx is cancelled: register, heartbeat in the
// background, then loop acquiring and working leases. On cancellation it
// finishes in-flight simulations, uploads their results, releases the rest
// of the lease, says goodbye, and closes the local journal. The returned
// error is nil on a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.registerLoop(ctx); err != nil {
		return err
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go w.heartbeatLoop(hbStop, hbDone)
	defer func() {
		close(hbStop)
		<-hbDone
		w.release("", true)
		if err := w.cache.Close(); err != nil {
			w.logf("journal close: %v", err)
		}
		w.logf("drained: %d simulated, %d journal hits, %d uploaded (%d duplicate), %d released",
			w.sims.Load(), w.cacheHits.Load(), w.uploads.Load(), w.dupes.Load(), w.released.Load())
	}()

	for {
		if ctx.Err() != nil {
			return nil
		}
		var lr leaseResponse
		err := w.post(ctx, "lease", "/v1/workers/"+w.workerID()+"/lease", leaseRequest{}, &lr)
		if isNotFound(err) {
			if err := w.registerLoop(ctx); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.logf("lease: %v (backing off)", err)
			if !sleepCtx(ctx, jitter(w.policy().Max)) {
				return nil
			}
			continue
		}
		if len(lr.Configs) == 0 {
			wait := time.Duration(lr.RetryAfterNS)
			if wait <= 0 {
				wait = time.Second
			}
			if !sleepCtx(ctx, jitter(wait)) {
				return nil
			}
			continue
		}
		w.workLease(ctx, lr)
	}
}

// registerLoop retries registration with backoff until it lands or ctx is
// cancelled — a worker started before its coordinator, or re-joining after
// a partition, keeps knocking.
func (w *Worker) registerLoop(ctx context.Context) error {
	for {
		err := w.register(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("register: %v (backing off)", err)
		if !sleepCtx(ctx, jitter(w.policy().Max)) {
			return ctx.Err()
		}
	}
}

// heartbeatLoop renews the worker's liveness (and, coordinator-side, its
// lease deadlines) until stopped. A 404 means the coordinator forgot us —
// reaped during a partition or restarted — so re-register under a fresh
// identity; the old leases are already re-queued and any uploads still in
// flight are accepted idempotently.
func (w *Worker) heartbeatLoop(stop, done chan struct{}) {
	defer close(done)
	for {
		w.mu.Lock()
		hb := w.hb
		w.mu.Unlock()
		select {
		case <-stop:
			return
		case <-time.After(hb):
		}
		ctx, cancel := context.WithTimeout(context.Background(), hb)
		err := w.post(ctx, "heartbeat", "/v1/workers/"+w.workerID()+"/heartbeat", struct{}{}, &struct{}{})
		cancel()
		if isNotFound(err) {
			ctx, cancel := context.WithTimeout(context.Background(), hb)
			if rerr := w.register(ctx); rerr != nil {
				w.logf("re-register after heartbeat 404: %v", rerr)
			}
			cancel()
		} else if err != nil {
			w.logf("heartbeat: %v", err)
		}
	}
}

// workLease runs one lease: configurations fan out over Parallel
// goroutines, each result is journaled locally and uploaded immediately
// (so stealing the lease tail never steals finished work), and on ctx
// cancellation the undispatched remainder is released back to the
// coordinator.
func (w *Worker) workLease(ctx context.Context, lr leaseResponse) {
	sem := make(chan struct{}, w.opts.Parallel)
	var wg sync.WaitGroup
	var i int
	for i = 0; i < len(lr.Configs); i++ {
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		if ctx.Err() != nil {
			break
		}
		cfg := lr.Configs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			w.runOne(cfg, lr.LeaseID)
		}()
	}
	wg.Wait()
	if i < len(lr.Configs) {
		// Drained mid-lease: hand the unstarted tail back so the
		// coordinator reschedules it now, not after the TTL.
		w.release(lr.LeaseID, false)
	}
}

// runOne produces and uploads one result: worker-local journal first (a
// restarted worker never re-simulates what it already has), simulation
// otherwise. Uploads always run under a background deadline — results must
// reach the coordinator even while the worker is shutting down.
func (w *Worker) runOne(cfg experiment.Config, leaseID string) {
	key := cfg.Key()
	var res experiment.Result
	if e, ok := w.cache.Get(key); ok {
		res = e.Result
		w.cacheHits.Add(1)
	} else if ferr := failpoint.InjectCtx("worker.run", cfg.ID()); ferr != nil {
		// Injected simulation failure (the poison-config chaos hook; the
		// exit action never returns). Errored results upload but never cache.
		res = experiment.Result{Config: cfg.Recorded(), Error: ferr.Error()}
	} else {
		res = w.run(cfg)
		w.sims.Add(1)
		w.cache.Put(res) // never fails: a result the journal cannot take yet stays served from memory
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var ur uploadResponse
	if err := w.post(ctx, "upload", "/v1/workers/"+w.workerID()+"/results",
		uploadRequest{LeaseID: leaseID, Result: res}, &ur); err != nil {
		// The lease will expire and the config re-queue; our journal keeps
		// the result so a re-lease of it here is a cache hit.
		w.logf("upload %s: %v", res.Config.ID(), err)
		return
	}
	if ur.Duplicate {
		w.dupes.Add(1)
	} else {
		w.uploads.Add(1)
	}
}

// release hands lease work back to the coordinator: one lease's unworked
// remainder (the coordinator computes it: everything not yet uploaded), or
// with bye everything still held, deregistering the worker so a gracefully
// stopped worker never triggers the expiry path. The two are the rpc
// failpoint's "release" and "goodbye" ops.
func (w *Worker) release(leaseID string, bye bool) {
	op := "release"
	if bye {
		op = "goodbye"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp releaseResponse
	if err := w.post(ctx, op, "/v1/workers/"+w.workerID()+"/release",
		releaseRequest{LeaseID: leaseID, Bye: bye}, &resp); err != nil {
		w.logf("%s: %v (the coordinator will take the work back on expiry)", op, err)
		return
	}
	w.released.Add(uint64(resp.Requeued))
}

// sleepCtx sleeps for d unless ctx ends first, reporting whether the sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
