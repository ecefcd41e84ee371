package svc

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/failpoint"
)

func TestWorstBackoff(t *testing.T) {
	cases := []struct {
		rp   retryPolicy
		want time.Duration
	}{
		{retryPolicy{Attempts: 1, Base: time.Second}, 0},
		{retryPolicy{Attempts: 4, Base: 100 * time.Millisecond, Max: 2 * time.Second}, 700 * time.Millisecond},
		{retryPolicy{Attempts: 4, Base: 100 * time.Millisecond, Max: 150 * time.Millisecond}, 400 * time.Millisecond},
		{retryPolicy{Attempts: 3, Base: time.Second}, 3 * time.Second}, // uncapped: 1s + 2s
	}
	for _, c := range cases {
		if got := c.rp.worstBackoff(); got != c.want {
			t.Errorf("worstBackoff(%+v) = %v, want %v", c.rp, got, c.want)
		}
	}
}

func TestCapTotalFitsBudget(t *testing.T) {
	for _, budget := range []time.Duration{time.Millisecond, 10 * time.Millisecond,
		100 * time.Millisecond, time.Second, 7500 * time.Millisecond} {
		rp := defaultRetry.capTotal(budget)
		if got := rp.worstBackoff(); got > budget {
			t.Errorf("capTotal(%v): worstBackoff = %v, exceeds budget", budget, got)
		}
		if rp.Attempts < 1 {
			t.Errorf("capTotal(%v): Attempts = %d, want >= 1", budget, rp.Attempts)
		}
	}
	// A policy already inside the budget is untouched.
	if got := defaultRetry.capTotal(time.Hour); got != defaultRetry {
		t.Errorf("capTotal(1h) altered an in-budget policy: %+v", got)
	}
}

// TestDefaultRetryUnderDefaultLeaseTTL pins the invariant the cluster
// depends on: a full retry storm under the default policy backs off for
// less than the default lease TTL, so a retrying worker cannot outlive its
// own lease even before registration caps the policy.
func TestDefaultRetryUnderDefaultLeaseTTL(t *testing.T) {
	ttl := ClusterOptions{}.withDefaults().LeaseTTL
	if wb := defaultRetry.worstBackoff(); wb >= ttl {
		t.Fatalf("defaultRetry worst-case backoff %v >= default lease TTL %v", wb, ttl)
	}
}

// TestRetryStormBackoffBoundedAndJittered drives the shared retry loop
// through a full injected 5xx-style storm (every attempt fails via the rpc
// failpoint) and verifies each recorded sleep is the jittered exponential
// schedule — within [d/2, d] of the capped ideal delay — and that the total
// stays under half the lease TTL after capTotal.
func TestRetryStormBackoffBoundedAndJittered(t *testing.T) {
	var mu sync.Mutex
	var delays []time.Duration
	old := retrySleep
	retrySleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
		return nil
	}
	defer func() { retrySleep = old }()
	if err := failpoint.Enable("rpc=err(injected storm)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	ttl := ClusterOptions{}.withDefaults().LeaseTTL
	rp := defaultRetry.capTotal(ttl / 2)
	err := rp.do(context.Background(), "upload", func(ctx context.Context) error {
		t.Fatal("f ran during a total storm")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "injected storm") {
		t.Fatalf("storm error = %v, want the injected failure", err)
	}
	if len(delays) != rp.Attempts-1 {
		t.Fatalf("recorded %d backoff sleeps, want %d (attempts-1)", len(delays), rp.Attempts-1)
	}
	var total, ideal time.Duration
	next := rp.Base
	for i, d := range delays {
		want := next
		if rp.Max > 0 && want > rp.Max {
			want = rp.Max
		}
		if d < want/2 || d > want {
			t.Errorf("sleep %d = %v outside jitter bounds [%v, %v]", i, d, want/2, want)
		}
		total += d
		ideal += want
		next *= 2
	}
	if wb := rp.worstBackoff(); ideal != wb {
		t.Errorf("schedule sums to %v, want worstBackoff %v", ideal, wb)
	}
	if total > ttl/2 {
		t.Errorf("total backoff %v exceeds half the lease TTL %v", total, ttl/2)
	}
}

// TestRetryFailpointMatchesOpName: the rpc failpoint's arg filter selects
// individual operations, so chaos runs can storm uploads while heartbeats
// stay healthy.
func TestRetryFailpointMatchesOpName(t *testing.T) {
	if err := failpoint.Enable("rpc=err(upload down)@arg=upload"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	rp := retryPolicy{Attempts: 1}
	if err := rp.do(context.Background(), "heartbeat", func(ctx context.Context) error { return nil }); err != nil {
		t.Fatalf("heartbeat hit the upload-only failpoint: %v", err)
	}
	err := rp.do(context.Background(), "upload", func(ctx context.Context) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "upload down") {
		t.Fatalf("upload err = %v, want the injected failure", err)
	}
}

// TestTransportErrorBacksOffNotReregisters: a refused connection is a
// transport error, not the coordinator's "unknown worker" 404 — even when
// its URL carries "404" (here the worker ID w404). The worker must back off
// and retry the lease under its registration instead of re-registering,
// which would strand its old leases until they expire against their
// configs' retry budget.
func TestTransportErrorBacksOffNotReregisters(t *testing.T) {
	var registers, leases atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		registers.Add(1)
		writeJSON(w, http.StatusOK, registerResponse{WorkerID: "w404",
			HeartbeatNS: int64(time.Hour), LeaseTTLNS: int64(time.Minute)})
	})
	mux.HandleFunc("POST /v1/workers/{id}/release", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, releaseResponse{})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasSuffix(r.URL.Path, "/lease") {
			leases.Add(1)
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
		}
		return http.DefaultTransport.RoundTrip(r)
	})}

	drain := startWorker(t, WorkerOptions{Coordinator: hs.URL, HTTP: hc, Run: fakeRun})
	waitFor(t, "lease retries", func() bool { return leases.Load() >= 6 })
	drain()
	if n := registers.Load(); n != 1 {
		t.Fatalf("worker registered %d times across refused lease calls, want 1", n)
	}

	// A genuine 404 from the coordinator still means "re-register".
	err := postJSON(context.Background(), hs.Client(), hs.URL+"/v1/workers/w404/heartbeat", struct{}{}, nil)
	if !isNotFound(err) {
		t.Fatalf("404 response not recognised: %v", err)
	}
}

// TestWorkerRegistrationCapsRetry: registering against a coordinator with a
// short lease TTL must shrink the worker's retry policy until a full storm
// fits inside half the TTL.
func TestWorkerRegistrationCapsRetry(t *testing.T) {
	ttl := 800 * time.Millisecond
	_, _, url := newClusterServer(t, ClusterOptions{LeaseTTL: ttl}, Options{})
	w, err := NewWorker(WorkerOptions{Coordinator: url, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if wb := w.policy().worstBackoff(); wb <= ttl/2 {
		t.Fatalf("precondition: default policy backoff %v already fits %v; test proves nothing", wb, ttl/2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.register(ctx); err != nil {
		t.Fatal(err)
	}
	if wb := w.policy().worstBackoff(); wb > ttl/2 {
		t.Errorf("post-registration worst-case backoff %v exceeds half the lease TTL (%v)", wb, ttl/2)
	}
}
