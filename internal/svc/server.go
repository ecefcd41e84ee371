package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// Journal is the checkpoint journal path persisting the result cache
	// ("" = memory only).
	Journal string
	// Shards is how many in-process workers simulate on a single node (0 =
	// GOMAXPROCS). Coordinator mode starts none: joined workers simulate.
	Shards int
	// Audit arms the runtime invariant auditor on every configuration the
	// daemon simulates, regardless of the submitted spec. Audit is excluded
	// from config identity (auditing is observation-only and proven
	// byte-identical), so forced-audit results still serve unaudited specs.
	Audit bool
	// Trace arms the flight-recorder telemetry tracer on every configuration
	// the daemon simulates, making GET /v1/sweeps/{id}/trace serve event
	// timelines. Like Audit, tracing is observation-only and excluded from
	// config identity, so traced results still serve untraced specs. It is
	// single-node only: New refuses it with Cluster, since a worker's
	// uploaded result carries no trace.
	Trace bool
	// Fairness arms the fairness observatory (windowed Jain/share series,
	// convergence and starvation detectors) on every configuration the
	// daemon simulates, making GET /v1/sweeps/{id}/fairness serve the
	// per-config reports. Like Audit and Trace, the sampler is
	// observation-only and excluded from config identity, so fairness-armed
	// results still serve plain specs (and vice versa: cached plain results
	// simply lack the block).
	Fairness bool
	// Pprof mounts net/http/pprof under /debug/pprof/ (default off: the
	// profiler exposes heap contents and should not face untrusted clients).
	Pprof bool
	// Cluster switches the daemon into coordinator mode: instead of
	// in-process workers, workers that joined over HTTP (sweepd -join)
	// lease the cache misses. The submit/stream/results API is unchanged;
	// only where the simulations run differs.
	Cluster *ClusterOptions
}

// maxBodyBytes caps every POST body the service reads, answering 413 past
// it. It is twice the journal's 16 MiB record cap, so any result the
// journal can hold also fits in a worker upload.
const maxBodyBytes = 32 << 20

// Server is the sweep service: job registry, content-addressed cache, and
// the coordinator that schedules cache misses, behind an http.Handler.
type Server struct {
	opts  Options
	cache *Cache
	coord *Coordinator

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	jobsCoalesced atomic.Uint64 // POSTs answered by an existing job
}

// New opens the cache (warm from the journal, if any) and starts the
// coordinator, with Options.Shards in-process workers unless it runs in
// coordinator mode.
func New(opts Options) (*Server, error) {
	if opts.Trace && opts.Cluster != nil {
		return nil, errors.New("svc: Trace is single-node only: a joined worker's upload carries no trace")
	}
	cache, err := OpenCache(opts.Journal)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, cache: cache, jobs: make(map[string]*Job)}
	if opts.Cluster != nil {
		s.coord = NewCoordinator(*opts.Cluster, cache)
	} else {
		s.coord = NewCoordinator(ClusterOptions{}, cache)
		s.coord.startLocal(opts.Shards)
	}
	return s, nil
}

// Close gracefully shuts the service down: running configurations drain
// (and reach the journal), queued ones are failed, and the journal is
// compacted (rewritten only if it holds stale lines) and closed.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.coord.Close()
	cerr := s.cache.Compact()
	if err := s.cache.Close(); err != nil {
		return err
	}
	return cerr
}

// Handler returns the service's HTTP API. Every POST body is capped at
// maxBodyBytes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/sweeps/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/sweeps/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/sweeps/{id}/fairness", s.handleFairness)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if degraded, overflow, errs, lastErr := s.cache.Degraded(); degraded {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: journal unavailable (%d results in memory overflow, %d journal errors, last: %s)\n",
				overflow, errs, lastErr)
			return
		}
		w.Write([]byte("ok\n"))
	})
	if s.opts.Cluster != nil {
		mux.HandleFunc("POST /v1/workers", s.coord.handleRegister)
		mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.coord.handleHeartbeat)
		mux.HandleFunc("POST /v1/workers/{id}/lease", s.coord.handleLease)
		mux.HandleFunc("POST /v1/workers/{id}/results", s.coord.handleUpload)
		mux.HandleFunc("POST /v1/workers/{id}/release", s.coord.handleRelease)
	}
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		mux.ServeHTTP(w, r)
	})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// bodyError answers a request body that failed to decode: 413 when it ran
// past maxBodyBytes, 400 otherwise.
func bodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooBig.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad %s: %v", what, err)
}

// handleSubmit accepts a GridSpec, content-addresses it, and either
// coalesces onto the existing job for that key or plans and schedules a
// new one, handing each configuration to the coordinator, which serves it
// from the cache or joins or opens its task. A faults, topo or flows value
// naming an @file is refused before anything parses it: the path would be
// opened on the server, so @file specs are the client's to resolve
// (Client.Submit sends the canonical spec, which carries the file's
// contents).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec experiment.GridSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		bodyError(w, "spec", err)
		return
	}
	for _, f := range [...]struct{ name, v string }{{"faults", spec.Faults}, {"topo", spec.Topo}, {"flows", spec.Flows}} {
		if strings.HasPrefix(strings.TrimSpace(f.v), "@") {
			httpError(w, http.StatusBadRequest,
				"invalid spec: %s: @file specs are resolved by the client; submit the file's contents", f.name)
			return
		}
	}
	plan, err := spec.Plan()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	if len(plan.Configs) == 0 {
		httpError(w, http.StatusBadRequest, "spec expands to zero configurations")
		return
	}
	for i := range plan.Configs {
		c := &plan.Configs[i]
		c.Audit = c.Audit || s.opts.Audit
		c.Trace = c.Trace || s.opts.Trace
		c.Fairness = c.Fairness || s.opts.Fairness
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	// A cancelled job is a tombstone, not an answer: re-POSTing the same
	// spec must start fresh work, so only live or completed jobs coalesce.
	if j, ok := s.jobs[plan.Key]; ok && j.State() != StateCancelled {
		s.mu.Unlock()
		s.jobsCoalesced.Add(1)
		writeStatus(w, http.StatusOK, j.Status())
		return
	}
	j := newJob(plan)
	s.jobs[plan.Key] = j
	s.mu.Unlock()

	// Scheduling happens after job registration so a concurrent identical
	// POST coalesces onto this job instead of re-planning.
	for i, cfg := range plan.Configs {
		s.coord.Enqueue(j.keys[i], cfg, j, i)
	}
	writeStatus(w, http.StatusAccepted, j.Status())
}

func writeStatus(w http.ResponseWriter, code int, st Status) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(st)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return nil
	}
	return j
}

// completedJob returns the request's job and its entries once the sweep
// has completed, answering 404 for an unknown job and 409 for one still in
// flight (and returning a nil job) otherwise.
func (s *Server) completedJob(w http.ResponseWriter, r *http.Request) (*Job, []*experiment.Entry) {
	j := s.job(w, r)
	if j == nil {
		return nil, nil
	}
	entries, ok := j.Entries()
	if !ok {
		st := j.Status()
		httpError(w, http.StatusConflict, "sweep not complete: state=%s done=%d/%d",
			st.State, st.Done, st.Total)
		return nil, nil
	}
	return j, entries
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeStatus(w, http.StatusOK, j.Status())
	}
}

// handleEvents streams the job's progress as NDJSON, one line per completed
// configuration: full replay for late subscribers, then live events until
// the job finishes. When the last subscriber disconnects from a job still
// in flight, the job's remaining work is cancelled (configurations other
// jobs still want keep running).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	ch, replay := j.Subscribe()
	enc := json.NewEncoder(w)
	for _, ev := range replay {
		enc.Encode(ev)
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case ev := <-ch:
			enc.Encode(ev)
			if flusher != nil {
				flusher.Flush()
			}
		case <-j.Finished():
			// Drain events that raced with completion, then end the stream.
			for {
				select {
				case ev := <-ch:
					enc.Encode(ev)
				default:
					j.Unsubscribe(ch)
					if flusher != nil {
						flusher.Flush()
					}
					return
				}
			}
		case <-r.Context().Done():
			if remaining, inFlight := j.Unsubscribe(ch); remaining == 0 && inFlight {
				s.coord.ReleaseJob(j, j.Cancel())
			}
			return
		}
	}
}

// handleResults serves the completed job as an experiment.ResultSet in
// canonical grid order with the spec's deterministic provenance note —
// byte-identical to what cmd/sweep -out writes for the same spec (modulo
// the wall_ns timing fields, which measure the machine, not the science).
// Each slot's entry encodes its result once, on the first fetch of any job
// holding it; every fetch splices those bytes. A result that cannot be
// encoded is a 500 naming its config, answered before any byte is sent.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, entries := s.completedJob(w, r)
	if j == nil {
		return
	}
	elems := make([][]byte, len(entries))
	for i, e := range entries {
		elem, err := e.Element()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		elems[i] = elem
	}
	w.Header().Set("Content-Type", "application/json")
	_ = experiment.WriteSet(w, j.note, elems) // a failed write means the client went away
}

// streamPerConfig streams a completed job as NDJSON, one record per
// configuration: write renders a result's record under its science key and
// the job's ID for it, or reports false without writing when the result
// lacks the artifact. ?config=<key> narrows the stream to one
// configuration. A stream with nothing to say is a 404 whose message is
// missing.
func (s *Server) streamPerConfig(w http.ResponseWriter, r *http.Request, missing string,
	write func(w io.Writer, key, id string, res *experiment.Result) (bool, error)) {
	j, entries := s.completedJob(w, r)
	if j == nil {
		return
	}
	want := r.URL.Query().Get("config")
	flusher, _ := w.(http.Flusher)
	// The first record's write sends the 200; the 404 overrides the type.
	w.Header().Set("Content-Type", "application/x-ndjson")
	n := 0
	for i, e := range entries {
		if want != "" && want != j.keys[i] {
			continue
		}
		wrote, err := write(w, j.keys[i], j.ids[i], &e.Result)
		if err != nil {
			return // client went away mid-stream
		}
		if !wrote {
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
	}
	if n == 0 {
		httpError(w, http.StatusNotFound, "%s", missing)
	}
}

// handleTrace streams the completed job's telemetry: for each configuration
// that carries a trace, a header line naming the config (science key and
// human-readable ID) followed by the trace's own NDJSON encoding. Results
// served from the journal-warmed cache carry no trace (traces live in
// memory only), so those configurations are silently absent.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.streamPerConfig(w, r,
		"no telemetry recorded for this sweep (start a single-node sweepd with -trace, or the results were served from the journal)",
		func(w io.Writer, key, id string, res *experiment.Result) (bool, error) {
			if res.Trace == nil {
				return false, nil
			}
			if err := json.NewEncoder(w).Encode(telemetry.StreamHeader{Config: key, ID: id}); err != nil {
				return true, err
			}
			return true, telemetry.EncodeNDJSON(w, res.Trace)
		})
}

// handleFairness streams the completed job's fairness reports, one line per
// fairness-armed configuration:
//
//	{"config":"<science key>","id":"<human id>","fairness":{...}}
//
// Results served from a cache populated by fairness-off runs carry no
// report, so those configurations are silently absent. cmd/sweep
// -fairness-out writes the same byte shape for offline diffing.
func (s *Server) handleFairness(w http.ResponseWriter, r *http.Request) {
	s.streamPerConfig(w, r,
		"no fairness reports recorded for this sweep (start sweepd with -fairness or set fairness in the spec, or the results were served from a fairness-off cache)",
		func(w io.Writer, key, id string, res *experiment.Result) (bool, error) {
			if res.Fairness == nil {
				return false, nil
			}
			line := experiment.FairnessLine{Config: key, ID: id, Fairness: res.Fairness}
			return true, json.NewEncoder(w).Encode(line)
		})
}

// handleReport renders the completed job through the cmd/report path
// (paper.Report): claim checklist, Table 3 comparison, and optionally the
// figure panels (?figures=0 to omit).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, entries := s.completedJob(w, r)
	if j == nil {
		return
	}
	results := make([]experiment.Result, len(entries))
	for i, e := range entries {
		results[i] = e.Result
	}
	md := paper.Report(results, paper.ReportOptions{
		Note:           j.note,
		IncludeFigures: r.URL.Query().Get("figures") != "0",
	})
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	w.Write([]byte(md))
}
