package svc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/telemetry"
)

// Options configure a Server.
type Options struct {
	// Journal is the JSONL checkpoint path persisting the result cache
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
	// config identity, so traced results still serve untraced specs.
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
// compacted and closed.
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
// coalesces onto the existing job for that key or expands and schedules a
// new one. Every configuration is first looked up in the cache; misses go
// to the coordinator (joining any queued or running task for the same
// config).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec experiment.GridSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		bodyError(w, "spec", err)
		return
	}
	canonical, err := spec.Canonical()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	key, err := spec.Key()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	cfgs, err := spec.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	if len(cfgs) == 0 {
		httpError(w, http.StatusBadRequest, "spec expands to zero configurations")
		return
	}
	if s.opts.Audit {
		for i := range cfgs {
			cfgs[i].Audit = true
		}
	}
	if s.opts.Trace {
		for i := range cfgs {
			cfgs[i].Trace = true
		}
	}
	if s.opts.Fairness {
		for i := range cfgs {
			cfgs[i].Fairness = true
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	// A cancelled job is a tombstone, not an answer: re-POSTing the same
	// spec must start fresh work, so only live or completed jobs coalesce.
	if j, ok := s.jobs[key]; ok && j.State() != StateCancelled {
		s.mu.Unlock()
		s.jobsCoalesced.Add(1)
		writeStatus(w, http.StatusOK, j.Status())
		return
	}
	j := newJob(key, canonical, cfgs)
	j.onComplete = func(j *Job) {
		if st := j.Status(); st.Errored == 0 {
			// Successful sweep completion: fold the journal down to one
			// line per live config before it grows across jobs.
			if err := s.cache.Compact(); err != nil {
				logger().Error("journal compact failed", "err", err, "job", key)
			}
		}
	}
	s.jobs[key] = j
	s.mu.Unlock()

	// Fill from cache first, then schedule the misses. Scheduling happens
	// after job registration so a concurrent identical POST coalesces onto
	// this job instead of re-expanding.
	for i := range cfgs {
		if res, ok := s.cache.Get(j.keys[i]); ok {
			j.deliver(i, res, true)
		} else {
			s.coord.Enqueue(j.keys[i], cfgs[i], j, i)
		}
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
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	results, ok := j.Results()
	if !ok {
		st := j.Status()
		httpError(w, http.StatusConflict, "sweep not complete: state=%s done=%d/%d",
			st.State, st.Done, st.Total)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	experiment.WriteJSON(w, &experiment.ResultSet{Note: j.Spec.Note(), Results: results})
}

// handleTrace streams the completed job's telemetry as NDJSON: for each
// configuration that carries a trace, a header line naming the config
// (science key and human-readable ID) followed by the trace's own NDJSON
// encoding. ?config=<key> narrows the stream to one configuration. Results
// served from the journal-warmed cache carry no trace (traces live in
// memory only), so those configurations are silently absent; a stream with
// nothing to say is a 404 pointing at the -trace flag.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	results, ok := j.Results()
	if !ok {
		st := j.Status()
		httpError(w, http.StatusConflict, "sweep not complete: state=%s done=%d/%d",
			st.State, st.Done, st.Total)
		return
	}
	want := r.URL.Query().Get("config")
	flusher, _ := w.(http.Flusher)
	n := 0
	for i := range results {
		res := &results[i]
		if want != "" && want != j.keys[i] {
			continue
		}
		if res.Trace == nil {
			continue
		}
		if n == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		fmt.Fprintf(w, "{\"config\":%q,\"id\":%q}\n", j.keys[i], res.Config.ID())
		if err := telemetry.EncodeNDJSON(w, res.Trace); err != nil {
			return // client went away mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
	}
	if n == 0 {
		httpError(w, http.StatusNotFound,
			"no telemetry recorded for this sweep (start sweepd with -trace, or the results were served from the journal)")
	}
}

// handleFairness streams the completed job's fairness reports as NDJSON,
// one line per fairness-armed configuration:
//
//	{"config":"<science key>","id":"<human id>","fairness":{...}}
//
// ?config=<key> narrows the stream to one configuration. Results served
// from a cache populated by fairness-off runs carry no report, so those
// configurations are silently absent; a stream with nothing to say is a
// 404 pointing at the -fairness flag. cmd/sweep -fairness-out writes the
// same byte shape for offline diffing.
func (s *Server) handleFairness(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	results, ok := j.Results()
	if !ok {
		st := j.Status()
		httpError(w, http.StatusConflict, "sweep not complete: state=%s done=%d/%d",
			st.State, st.Done, st.Total)
		return
	}
	want := r.URL.Query().Get("config")
	flusher, _ := w.(http.Flusher)
	n := 0
	enc := json.NewEncoder(w)
	for i := range results {
		res := &results[i]
		if want != "" && want != j.keys[i] {
			continue
		}
		if res.Fairness == nil {
			continue
		}
		if n == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		line := experiment.FairnessLine{Config: j.keys[i], ID: res.Config.ID(), Fairness: res.Fairness}
		if err := enc.Encode(line); err != nil {
			return // client went away mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
		n++
	}
	if n == 0 {
		httpError(w, http.StatusNotFound,
			"no fairness reports recorded for this sweep (start sweepd with -fairness or set fairness in the spec, or the results were served from a fairness-off cache)")
	}
}

// handleReport renders the completed job through the cmd/report path
// (paper.Report): claim checklist, Table 3 comparison, and optionally the
// figure panels (?figures=0 to omit).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	results, ok := j.Results()
	if !ok {
		st := j.Status()
		httpError(w, http.StatusConflict, "sweep not complete: state=%s done=%d/%d",
			st.State, st.Done, st.Total)
		return
	}
	md := paper.Report(experiment.Summarize(results), paper.ReportOptions{
		Note:           j.Spec.Note(),
		IncludeFigures: r.URL.Query().Get("figures") != "0",
		FCTMatrix:      experiment.HarmFCTMatrix(results),
		FairnessTable:  experiment.FairnessTable(results),
	})
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	w.Write([]byte(md))
}
