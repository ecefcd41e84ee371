package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/flows"
	"repro/internal/svc"
	"repro/internal/units"
)

// sizes scales every workload. The full profile is the benchmark; smoke is
// the tiny profile bench_test.go runs so `go test` guards names and checks.
type sizes struct {
	elephantsDur time.Duration // simulated time of each 25 Gbps run
	gridDur      time.Duration // simulated time of each 1 Gbps grid cell
	miceDur      time.Duration // simulated time of each churn run
	miceSeeds    int
	sweep        experiment.GridSpec
	resubmits    int     // warm-phase resubmits per repetition
	warmFrac     float64 // share of the configs the warm-up pass runs
	setupPasses  int     // set-ups per run; setup_s is their median
	minReps      int
	layerScale   int // divisor applied to the layer drivers' op counts
}

var fullSizes = sizes{
	elephantsDur: 1500 * time.Millisecond,
	gridDur:      2 * time.Second,
	miceDur:      5 * time.Second,
	miceSeeds:    5,
	sweep:        experiment.GridSpec{Bandwidths: "100Mbps", Duration: "300ms", Seeds: 8},
	resubmits:    20,
	warmFrac:     0.125,
	setupPasses:  3,
	minReps:      3,
	layerScale:   1,
}

var smokeSizes = sizes{
	// Nothing is delivered before the first 62 ms round trip ends.
	elephantsDur: 150 * time.Millisecond,
	gridDur:      150 * time.Millisecond,
	miceDur:      300 * time.Millisecond,
	miceSeeds:    1,
	sweep:        experiment.GridSpec{Bandwidths: "100Mbps", Duration: "200ms", Seeds: 1, Configs: 12},
	resubmits:    2,
	warmFrac:     0.125,
	setupPasses:  1,
	minReps:      1,
	layerScale:   200,
}

// counts are the exact, seed-determined totals of one repetition.
type counts struct {
	Configs     int     `json:"configs"`
	Flows       int     `json:"flows"`
	SimSeconds  float64 `json:"sim_seconds"`
	Segments    float64 `json:"segments"`
	Events      uint64  `json:"events"`
	Retransmits uint64  `json:"retransmits"`
}

func (c *counts) add(res experiment.Result) {
	c.Configs++
	c.Flows += res.Flows
	if res.FCT != nil {
		c.Flows += res.FCT.Completed
	}
	c.SimSeconds += res.SimSeconds
	c.Segments += deliveredSegments(res)
	c.Events += res.Events
	c.Retransmits += res.TotalRetransmits
}

// ops counts operations attempted and failed. An operation is one config
// run, one HTTP call, or one correctness check.
type ops struct {
	attempted, failed int
	failures          []string
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// rep is one timed repetition of a workload. The simulator workloads fill
// only direct; sweepd-grid-100m fills all four phases.
type rep struct {
	direct, cold, warm, cluster section
	counts                      counts
	coldConfigs, warmConfigs    int
	clusterConfigs              int
	firstEventMS                []float64 // warm phase: Submit to first NDJSON event, wall
	results                     []experiment.Result
	hashes                      [][sha256.Size]byte
}

func (r *rep) record(results []experiment.Result) {
	r.results = results
	for _, res := range results {
		r.counts.add(res)
		r.hashes = append(r.hashes, resultHash(res))
	}
}

// inputs are what a workload generates from its seed: the configs to run
// and, for sweepd-grid-100m, the wire spec that expands to them.
type inputs struct {
	cfgs []experiment.Config
	spec *experiment.GridSpec
}

// runRep is a prepared workload: the inputs exist, the process is warm, and
// each call is one repetition of identical work.
type runRep func(o *ops) rep

// head is the first share of the inputs: what a warm-up pass runs.
func (in inputs) head(share float64) inputs {
	n := int(math.Ceil(share * float64(len(in.cfgs))))
	out := inputs{cfgs: in.cfgs[:n]}
	if in.spec != nil {
		spec := *in.spec
		spec.Configs = n
		out.spec = &spec
	}
	return out
}

type workload struct {
	workloadSpec
	// gen makes the inputs from the seed.
	gen func(seed uint64, sz sizes) inputs
}

func workloads() []workload {
	gens := []func(uint64, sizes) inputs{elephantInputs, gridInputs, miceInputs, sweepdInputs}
	ws := make([]workload, len(workloadSpecs))
	for i, s := range workloadSpecs {
		ws[i] = workload{s, gens[i]}
	}
	return ws
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepare is one set-up: generate the inputs and warm the process with the
// first configs of the same work, so pools fill, the heap grows, and (for
// sweepd) a journal is opened and a server started before anything is timed.
func (w workload) prepare(seed uint64, sz sizes, o *ops) runRep {
	in := w.gen(seed, sz)
	warm := in.head(sz.warmFrac)
	if in.spec == nil {
		runSerial(warm.cfgs, o)
		return func(o *ops) rep { return runSerial(in.cfgs, o) }
	}
	svc.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	sweepd{in: warm, resubmits: 1}.run(o)
	return sweepd{in: in, resubmits: sz.resubmits}.run
}

// elephantInputs is the paper's top tier: 25 Gbps, 62 ms, FIFO 2xBDP, 40
// flows; CUBIC alone, then BBRv1 against CUBIC.
func elephantInputs(seed uint64, sz sizes) inputs {
	var cfgs []experiment.Config
	for _, c1 := range []cca.Name{cca.Cubic, cca.BBRv1} {
		cfgs = append(cfgs, experiment.Config{
			Pairing:        experiment.Pairing{CCA1: c1, CCA2: cca.Cubic},
			AQM:            aqm.KindFIFO,
			QueueBDP:       2,
			Bottleneck:     25 * units.GigabitPerSec,
			Duration:       sz.elephantsDur,
			FlowsPerSender: 20,
			Seed:           seed,
		})
	}
	return inputs{cfgs: cfgs}
}

// gridInputs is 1 Gbps x {fifo, red, fq_codel} x five CCAs against CUBIC x
// a starved and a bloated buffer.
func gridInputs(seed uint64, sz sizes) inputs {
	var cfgs []experiment.Config
	for _, a := range aqm.Kinds() {
		for _, c1 := range []cca.Name{cca.Cubic, cca.Reno, cca.HTCP, cca.BBRv1, cca.BBRv2} {
			for _, q := range []float64{0.5, 16} {
				cfgs = append(cfgs, experiment.Config{
					Pairing:    experiment.Pairing{CCA1: c1, CCA2: cca.Cubic},
					AQM:        a,
					QueueBDP:   q,
					Bottleneck: units.GigabitPerSec,
					Duration:   sz.gridDur,
					Seed:       seed,
				})
			}
		}
	}
	return inputs{cfgs: cfgs}
}

// miceInputs is the solo FCT baseline under four Poisson populations on a
// 10 Gbps FQ-CoDel link, one run per seed. Arrivals are open loop inside
// the simulator: they are scheduled regardless of completions.
func miceInputs(seed uint64, sz sizes) inputs {
	var pops []flows.Population
	for _, c := range []cca.Name{cca.Cubic, cca.BBRv1, cca.Reno, cca.BBRv2} {
		pops = append(pops, flows.Population{
			Name:        string(c),
			MeanArrival: 2 * time.Millisecond,
			SizeP5:      16 * units.Kilobyte,
			SizeP95:     256 * units.Kilobyte,
			CCA:         c,
		})
	}
	var cfgs []experiment.Config
	for i := 0; i < sz.miceSeeds; i++ {
		cfgs = append(cfgs, experiment.Config{
			AQM:        aqm.KindFQCoDel,
			QueueBDP:   2,
			Bottleneck: 10 * units.GigabitPerSec,
			Duration:   sz.miceDur,
			Seed:       seed + uint64(i),
			Flows:      &flows.Spec{Populations: pops},
			SoloFCT:    true,
		})
	}
	return inputs{cfgs: cfgs}
}

// runSerial is the closed, deterministic batch the three simulator
// workloads time: each config through experiment.Run, one after another.
func runSerial(cfgs []experiment.Config, o *ops) rep {
	var r rep
	results := make([]experiment.Result, 0, len(cfgs))
	r.direct = timed(func() {
		for _, cfg := range cfgs {
			res, err := experiment.Run(cfg)
			o.check(err == nil && !res.Errored(), "run %s: %v %s", cfg.ID(), err, res.Error)
			results = append(results, res)
		}
	})
	r.record(results)
	return r
}

// service is an in-process sweepd behind a loopback HTTP listener, with the
// one client that generates all of its load.
type service struct {
	srv *svc.Server
	ts  *httptest.Server
	cl  *svc.Client
}

func startService(opts svc.Options) (*service, error) {
	srv, err := svc.New(opts)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: procs(), MaxIdleConnsPerHost: procs()}
	return &service{srv: srv, ts: ts, cl: &svc.Client{Base: ts.URL, HTTP: &http.Client{Transport: tr}}}, nil
}

func (s *service) close(o *ops) {
	s.ts.Close()
	err := s.srv.Close()
	o.check(err == nil, "server close: %v", err)
}

// job is what one pass through the service returned.
type job struct {
	status svc.Status
	body   []byte
	events int
	// Wall-clock latencies: Submit to the first NDJSON event, and each call.
	firstEvent, submit, stream, fetch time.Duration
}

// sweep takes the path a sweepd user takes, closed loop: submit the spec,
// follow the event stream to its end, fetch the result set.
func (s *service) sweep(spec experiment.GridSpec, o *ops) job {
	var j job
	t0 := time.Now()
	st, err := s.cl.Submit(spec)
	j.submit = time.Since(t0)
	o.check(err == nil, "submit: %v", err)
	if err != nil {
		return j
	}
	j.status = st
	t1 := time.Now()
	err = s.cl.Stream(context.Background(), st.ID, func(svc.Event) {
		if j.events == 0 {
			j.firstEvent = time.Since(t0)
		}
		j.events++
	})
	j.stream = time.Since(t1)
	o.check(err == nil && j.events == st.Total, "stream %s: %d of %d events, %v", st.ID, j.events, st.Total, err)
	t2 := time.Now()
	j.body, err = s.cl.Results(st.ID)
	j.fetch = time.Since(t2)
	o.check(err == nil, "results %s: %v", st.ID, err)
	return j
}

// checkBody verifies that a served result set is byte-identical, modulo
// wall_ns, to the first n results of the direct run.
func checkBody(what string, body []byte, want [][sha256.Size]byte, n int, o *ops) {
	rs, err := experiment.ReadJSON(bytes.NewReader(body))
	ok := err == nil && len(rs.Results) == n && n <= len(want)
	for i := 0; ok && i < n; i++ {
		ok = resultHash(rs.Results[i]) == want[i]
	}
	o.check(ok, "%s result set differs from the direct run (err=%v)", what, err)
}

// sweepdInputs makes the grid spec from the seed.
//
// The wire spec has no seed base (replica seeds are always 1..N), so the
// seed perturbs the simulated duration by seed mod 1000 microseconds: every
// config key, journal record and cache entry differs per seed while the
// work stays within 0.4%.
func sweepdInputs(seed uint64, sz sizes) inputs {
	spec := sz.sweep
	base, err := time.ParseDuration(spec.Duration)
	if err != nil {
		panic(err) // the profile's own constant
	}
	spec.Duration = (base + time.Duration(seed%1000)*time.Microsecond).String()
	cfgs, err := spec.Expand()
	if err != nil {
		panic(err)
	}
	return inputs{cfgs: cfgs, spec: &spec}
}

// sweepd is the four-phase repetition over a grid spec and the configs it
// expands to.
type sweepd struct {
	in        inputs
	resubmits int
}

// run is one repetition in a fresh temp dir: direct, cold, warm, cluster.
func (s sweepd) run(o *ops) rep {
	var r rep
	spec, cfgs, total := *s.in.spec, s.in.cfgs, len(s.in.cfgs)
	dir, err := os.MkdirTemp("", "bench-sweepd-")
	o.check(err == nil, "temp dir: %v", err)
	if err != nil {
		return r
	}
	defer os.RemoveAll(dir)

	// direct: the sweep CLI's path, journaling every result.
	ck, err := experiment.OpenCheckpoint(filepath.Join(dir, "direct.journal"))
	o.check(err == nil, "open journal: %v", err)
	if err != nil {
		return r
	}
	var results []experiment.Result
	r.direct = timed(func() {
		var rerr error
		results, rerr = experiment.RunAllOpts(cfgs, experiment.RunAllOptions{Workers: procs(), Checkpoint: ck, KeepGoing: true})
		cerr := ck.Close()
		o.check(rerr == nil && cerr == nil, "direct sweep: %v, journal close: %v", rerr, cerr)
	})
	for _, res := range results {
		o.check(!res.Errored(), "run %s: %s", res.Config.ID(), res.Error)
	}
	r.record(results)

	// cold: the same spec through a journaled server; every config simulates
	// and is written to the journal.
	sv, err := startService(svc.Options{Journal: filepath.Join(dir, "cold.journal"), Shards: procs()})
	o.check(err == nil, "start server: %v", err)
	if err != nil {
		return r
	}
	var cold job
	r.cold = timed(func() { cold = sv.sweep(spec, o) })
	r.coldConfigs = cold.status.Total
	o.check(cold.status.Cached == 0, "cold sweep served %d configs from cache", cold.status.Cached)
	checkBody("cold", cold.body, r.hashes, total, o)

	// warm: resubmits that differ only in Configs, so each is a new job
	// whose every config is a cache hit. One client, closed loop.
	var first, last job
	r.warm = timed(func() {
		for k := 1; k <= min(s.resubmits, total-1); k++ {
			sp := spec
			sp.Configs = total - k
			j := sv.sweep(sp, o)
			o.check(j.status.Cached == j.status.Total, "warm resubmit %d simulated %d configs", k, j.status.Simulated)
			r.warmConfigs += j.status.Total
			r.firstEventMS = append(r.firstEventMS, float64(j.firstEvent)/1e6)
			if k == 1 {
				first = j
			}
			last = j
		}
	})
	checkBody("first warm", first.body, r.hashes, first.status.Total, o)
	checkBody("last warm", last.body, r.hashes, last.status.Total, o)
	sv.close(o)

	// cluster: a coordinator on a fresh journal and one in-process worker.
	co, err := startCoordinator(filepath.Join(dir, "cluster.journal"))
	o.check(err == nil, "start coordinator: %v", err)
	if err != nil {
		return r
	}
	var cl job
	r.cluster, cl = clusterSweep(co, spec, o)
	r.clusterConfigs = cl.status.Total
	checkBody("cluster", cl.body, r.hashes, total, o)
	co.close(o)
	return r
}

// startCoordinator starts a sweepd in coordinator mode. The short heartbeat
// only bounds how long an idle worker sleeps before asking for work again.
func startCoordinator(journal string) (*service, error) {
	return startService(svc.Options{Journal: journal, Cluster: &svc.ClusterOptions{Heartbeat: 100 * time.Millisecond}})
}

// clusterSweep runs spec through a coordinator and one in-process worker,
// timing the sweep from submit to results.
func clusterSweep(co *service, spec experiment.GridSpec, o *ops) (section, job) {
	var j job
	w, err := svc.NewWorker(svc.WorkerOptions{Coordinator: co.ts.URL, Name: "bench", Parallel: procs(), Logf: func(string, ...any) {}})
	o.check(err == nil, "new worker: %v", err)
	if err != nil {
		return section{}, j
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	sec := timed(func() { j = co.sweep(spec, o) })
	cancel()
	werr := <-done
	o.check(werr == nil, "worker drain: %v", werr)
	return sec, j
}
