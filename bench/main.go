// Command bench is the repository's benchmark: four workloads, end-to-end
// metrics in process CPU time, per-layer drivers, and a traced run. See
// README.md in this directory for the glossary and how the numbers interact.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run (the driver's contract)
//	bench -seed N                                     every workload, both modes, in child processes
//	bench -traced                                     only the traced runs
//	bench -compare a.json b.json                      two result files side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// procs bounds every pool in the benchmark: GOMAXPROCS, sweep workers, pool
// shards and HTTP connections.
func procs() int { return min(runtime.NumCPU(), 4) }

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	smoke      bool
	traced     bool
	compare    bool
	outDir     string
	cpuProfile string
	memProfile string
}

func (o options) sizes() sizes {
	if o.smoke {
		return smokeSizes
	}
	return fullSizes
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "run one workload in this process (default: all four, each in a child process)")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed; reaches the program only through generated inputs")
	fs.IntVar(&opt.seconds, "seconds", 20, "how long one run measures")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run and per-layer metrics")
	fs.BoolVar(&opt.smoke, "smoke", false, "tiny durations and one repetition (what bench_test.go runs)")
	fs.BoolVar(&opt.traced, "traced", false, "with no -workload: run only the traced runs")
	fs.BoolVar(&opt.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	fs.StringVar(&opt.outDir, "outdir", filepath.Join("bench", "out"), "where result files and spans are written")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "with -workload: write a CPU profile of the run")
	fs.StringVar(&opt.memProfile, "memprofile", "", "with -workload: write a heap profile at the end of the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs())

	var err error
	switch {
	case opt.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case opt.workload != "":
		err = runOne(opt, stdout)
	default:
		err = runAll(opt, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// value is one metric of one run. End-to-end metrics taken per repetition
// carry the repetitions' quartiles and count beside the median.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is everything one run of one workload measured.
type report struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     int              `json:"trace"`
	Procs     int              `json:"procs"`
	Reps      int              `json:"reps"`
	Metrics   map[string]value `json:"metrics"`
	Counts    counts           `json:"counts"`         // exact for a seed
	Digest    string           `json:"science_digest"` // SHA-256 over the results' science bytes
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
}

// runOne runs one workload in this process and prints the report, ending
// with the one-line JSON object the driver reads.
func runOne(opt options, stdout io.Writer) error {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.cpuProfile != "" {
		f, err := os.Create(opt.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var rp report
	if opt.trace == 0 {
		rp = measure(w, opt)
	} else {
		var err error
		if rp, err = measureTraced(w, opt); err != nil {
			return err
		}
	}
	if opt.memProfile != "" {
		f, err := os.Create(opt.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if err := writeJSON(reportPath(opt, w.Name, opt.trace), rp); err != nil {
		return err
	}
	printReport(stdout, rp)
	return printContract(stdout, rp)
}

func reportPath(opt options, workload string, trace int) string {
	return filepath.Join(opt.outDir, fmt.Sprintf("%s.seed%d.trace%d.json", workload, opt.seed, trace))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measure takes the end-to-end metrics with tracing off: set up several
// times, then repeat the workload's fixed work until the time is used up.
func measure(w workload, opt options) report {
	sz, o := opt.sizes(), &ops{}
	var rep1 runRep
	var setups []float64
	for i := 0; i < sz.setupPasses; i++ {
		c0 := cpuTime()
		if i == 0 {
			c0 = 0 // the first set-up is charged from process start
		}
		rep1 = w.prepare(opt.seed, sz, o)
		setups = append(setups, (cpuTime() - c0).Seconds())
	}

	var reps []rep
	budget := time.Duration(opt.seconds) * time.Second
	start, last := time.Now(), time.Duration(0)
	for len(reps) < sz.minReps || time.Since(start)+last <= budget {
		t0 := time.Now()
		runtime.GC() // every repetition starts from a collected heap, so peak RSS does not depend on where a cycle fell
		reps = append(reps, rep1(o))
		last = time.Since(t0)
	}

	// Simulated statistics must repeat exactly for a seed.
	for i, r := range reps[1:] {
		o.check(digestOf(r.hashes) == digestOf(reps[0].hashes), "repetition %d: science digest differs from repetition 0", i+1)
		o.check(r.counts == reps[0].counts, "repetition %d: counts differ from repetition 0", i+1)
	}

	// Per-repetition series: the gated rates, their ungated wall-clock
	// twins, and the service phases' own diagnostics.
	series := map[string][]float64{"setup_s": setups}
	var wallOverCPU, simPerWall, firstEvent, cluster []float64
	for _, r := range reps {
		for name, v := range endToEndOf(r) {
			series[name] = append(series[name], v)
		}
		wallOverCPU = append(wallOverCPU, r.direct.Wall.Seconds()/r.direct.CPU.Seconds())
		simPerWall = append(simPerWall, r.counts.SimSeconds/r.direct.Wall.Seconds())
		firstEvent = append(firstEvent, r.firstEventMS...)
		if r.clusterConfigs > 0 {
			cluster = append(cluster, float64(r.clusterConfigs)/r.cluster.CPU.Seconds())
		}
	}
	rp := newReport(w, opt, reps, o)
	for _, m := range endToEnd {
		if m.Name == "peak_rss_mb" {
			rp.Metrics[m.Name] = value{Value: peakRSSMB(), Unit: m.Unit}
			continue
		}
		s := summarize(series[m.Name])
		rp.Metrics[m.Name] = value{s.Median, m.Unit, s.Q1, s.Q3, s.N}
	}
	rp.Metrics["host.wall_over_cpu"] = value{Value: median(wallOverCPU), Unit: "count"}
	rp.Metrics["host.sim_s_per_wall_s"] = value{Value: median(simPerWall), Unit: "1/s"}
	if len(cluster) > 0 {
		// What a sweepd user waits for a cached job's first event (wall),
		// and the cluster phase's rate.
		rp.Metrics["svc.submit_to_first_event_ms_p50"] = value{Value: median(firstEvent), Unit: "ms", N: len(firstEvent)}
		if p, v, ok := tailPercentile(firstEvent); ok {
			rp.Metrics[fmt.Sprintf("svc.submit_to_first_event_ms_p%.0f", p)] = value{Value: v, Unit: "ms", N: len(firstEvent)}
		}
		rp.Metrics["svc.cluster_configs_per_cpu_s"] = value{Value: median(cluster), Unit: "1/s"}
	}
	return rp
}

func newReport(w workload, opt options, reps []rep, o *ops) report {
	return report{
		Workload: w.Name, Seed: opt.seed, Trace: opt.trace, Procs: procs(), Reps: len(reps),
		Metrics: map[string]value{}, Counts: reps[0].counts, Digest: digestOf(reps[0].hashes),
		Attempted: o.attempted, Failed: o.failed, Failures: o.failures,
	}
}

// endToEndOf derives one repetition's end-to-end rates. The simulator
// workloads never touch the service, so on them the two svc rows repeat
// configs_per_cpu_s: every workload reports every metric, as the driver's
// contract requires, and a svc row there can only move with its twin.
func endToEndOf(r rep) map[string]float64 {
	cpu, c := r.direct.CPU.Seconds(), r.counts
	m := map[string]float64{
		"sim_s_per_cpu_s":   c.SimSeconds / cpu,
		"allocs_per_pkt":    float64(r.direct.Mallocs) / c.Segments,
		"flows_per_cpu_s":   float64(c.Flows) / cpu,
		"allocs_per_flow":   float64(r.direct.Mallocs) / float64(c.Flows),
		"configs_per_cpu_s": float64(c.Configs) / cpu,
	}
	m["svc_configs_per_cpu_s"] = m["configs_per_cpu_s"]
	m["svc_cached_configs_per_cpu_s"] = m["configs_per_cpu_s"]
	if r.coldConfigs > 0 {
		m["svc_configs_per_cpu_s"] = float64(r.coldConfigs) / r.cold.CPU.Seconds()
		m["svc_cached_configs_per_cpu_s"] = float64(r.warmConfigs) / r.warm.CPU.Seconds()
	}
	return m
}

// gcCPUSeconds is the Go runtime's own estimate of CPU spent collecting.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measureTraced is the separate traced run: one untraced pass over the
// workload's configs for reference, the same configs through the traced
// replica, then every layer driver.
func measureTraced(w workload, opt options) (report, error) {
	sz, o := opt.sizes(), &ops{}
	in := w.gen(opt.seed, sz)
	runSerial(in.head(sz.warmFrac).cfgs, o)
	gc0 := gcCPUSeconds()
	ref := runSerial(in.cfgs, o)
	gcShare := 100 * (gcCPUSeconds() - gc0) / ref.direct.CPU.Seconds()
	tr := traceWorkload(in, ref.results, o)
	spans := filepath.Join(opt.outDir, fmt.Sprintf("%s.seed%d.spans.ndjson", w.Name, opt.seed))
	if err := writeSpans(spans, tr.spans); err != nil {
		return report{}, err
	}

	m := layerMetrics(sz, o)
	for name, v := range selfTimeShares(tr.spans) {
		m[name] = v
	}
	apportionCore(m, tr.replicas)
	m["trace.overhead_pct"] = 100 * (tr.cpu.Seconds()/ref.direct.CPU.Seconds() - 1)
	var hookCalls uint64
	for _, r := range tr.replicas {
		hookCalls += r.hookCalls
	}
	c := ref.counts
	m["cca.calls_per_pkt"] = float64(hookCalls) / c.Segments
	m["sim.events_per_sim_s"] = float64(c.Events) / c.SimSeconds
	m["sim.events_per_pkt"] = float64(c.Events) / c.Segments
	m["tcp.retransmits_per_kpkt"] = 1000 * float64(c.Retransmits) / c.Segments
	m["runtime.gc_cpu_share"] = gcShare
	m["host.wall_over_cpu"] = ref.direct.Wall.Seconds() / ref.direct.CPU.Seconds()
	m["host.sim_s_per_wall_s"] = c.SimSeconds / ref.direct.Wall.Seconds()

	rp := newReport(w, opt, []rep{ref}, o)
	for _, l := range perLayer {
		v, ok := m[l.Name]
		o.check(ok && !math.IsNaN(v) && !math.IsInf(v, 0), "per-layer metric %s missing or not finite", l.Name)
		rp.Metrics[l.Name] = value{Value: v, Unit: l.Unit}
	}
	rp.Attempted, rp.Failed, rp.Failures = o.attempted, o.failed, o.failures
	return rp, nil
}

func printReport(w io.Writer, rp report) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  procs %d  repetitions %d\n", rp.Workload, rp.Seed, rp.Trace, rp.Procs, rp.Reps)
	names := make([]string, 0, len(rp.Metrics))
	for n := range rp.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rp.Metrics[n]
		fmt.Fprintf(w, "  %-44s %14.6g %-6s", n, v.Value, v.Unit)
		if v.Q3 != 0 {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g", v.Q1, v.Q3)
		}
		if v.N > 0 {
			fmt.Fprintf(w, "  n %d", v.N)
		}
		fmt.Fprintln(w)
	}
	c := rp.Counts
	fmt.Fprintf(w, "  science_digest %s  configs %d  flows %d  events %d  segments %.0f  retransmits %d  sim_s %g\n",
		rp.Digest, c.Configs, c.Flows, c.Events, c.Segments, c.Retransmits, c.SimSeconds)
	fmt.Fprintf(w, "  ops_failed_share %g (%d of %d operations)\n", float64(rp.Failed)/float64(max(rp.Attempted, 1)), rp.Failed, rp.Attempted)
	for _, f := range rp.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printContract prints the last line of standard output: exactly the keys
// the driver reads, with the end-to-end metrics for -trace 0 and the
// per-layer metrics for -trace 1.
func printContract(w io.Writer, rp report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rp.Failed == 0, rp.Attempted, rp.Failed, map[string]metric{}}
	if rp.Trace == 0 {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metric{rp.Metrics[m.Name].Value, m.Unit}
		}
	} else {
		for _, l := range perLayer {
			out.Metrics[l.Name] = metric{rp.Metrics[l.Name].Value, l.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resultFile is what a complete run writes and -compare reads.
type resultFile struct {
	Seed uint64   `json:"seed"`
	Host string   `json:"host"`
	Runs []report `json:"runs"` // one per workload and mode
}

// runAll re-executes this binary once per workload and mode, so peak RSS and
// allocation counters are per workload, then merges the children's reports.
func runAll(opt options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []int{0, 1}
	if opt.traced {
		modes = []int{1}
	}
	res := resultFile{Seed: opt.seed, Host: fmt.Sprintf("%s/%s %d cpu %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())}
	for _, w := range workloads() {
		for _, trace := range modes {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
				"-trace", fmt.Sprint(trace), "-outdir", opt.outDir}
			if opt.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.Name, trace, err)
			}
			var rp report
			data, err := os.ReadFile(reportPath(opt, w.Name, trace))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &rp); err != nil {
				return err
			}
			res.Runs = append(res.Runs, rp)
		}
	}
	out := filepath.Join(opt.outDir, fmt.Sprintf("result-seed%d.json", opt.seed))
	if err := writeJSON(out, res); err != nil {
		return err
	}
	failed := 0
	for _, rp := range res.Runs {
		failed += rp.Failed
	}
	fmt.Fprintf(stdout, "wrote %s; %d failed operations\n", out, failed)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
