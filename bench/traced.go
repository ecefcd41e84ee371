package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/flows"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/tcp"
	"repro/internal/topo"
	jitter "repro/internal/workload"
)

// The traced run re-assembles experiment.Run's pipeline from public functions
// and records a span at each layer boundary. End-to-end numbers are never
// taken here; the difference between this pass and the untraced one is the
// tracing overhead.

// span is one timed interval. Spans of one config or job share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    string `json:"run"`    // config key or job id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // wall clock, from the tracer's start
	End    int64  `json:"end_ns"`
	// The cca.* spans aggregate one hook over a whole sim.run_for: every
	// call is counted, one in 64 is timed, and the span's length is the
	// timed total scaled to the call count.
	Calls   uint64 `json:"calls,omitempty"`
	Sampled uint64 `json:"sampled,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(parent int, run, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Run: run, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

func (t *tracer) do(parent int, run, name string, f func()) int {
	id := t.begin(parent, run, name)
	f()
	t.end(id)
	return id
}

// hookStats counts one run's calls into its congestion controllers.
type hookStats [4]struct {
	calls, sampled uint64
	ns             int64
}

var hookNames = [4]string{"cca.on_ack", "cca.on_sent", "cca.on_congestion", "cca.on_rto"}

// tracedCC decorates a tcp.CongestionControl: Name and Init pass through,
// every hook is counted and one call in 64 is timed.
type tracedCC struct {
	tcp.CongestionControl
	st *hookStats
}

// enter counts a hook call and starts the clock on every 64th.
func (t tracedCC) enter(hook int) time.Time {
	h := &t.st[hook]
	h.calls++
	if h.calls&63 != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (t tracedCC) leave(hook int, t0 time.Time) {
	if !t0.IsZero() {
		t.st[hook].ns += int64(time.Since(t0))
		t.st[hook].sampled++
	}
}

func (t tracedCC) OnAck(c *tcp.Conn, s tcp.AckSample) {
	t0 := t.enter(0)
	t.CongestionControl.OnAck(c, s)
	t.leave(0, t0)
}

func (t tracedCC) OnPacketSent(c *tcp.Conn, b int64) {
	t0 := t.enter(1)
	t.CongestionControl.OnPacketSent(c, b)
	t.leave(1, t0)
}

func (t tracedCC) OnCongestionEvent(c *tcp.Conn) {
	t0 := t.enter(2)
	t.CongestionControl.OnCongestionEvent(c)
	t.leave(2, t0)
}

func (t tracedCC) OnRTO(c *tcp.Conn) {
	t0 := t.enter(3)
	t.CongestionControl.OnRTO(c)
	t.leave(3, t0)
}

// clockCostNS is what one time.Now/time.Since pair adds to a sampled call.
func clockCostNS() int64 {
	const n = 10000
	t0 := time.Now()
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += time.Since(time.Now())
	}
	_ = sum
	return int64(time.Since(t0)) / (2 * n)
}

// replica is what a traced run observed: the transparency check compares it
// with the untraced experiment.Run of the same config, and the layer
// apportioning weighs the event core by its exact call counts.
type replica struct {
	events     uint64
	senderBps  [2]float64
	completed  int
	hookCalls  uint64
	portTx     uint64 // packets transmitted over every port
	monitorTx  uint64 // packets through the bottleneck queue
	monitorAQM aqm.Kind
	deepHeap   bool // the event heap ended the run with thousands pending
}

// tracedRun mirrors experiment.Run for one config, span by span.
func (t *tracer) tracedRun(cfg experiment.Config, clock int64) (replica, error) {
	var rp replica
	cfg = cfg.Normalize()
	var key string
	root := t.begin(-1, "", "run")
	keyed := t.do(root, "", "config.key", func() { key = cfg.Key() })
	t.spans[root].Run, t.spans[keyed].Run = key, key

	eng := sim.NewEngine(cfg.Seed)
	var net *topo.Network
	var err error
	t.do(root, key, "topo.build", func() { net, err = experiment.BuildNet(eng, cfg) })
	if err != nil {
		return rp, err
	}
	st := new(hookStats)
	var fr *flows.Runner
	t.do(root, key, "flows.attach", func() {
		if !cfg.SoloFCT {
			for ci := 0; ci < net.NumClasses(); ci++ {
				name := experiment.ClassCCA(cfg, net.ClassSpec(ci), ci)
				for i := 0; i < experiment.ClassFlowCount(cfg, net.ClassSpec(ci)); i++ {
					f := net.AddFlow(ci, tcp.Config{ECN: cfg.ECN, DelayedAck: cfg.DelayedAck}, tracedCC{cca.MustNew(name), st})
					eng.Schedule(jitter.StartJitter(eng.RNG(), cfg.StartSpread), f.Conn.Start)
				}
			}
		}
		if cfg.Flows != nil {
			// The runner builds its own controllers, so churn flows run
			// undecorated and their cca time stays in the event core.
			fr, err = flows.NewRunner(eng, net, cfg.Flows, flows.Options{
				Seed: cfg.Seed, Horizon: cfg.Duration,
				TCP: tcp.Config{ECN: cfg.ECN, DelayedAck: cfg.DelayedAck},
			})
			if err == nil {
				fr.Start()
			}
		}
	})
	if err != nil {
		return rp, err
	}
	runFor := t.do(root, key, "sim.run_for", func() { eng.RunFor(cfg.Duration) })
	for h, s := range st {
		rp.hookCalls += s.calls
		if s.sampled == 0 {
			continue
		}
		est := max(s.ns-int64(s.sampled)*clock, 0) * int64(s.calls) / int64(s.sampled)
		start := t.spans[runFor].Start
		t.spans = append(t.spans, span{ID: len(t.spans), Parent: runFor, Run: key, Name: hookNames[h],
			Start: start, End: start + est, Calls: s.calls, Sampled: s.sampled})
	}
	t.do(root, key, "collect", func() {
		rp.events = eng.Executed()
		for s := 0; s < 2 && s < net.NumClasses(); s++ {
			rp.senderBps[s] = float64(net.ClassGoodput(s)) * 8 / cfg.Duration.Seconds()
		}
		if fr != nil {
			rp.completed = fr.Completed()
		}
		for _, po := range net.Ports() {
			rp.portTx += po.TxPackets()
		}
		rp.monitorTx = net.Monitor().TxPackets()
		rp.monitorAQM = cfg.AQM
		rp.deepHeap = eng.Pending() > 4096
	})
	t.end(root)
	return rp, nil
}

// transparent reports whether the traced replica reproduced the untraced
// run exactly: same event count, same per-sender goodput, same completions.
func (rp replica) transparent(res experiment.Result) bool {
	completed := 0
	if res.FCT != nil {
		completed = res.FCT.Completed
	}
	return rp.events == res.Events && rp.senderBps == res.SenderBps && rp.completed == completed
}

// traceResult is the traced pass over one workload's configs.
type traceResult struct {
	spans    []span
	cpu      time.Duration // CPU of the traced runs
	replicas []replica
}

// traceWorkload runs every config of the workload through tracedRun; for
// sweepd-grid-100m it also journals each result and follows one job through
// a server, recording the service-side spans by job id.
func traceWorkload(in inputs, ref []experiment.Result, o *ops) traceResult {
	t := &tracer{t0: time.Now()}
	clock := clockCostNS()
	var tr traceResult
	if in.spec != nil {
		t.do(-1, "", "grid.expand", func() {
			_, err := in.spec.Expand()
			o.check(err == nil, "expand: %v", err)
		})
	}
	c0 := cpuTime()
	for i, cfg := range in.cfgs {
		rp, err := t.tracedRun(cfg, clock)
		o.check(err == nil, "traced run %s: %v", cfg.ID(), err)
		o.check(rp.transparent(ref[i]), "traced replica of %s diverged from experiment.Run: events %d vs %d", cfg.ID(), rp.events, ref[i].Events)
		tr.replicas = append(tr.replicas, rp)
	}
	tr.cpu = cpuTime() - c0
	if in.spec != nil {
		t.traceService(*in.spec, ref, o)
	}
	tr.spans = t.spans
	return tr
}

// traceService journals the reference results and follows one cold job
// through an in-process server. The svc.* spans are wall time the client
// waited while server goroutines simulated, so they are reported but stay
// out of the self-time shares.
func (t *tracer) traceService(spec experiment.GridSpec, ref []experiment.Result, o *ops) {
	dir, err := os.MkdirTemp("", "bench-trace-")
	o.check(err == nil, "temp dir: %v", err)
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	ck, err := experiment.OpenCheckpoint(filepath.Join(dir, "trace.journal"))
	o.check(err == nil, "open journal: %v", err)
	if err != nil {
		return
	}
	for _, res := range ref {
		t.do(-1, res.Config.Key(), "journal.append", func() {
			o.check(ck.Append(res) == nil, "journal append")
		})
	}
	o.check(ck.Close() == nil, "journal close")

	sv, err := startService(svc.Options{Journal: filepath.Join(dir, "svc.journal"), Shards: procs()})
	o.check(err == nil, "start server: %v", err)
	if err != nil {
		return
	}
	defer sv.close(o)
	submit := t.begin(-1, "", "svc.submit")
	st, err := sv.cl.Submit(spec)
	t.end(submit)
	o.check(err == nil, "submit: %v", err)
	if err != nil {
		return
	}
	t.spans[submit].Run = st.ID
	stream := t.begin(-1, st.ID, "svc.stream")
	seen := false
	err = sv.cl.Stream(context.Background(), st.ID, func(svc.Event) {
		if !seen {
			seen = true
			now := t.now()
			t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Run: st.ID, Name: "svc.first_event",
				Start: t.spans[submit].Start, End: now})
		}
	})
	t.end(stream)
	o.check(err == nil, "stream: %v", err)
	t.do(-1, st.ID, "svc.results", func() {
		_, err := sv.cl.Results(st.ID)
		o.check(err == nil, "results: %v", err)
	})
}

// selfTimeShares reduces spans to self-time shares, in percent of the traced
// pipeline's total (every run span plus grid.expand and journal.append). A
// span's self time is its length minus what its children cover.
func selfTimeShares(spans []span) map[string]float64 {
	byName := map[string]int64{}
	for _, s := range spans {
		byName[s.Name] += s.dur()
	}
	total := byName["run"] + byName["grid.expand"] + byName["journal.append"]
	if total == 0 {
		return map[string]float64{}
	}
	ccaTime := int64(0)
	for _, n := range hookNames {
		ccaTime += byName[n]
	}
	ccaTime = min(ccaTime, byName["sim.run_for"])
	core := byName["sim.run_for"] - ccaTime
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(total) }
	return map[string]float64{
		"trace.share.topo_build": pct(byName["topo.build"]),
		"trace.share.attach":     pct(byName["flows.attach"]),
		"trace.share.cca":        pct(ccaTime),
		"trace.share.event_core": pct(core),
		"trace.share.other":      pct(total - byName["topo.build"] - byName["flows.attach"] - byName["sim.run_for"]),
	}
}

// apportionCore splits the event core's share among sim, netem, aqm and tcp
// in proportion to each layer's driver cost times its exact call count in
// the traced runs. The drivers overlap (a port send dispatches two events and
// crosses a FIFO), so each layer is weighed by its cost net of the layers
// beneath it; the result is an estimate, unlike the measured shares above.
func apportionCore(m map[string]float64, replicas []replica) {
	var wSim, wNetem, wAQM, wTCP float64
	for _, rp := range replicas {
		dispatch := m["sim.dispatch_ns_per_event.depth64"]
		if rp.deepHeap {
			dispatch = m["sim.dispatch_ns_per_event.depth64k"]
		}
		portSelf := max(m["netem.port_ns_per_pkt"]-2*m["sim.dispatch_ns_per_event.depth64"]-m["aqm.fifo_ns_per_pkt"], 0)
		tcpSelf := max(m["tcp.bulk_ns_per_pkt"]-2*m["netem.port_ns_per_pkt"], 0)
		wSim += float64(rp.events) * dispatch
		wNetem += float64(rp.portTx) * portSelf
		wAQM += float64(rp.monitorTx) * m["aqm."+string(rp.monitorAQM)+"_ns_per_pkt"]
		wTCP += float64(rp.monitorTx) * tcpSelf
	}
	sum := wSim + wNetem + wAQM + wTCP
	if sum == 0 {
		sum = 1
	}
	core := m["trace.share.event_core"]
	m["trace.share.sim"] = core * wSim / sum
	m["trace.share.netem"] = core * wNetem / sum
	m["trace.share.aqm"] = core * wAQM / sum
	m["trace.share.tcp"] = core * wTCP / sum
}

// writeSpans writes the spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
