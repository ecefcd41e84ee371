package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/flows"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// The layer drivers time calls into each layer's public functions from
// outside, over fixed operation counts, so the work is identical run to run.
// Each value is the median CPU time per operation over layerReps passes.

const layerReps = 3

// xorshift is the drivers' input generator: cheap, fixed, and independent of
// the simulator's own RNG.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// delay draws a deadline offset in [1us, 1ms).
func (x *xorshift) delay() time.Duration { return time.Duration(1000 + x.next()%999_000) }

// driver prepares one pass of a layer driver and returns the function to
// time, which performs exactly ops operations.
type driver func(ops int) (run func())

// layerMetrics runs every driver and returns the workload-independent
// per-layer metrics by name.
func layerMetrics(sz sizes, o *ops) map[string]float64 {
	// per scales a driver's op count to the profile and returns its median
	// CPU nanoseconds per operation.
	per := func(ops int, d driver) float64 {
		return cpuNsPerOp(max(ops/sz.layerScale, 1), layerReps, d)
	}
	m := map[string]float64{}

	m["host.calib_mops"] = 1e3 / per(2_000_000, calibKernel)

	m["sim.dispatch_ns_per_event.depth64"] = per(2_000_000, simDispatch(64))
	m["sim.dispatch_ns_per_event.depth64k"] = per(1_000_000, simDispatch(65536))
	m["sim.timer_reset_ns.depth64"] = per(2_000_000, simTimerReset(64))
	m["sim.timer_reset_ns.depth64k"] = per(1_000_000, simTimerReset(65536))
	m["packet.new_release_ns"] = per(5_000_000, loop(func(int) { packet.Release(packet.New()) }))

	m["aqm.fifo_ns_per_pkt"] = per(1_000_000, aqmPairs(aqm.KindFIFO, 20))
	m["aqm.red_ns_per_pkt"] = per(1_000_000, aqmPairs(aqm.KindRED, 20))
	m["aqm.codel_ns_per_pkt"] = per(1_000_000, aqmPairs(aqm.KindCoDel, 20))
	m["aqm.fq_codel_ns_per_pkt"] = per(1_000_000, aqmPairs(aqm.KindFQCoDel, 20))
	m["aqm.fq_codel_ns_per_pkt.flows1k"] = per(1_000_000, aqmPairs(aqm.KindFQCoDel, 1000))

	m["netem.port_ns_per_pkt"] = per(500_000, portSend(1))
	m["netem.path3_ns_per_pkt"] = per(300_000, portSend(3))

	m["tcp.bulk_ns_per_pkt"] = per(300_000, tcpBulk(0))
	m["tcp.bulk_ns_per_pkt.loss1pct"] = per(300_000, tcpBulk(0.01))
	m["tcp.conn_setup_ns"] = per(20_000, connSetup)

	for _, name := range cca.Names() {
		m["cca."+string(name)+".on_ack_ns"] = per(2_000_000, ccaOnAck(name))
	}

	m["topo.build_us.dumbbell"] = per(2000, topoBuild(topo.DumbbellSpec())) / 1e3
	m["topo.build_us.parking-lot-3"] = per(2000, topoBuild(topo.ParkingLotSpec(3))) / 1e3
	m["topo.add_flow_us"] = per(4000, topoAddFlow) / 1e3

	pop := flows.Spec{Populations: []flows.Population{{}}}.Normalize().Populations[0]
	arrivals := flows.NewProcess(1, 0, pop)
	m["flows.arrival_ns_per_flow"] = per(2_000_000, loop(func(int) { arrivals.Next() }))
	m["flows.mallocs_per_flow"] = flowMallocs(sz, o)

	sketch, x := metrics.NewFCTSketch(), xorshift(7)
	m["metrics.fct_sketch_record_ns"] = per(5_000_000, loop(func(int) { sketch.Record(x.delay() * 100) }))
	m["metrics.fairness_ns_per_tick"] = per(50_000, fairnessTicks)

	// Realistic result records for the marshal, journal and cache drivers.
	results := tinyResults(max(256/sz.layerScale, 16), o)
	experimentLayer(m, sz, per, results, o)
	svcLayer(m, sz, results, o)
	return m
}

// loop is the driver for an operation that needs no per-pass state.
func loop(op func(i int)) driver {
	return func(ops int) func() {
		return func() {
			for i := 0; i < ops; i++ {
				op(i)
			}
		}
	}
}

// calibKernel is the host calibration: pushes and pops on a 64k-element
// binary heap plus a dependent pointer chase over a 64k-entry cycle. It does
// not touch the simulator, so it moves only when the host does.
func calibKernel(ops int) func() {
	const size = 1 << 16
	x := xorshift(42)
	h := make(intHeap, 0, size+1)
	for i := 0; i < size; i++ {
		heap.Push(&h, int64(x.next()>>1))
	}
	// A single cycle through every slot (Sattolo's algorithm), so the chase
	// cannot settle into a short loop.
	next := make([]int32, size)
	for i := range next {
		next[i] = int32(i)
	}
	for i := size - 1; i > 0; i-- {
		j := int(x.next() % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return func() {
		at := int32(0)
		for i := 0; i < ops/2; i++ {
			heap.Push(&h, int64(x.next()>>1))
			heap.Pop(&h)
			at = next[at]
		}
		calibSink = at
	}
}

var calibSink int32 // keeps the pointer chase alive

type intHeap []int64

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(v any)        { *h = append(*h, v.(int64)) }
func (h *intHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// rescheduler is a self-rescheduling sim.Handler: every dispatch schedules
// one successor until left runs out, holding the pending depth constant.
type rescheduler struct {
	eng  *sim.Engine
	x    xorshift
	left int
}

func (r *rescheduler) OnEvent(any) {
	if r.left > 0 {
		r.left--
		r.eng.ScheduleHandler(r.x.delay(), r, nil)
	}
}

// simDispatch executes ops events through chains holding depth pending.
func simDispatch(depth int) driver {
	return func(ops int) func() {
		depth := min(depth, ops/2)
		eng := sim.NewEngine(1)
		r := &rescheduler{eng: eng, x: 1, left: ops - depth}
		return func() {
			for i := 0; i < depth; i++ {
				eng.ScheduleHandler(r.x.delay(), r, nil)
			}
			eng.Run()
		}
	}
}

// simTimerReset re-arms one Timer ops times among depth pending events.
func simTimerReset(depth int) driver {
	return func(ops int) func() {
		eng := sim.NewEngine(1)
		r := &rescheduler{eng: eng, x: 1}
		for i := 0; i < depth; i++ {
			eng.ScheduleHandler(r.x.delay(), r, nil)
		}
		var t sim.Timer
		t.Init(eng, r, nil)
		return func() {
			for i := 0; i < ops; i++ {
				t.Reset(r.x.delay())
			}
			t.Stop()
		}
	}
}

func dataPacket(flow int) *packet.Packet {
	p := packet.New()
	p.Kind = packet.Data
	p.Flow = packet.FlowID(flow)
	p.Size = 8960
	p.DataLen = 8900
	return p
}

// aqmPairs times enqueue+dequeue pairs on a queue held at half occupancy
// (500 of 1000 packets) fed round-robin by nflows flows. Simulated time
// advances 1 us per pair, so sojourn stays under CoDel's target and RED's
// average sits between its thresholds.
func aqmPairs(kind aqm.Kind, nflows int) driver {
	return func(ops int) func() {
		const half = 500
		q, err := aqm.New(aqm.Config{
			Kind:     kind,
			Capacity: 2 * half * 8960,
			RED:      aqm.REDParams{MinTh: half * 8960 / 2, MaxTh: 2 * half * 8960, MaxP: 0.01, Seed: 1},
		})
		if err != nil {
			panic(err) // the kinds are fixed by the caller
		}
		now, flow := sim.Time(0), 0
		offer := func() {
			flow++
			q.Enqueue(now, dataPacket(1+flow%nflows))
		}
		for q.Len() < half {
			offer()
		}
		return func() {
			for i := 0; i < ops; i++ {
				now += 1000
				offer()
				if p := q.Dequeue(now); p != nil {
					packet.Release(p)
				}
				for q.Len() < half { // a drop law took more than the pair put in
					offer()
				}
			}
		}
	}
}

// portSend pushes ops packets through hops 10 Gbps ports into a Sink, in
// back-to-back bursts of 256.
func portSend(hops int) driver {
	return func(ops int) func() {
		eng := sim.NewEngine(1)
		var sink netem.Sink
		ports := make([]*netem.Port, hops)
		for i := range ports {
			ports[i] = netem.NewPort(eng, fmt.Sprint("hop", i), 10*units.GigabitPerSec, time.Millisecond, nil, &sink)
		}
		path := netem.NewPath(ports...)
		return func() {
			for sent := 0; sent < ops; {
				for b := 0; b < 256 && sent < ops; b++ {
					path.Inject(eng.Now(), dataPacket(1))
					sent++
				}
				eng.Run()
			}
		}
	}
}

// fixedWindow is a constant-window tcp.CongestionControl, isolating the tcp
// layer's own cost from any cca.
type fixedWindow struct{ segs int64 }

func (f fixedWindow) Name() string                       { return "fixed" }
func (f fixedWindow) Init(c *tcp.Conn)                   { f.set(c) }
func (f fixedWindow) OnAck(c *tcp.Conn, _ tcp.AckSample) { f.set(c) }
func (f fixedWindow) OnCongestionEvent(c *tcp.Conn)      { f.set(c) }
func (f fixedWindow) OnRTO(c *tcp.Conn)                  { f.set(c) }
func (f fixedWindow) OnPacketSent(*tcp.Conn, int64)      {}
func (f fixedWindow) set(c *tcp.Conn)                    { c.SetCwnd(f.segs * c.MSS()) }

// tcpBulk moves ops segments from one Conn to one Receiver over a two-port
// loop (10 Gbps, 2 ms round trip) with the given forward loss rate.
func tcpBulk(loss float64) driver {
	return func(ops int) func() {
		eng := sim.NewEngine(1)
		var conn *tcp.Conn
		var rcv *tcp.Receiver
		fwd := netem.NewPort(eng, "fwd", 10*units.GigabitPerSec, time.Millisecond, nil,
			netem.ReceiverFunc(func(now sim.Time, p *packet.Packet) { rcv.Receive(now, p) }))
		ret := netem.NewPort(eng, "ret", 10*units.GigabitPerSec, time.Millisecond, nil,
			netem.ReceiverFunc(func(now sim.Time, p *packet.Packet) { conn.Receive(now, p) }))
		fwd.SetLoss(loss)
		conn = tcp.NewConn(eng, 1, tcp.Config{LimitBytes: int64(ops) * 8900}, fixedWindow{256}, fwd.Send)
		rcv = tcp.NewReceiver(eng, 1, 60, ret.Send)
		done := false
		conn.OnDone(func(*tcp.Conn) { done = true })
		return func() {
			conn.Start()
			for i := 0; !done && i < 3600; i++ {
				eng.RunFor(time.Second)
			}
			if !done {
				panic("tcp bulk driver did not finish")
			}
		}
	}
}

func layerNet(eng *sim.Engine) *topo.Network {
	net, err := experiment.BuildNet(eng, experiment.Config{
		AQM: aqm.KindFQCoDel, QueueBDP: 2, Bottleneck: 10 * units.GigabitPerSec,
	}.Normalize())
	if err != nil {
		panic(err) // the canonical dumbbell always builds
	}
	return net
}

// connSetup opens, completes and releases ops one-segment ephemeral flows:
// AddEphemeralFlow, first segment and its ACK, ReleaseFlow.
func connSetup(ops int) func() {
	eng := sim.NewEngine(1)
	net := layerNet(eng)
	return func() {
		for i := 0; i < ops; i++ {
			f := net.AddEphemeralFlow(i%net.NumClasses(), tcp.Config{LimitBytes: 8900}, fixedWindow{10})
			f.Conn.Start()
			eng.RunFor(70 * time.Millisecond)
			net.ReleaseFlow(f)
		}
	}
}

// ccaOnAck calls one controller's per-ACK hook ops times on an idle Conn,
// entering congestion avoidance every 4096 ACKs so both growth laws run.
func ccaOnAck(name cca.Name) driver {
	return func(ops int) func() {
		cc := cca.MustNew(name)
		conn := tcp.NewConn(sim.NewEngine(1), 1, tcp.Config{}, cc, packet.Release)
		s := tcp.AckSample{AckedBytes: 8900, RTT: 62 * time.Millisecond, DeliveryRate: units.GigabitPerSec, Inflight: 100 * 8900}
		return func() {
			for i := 0; i < ops; i++ {
				s.Now += 72_000
				s.Delivered += s.AckedBytes
				s.RoundStart = i%860 == 0
				if i%4096 == 4095 {
					cc.OnCongestionEvent(conn)
				}
				cc.OnAck(conn, s)
			}
		}
	}
}

func topoBuild(spec topo.Spec) driver {
	par := topo.Params{Bottleneck: units.GigabitPerSec, RTT: 62 * time.Millisecond,
		Queue: aqm.Config{Kind: aqm.KindFIFO, Capacity: units.Megabyte}}
	return loop(func(int) {
		if _, err := topo.Build(sim.NewEngine(1), spec, par); err != nil {
			panic(err) // preset specs always build
		}
	})
}

func topoAddFlow(ops int) func() {
	net := layerNet(sim.NewEngine(1))
	return func() {
		for i := 0; i < ops; i++ {
			net.AddFlow(i%net.NumClasses(), tcp.Config{}, cca.MustNew(cca.Cubic))
		}
	}
}

// flowMallocs is mallocs per opened flow over one short churn run.
func flowMallocs(sz sizes, o *ops) float64 {
	cfg := miceInputs(1, sz).cfgs[0]
	cfg.Duration /= 5
	var res experiment.Result
	sec := timed(func() {
		var err error
		res, err = experiment.Run(cfg)
		o.check(err == nil, "flows driver run: %v", err)
	})
	if res.FCT == nil || res.FCT.Opened == 0 {
		return 0
	}
	return float64(sec.Mallocs) / float64(res.FCT.Opened)
}

// fairnessTicks runs the fairness sampler over 40 tracked flows for ops
// windows on an otherwise empty engine.
func fairnessTicks(ops int) func() {
	eng := sim.NewEngine(1)
	horizon := time.Duration(ops) * time.Millisecond
	fs := metrics.NewFairnessSampler(eng, time.Millisecond, horizon, units.GigabitPerSec)
	goodput := make([]int64, 40)
	for i := range goodput {
		i := i
		fs.TrackFlow(uint32(i+1), "cubic", i%2,
			func() int64 { goodput[i] += int64(1000 + i); return goodput[i] },
			func() uint64 { return 0 })
	}
	return func() {
		fs.Start()
		eng.RunFor(horizon)
		fs.Stop()
	}
}

func tinyConfig(seed uint64) experiment.Config {
	return experiment.Config{
		Pairing:    experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic},
		AQM:        aqm.KindFQCoDel,
		QueueBDP:   2,
		Bottleneck: units.GigabitPerSec,
		Duration:   time.Millisecond,
		Seed:       seed,
	}
}

// tinyResults simulates n distinct 1 ms configs.
func tinyResults(n int, o *ops) []experiment.Result {
	out := make([]experiment.Result, n)
	for i := range out {
		res, err := experiment.Run(tinyConfig(uint64(i + 1)))
		o.check(err == nil, "tiny run: %v", err)
		out[i] = res
	}
	return out
}

// layerGrid is the small grid the experiment and service drivers sweep:
// short 100 Mbps configs, so per-config overhead dominates as it does in
// sweepd-grid-100m.
func layerGrid(sz sizes) experiment.GridSpec {
	return experiment.GridSpec{Bandwidths: "100Mbps", Duration: "200ms", Seeds: 1, Configs: max(48/sz.layerScale, 4)}
}

func experimentLayer(m map[string]float64, sz sizes, per func(int, driver) float64, results []experiment.Result, o *ops) {
	cfg := tinyConfig(1)
	m["experiment.config_key_ns"] = per(20_000, loop(func(int) { cfg.Key() }))
	expanded := 0
	m["experiment.grid_expand_us_per_config"] = per(20, loop(func(int) {
		cfgs, err := fullSizes.sweep.Expand()
		o.check(err == nil, "expand: %v", err)
		expanded = len(cfgs)
	})) / float64(max(expanded, 1)) / 1e3
	m["experiment.run_overhead_us"] = per(400, loop(func(int) {
		if _, err := experiment.Run(cfg); err != nil {
			panic(err)
		}
	})) / 1e3

	m["experiment.result_marshal_us"] = per(5000, loop(func(i int) {
		if _, err := json.Marshal(results[i%len(results)]); err != nil {
			panic(err)
		}
	})) / 1e3

	dir, err := os.MkdirTemp("", "bench-journal-")
	o.check(err == nil, "temp dir: %v", err)
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	// journal appends res to a fresh journal per pass, fsyncing every
	// `every` appends (0 = the package's default batch policy).
	pass := 0
	journal := func(every int, res []experiment.Result, walls *[]float64) driver {
		return func(int) func() {
			pass++
			ck, err := experiment.OpenCheckpoint(filepath.Join(dir, fmt.Sprint("journal", pass)))
			if err != nil {
				panic(err)
			}
			if every > 0 {
				ck.SetSyncPolicy(every, 0)
			}
			return func() {
				for _, r := range res {
					t0 := time.Now()
					err := ck.Append(r)
					if walls != nil {
						*walls = append(*walls, ms(time.Since(t0)))
					}
					o.check(err == nil, "journal append: %v", err)
				}
				o.check(ck.Close() == nil, "journal close")
			}
		}
	}
	var fsyncMS []float64
	each := results[:min(len(results), 48)]
	m["experiment.journal_append_us.sync_each"] = cpuNsPerOp(len(each), layerReps, journal(1, each, &fsyncMS)) / 1e3
	m["experiment.journal_fsync_ms_p50_wall"] = median(fsyncMS)
	m["experiment.journal_append_us.sync_default"] = cpuNsPerOp(len(results), layerReps, journal(0, results, nil)) / 1e3
	last := filepath.Join(dir, fmt.Sprint("journal", pass))
	m["experiment.journal_reload_us_per_record"] = cpuNsPerOp(len(results), layerReps, func(int) func() {
		return func() {
			ck, err := experiment.OpenCheckpoint(last)
			o.check(err == nil && ck.Len() == len(results), "journal reload: %v", err)
			if err == nil {
				ck.Close()
			}
		}
	}) / 1e3

	// Diagnostic, wall clock: how much of P workers' capacity a sweep uses.
	cfgs, err := layerGrid(sz).Expand()
	o.check(err == nil, "expand: %v", err)
	sweep := func(workers int) time.Duration {
		t0 := time.Now()
		_, err := experiment.RunAllOpts(cfgs, experiment.RunAllOptions{Workers: workers})
		o.check(err == nil, "scaling sweep: %v", err)
		return time.Since(t0)
	}
	one, all := sweep(1), sweep(procs())
	m["experiment.runner_scaling_eff"] = 100 * float64(one) / float64(all) / float64(procs())
}

func svcLayer(m map[string]float64, sz sizes, results []experiment.Result, o *ops) {
	mem, err := svc.OpenCache("")
	o.check(err == nil, "open cache: %v", err)
	if err != nil {
		return
	}
	keys := make([]string, len(results))
	for i, r := range results {
		keys[i] = r.Config.Key()
		mem.Put(r)
	}
	m["svc.cache_get_ns"] = cpuNsPerOp(max(2_000_000/sz.layerScale, 1), layerReps,
		loop(func(i int) { mem.Get(keys[i%len(keys)]) }))

	dir, err := os.MkdirTemp("", "bench-svc-")
	o.check(err == nil, "temp dir: %v", err)
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	pass := 0
	m["svc.cache_put_us"] = cpuNsPerOp(len(results), layerReps, func(int) func() {
		pass++
		c, err := svc.OpenCache(filepath.Join(dir, fmt.Sprint("put", pass)))
		if err != nil {
			panic(err)
		}
		return func() {
			for _, r := range results {
				c.Put(r)
			}
			o.check(c.Close() == nil, "cache close")
		}
	}) / 1e3

	// One journaled server: a cold sweep fills the cache, warm resubmits
	// read it back. Latencies are wall clock, as a sweepd user feels them.
	spec := layerGrid(sz)
	sv, err := startService(svc.Options{Journal: filepath.Join(dir, "svc.journal"), Shards: procs()})
	o.check(err == nil, "start server: %v", err)
	if err != nil {
		return
	}
	sv.sweep(spec, o)
	var first, submit, stream, fetch []float64
	for k := 1; k <= min(20, spec.Configs-1); k++ {
		sp := spec
		sp.Configs -= k
		j := sv.sweep(sp, o)
		first = append(first, ms(j.firstEvent))
		submit = append(submit, ms(j.submit))
		stream = append(stream, float64(j.stream)/1e3/float64(max(j.events, 1)))
		fetch = append(fetch, ms(j.fetch))
	}
	sv.close(o)
	m["svc.submit_to_first_event_ms_p50"] = median(first)
	m["svc.submit_ms_p50"] = median(submit)
	m["svc.stream_us_per_event"] = median(stream)
	m["svc.results_fetch_ms"] = median(fetch)

	// Coordinator: lease round trips from a bench-side client on an empty
	// task table, then the small grid through one in-process worker.
	co, err := startCoordinator(filepath.Join(dir, "cluster.journal"))
	o.check(err == nil, "start coordinator: %v", err)
	if err != nil {
		return
	}
	defer co.close(o)
	m["svc.lease_rtt_ms_p50"] = leaseRTT(co, o)
	sec, j := clusterSweep(co, spec, o)
	m["svc.cluster_configs_per_cpu_s"] = float64(j.status.Total) / sec.CPU.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// leaseRTT registers as a worker and times lease requests against an empty
// task table: the coordinator's route, lock and JSON cost without any work.
func leaseRTT(co *service, o *ops) float64 {
	post := func(path, body string, out any) error {
		resp, err := co.cl.HTTP.Post(co.ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s", path, resp.Status)
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	var reg struct {
		WorkerID string `json:"worker_id"`
	}
	err := post("/v1/workers", `{"name":"bench-lease"}`, &reg)
	o.check(err == nil && reg.WorkerID != "", "register: %v", err)
	if err != nil {
		return 0
	}
	var rtts []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		err := post("/v1/workers/"+reg.WorkerID+"/lease", `{}`, nil)
		rtts = append(rtts, ms(time.Since(t0)))
		o.check(err == nil, "lease: %v", err)
	}
	err = post("/v1/workers/"+reg.WorkerID+"/release", `{"bye":true}`, nil)
	o.check(err == nil, "release: %v", err)
	return median(rtts)
}
