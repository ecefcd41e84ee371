//go:build !race

// Allocation-regression gates for the zero-allocation event core: a
// steady-state dumbbell run must stay at or under one heap allocation per
// forwarded data segment, end to end. The race detector changes the
// allocation profile, so these tests build only without -race (the Makefile
// runs them as a separate non-race step).
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// allocGuardConfig is the guard scenario from the issue: a 2-flow CUBIC
// dumbbell at 100 Mbps with a 2×BDP FIFO — pure steady-state forwarding.
func allocGuardConfig() experiment.Config {
	return experiment.Config{
		Pairing:    experiment.Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic},
		AQM:        aqm.KindFIFO,
		QueueBDP:   2,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   2 * time.Second,
	}
}

func TestAllocGuardSteadyStateDumbbell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})

	// Delivered data segments are a conservative (under-)count of packets
	// forwarded through the bottleneck: retransmitted and dropped copies
	// also crossed ports but are excluded from the denominator.
	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}

	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("allocation regression: %.3f allocs per forwarded data packet (budget ≤ 1); "+
			"every per-packet event must come from the engine pool", perPacket)
	}
}

// BenchmarkSteadyStateAllocs reports the same quantity as a benchmark so
// regressions show up in routine `go test -bench` output.
func BenchmarkSteadyStateAllocs(b *testing.B) {
	cfg := allocGuardConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		goodputBytes := (res.SenderBps[0] + res.SenderBps[1]) * cfg.Duration.Seconds() / 8
		b.ReportMetric(float64(res.Events)/cfg.Duration.Seconds(), "events/simsec")
		b.ReportMetric(goodputBytes/8900, "segments")
	}
}

// TestAllocGuardTracingDisabled: the telemetry hooks threaded through the
// hot path (tcp ACK processing, CCA OnAck, every enqueue/dequeue/drop) are
// nil-receiver no-ops when no tracer is attached. With tracing disabled —
// even with the observation knobs set, proving they alone arm nothing — the
// per-packet allocation budget must be exactly the baseline's ≤ 1.
func TestAllocGuardTracingDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Trace = false
	cfg.TraceRingCap = 4096 // ignored while Trace is false
	cfg.TraceSampleN = 4

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("disabled tracing is not free: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, identical to the pre-telemetry baseline)", perPacket)
	}
}

// TestAllocGuardWithFaultProfile: the fault-injection path (Gilbert–Elliott
// chain consulted per transmitted packet, flap/step timeline armed) must
// not add per-packet allocations — the same ≤ 1 alloc budget as the clean
// run. Profile setup costs a handful of one-time allocations per run,
// amortized to noise over the half-million forwarded segments.
func TestAllocGuardWithFaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Faults = &faults.Profile{
		GE:      &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 0.5},
		Flaps:   []faults.Flap{{At: 900 * time.Millisecond, Down: 50 * time.Millisecond}},
		BWSteps: []faults.BWStep{{At: 1500 * time.Millisecond, Factor: 0.8}},
	}

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.FaultLossDrops == 0 || last.FaultDownDrops == 0 {
		t.Fatalf("fault profile inactive during alloc guard: %+v", last)
	}

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("fault path allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, same as the clean run)", perPacket)
	}
}

// TestAllocGuardFailpointsDisabled: the failpoint hooks threaded through
// the durability layer (checkpoint open/append/fsync/compact, cache puts,
// RPC attempts) must be branch-cheap and alloc-free when disarmed. The
// worst realistic state is "armed elsewhere": some unrelated point is
// enabled, so every Eval takes the armed-but-miss path (global flag load +
// mutex + name lookup) rather than the single atomic load. Even then the
// simulate-and-checkpoint loop must hold the baseline per-packet budget,
// and the checkpoint appends themselves must not fire or slow.
func TestAllocGuardFailpointsDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	if err := failpoint.Enable("unrelated.alloc.guard=err(never hit)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	cfg := allocGuardConfig()

	dir := t.TempDir()
	run := 0
	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Exercise the failpoint-instrumented journal path end to end:
		// open (checkpoint.open), append (checkpoint.append.write +
		// checkpoint.fsync), close. All hooks evaluate and miss.
		run++
		ck, err := experiment.OpenCheckpoint(filepath.Join(dir, fmt.Sprintf("guard%d.jsonl", run)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Append(res); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		last = res
	})

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("disarmed failpoints are not free: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, identical to the pre-failpoint baseline)", perPacket)
	}
}

// TestAllocGuardOpenLoop: the open-loop workload churns flows through the
// engine — attach, transfer, teardown, sketch update — on top of the two
// elephants. A flow re-initialises a released flow's connection, receiver
// and controller in place, so churn allocates only while the number of
// flows open at once grows (plus the demux tables' amortized growth), and
// the combined traffic must hold the same ≤ 1 alloc per forwarded data
// packet budget as the static run.
func TestAllocGuardOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	// Twice the default mice arrival rate: ~20 flows churn through the 2s
	// run (attach + teardown every ~100ms) while the elephants keep the
	// denominator honest.
	cfg := allocGuardConfig()
	cfg.Flows = &flows.Spec{Populations: []flows.Population{
		{Name: "mice", MeanArrival: 100 * time.Millisecond},
	}}

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.FCT == nil || last.FCT.Completed == 0 {
		t.Fatalf("open-loop workload inactive during alloc guard: %+v", last.FCT)
	}
	// The arrival schedule is part of the determinism contract: a different
	// churn count means the seed-derived arrival streams changed.
	if last.FCT.Opened != 23 {
		t.Fatalf("open-loop workload opened %d flows, want exactly 23", last.FCT.Opened)
	}

	// Elephant goodput plus the completed mice payload, both forwarded
	// through the bottleneck.
	goodputBytes := (last.SenderBps[0]+last.SenderBps[1])*cfg.Duration.Seconds()/8 +
		float64(last.FCT.Class("all").Bytes)
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments (%d flows churned) → %.3f allocs per forwarded data packet",
		allocs, segments, last.FCT.Opened, perPacket)
	if perPacket > 1.0 {
		t.Errorf("open-loop allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, flow churn must amortize away)", perPacket)
	}
}

// TestAllocGuardFlowChurn: a churn-only run shaped like the benchmark's
// mice-churn-10g workload (four Poisson populations, one per CCA, at a
// 2 ms mean arrival each, 16–256 KB transfers, a 10 Gbps FQ-CoDel
// dumbbell, no elephants), shortened to 2 s. Every arrival recycles a
// finished flow's Flow, Conn, Receiver, controller and runner record, and
// the arrival timer is one per population, so the run — set-up included —
// must stay at or under one heap allocation per opened flow.
func TestAllocGuardFlowChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of flow churn; skipped in -short mode")
	}
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
	cfg := experiment.Config{
		AQM:        aqm.KindFQCoDel,
		QueueBDP:   2,
		Bottleneck: 10 * units.GigabitPerSec,
		Duration:   2 * time.Second,
		Seed:       1,
		Flows:      &flows.Spec{Populations: pops},
		SoloFCT:    true,
	}

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	// The arrival schedule is part of the determinism contract.
	if last.FCT == nil {
		t.Fatal("churn run reported no FCT result")
	}
	if last.FCT.Opened != 3893 {
		t.Fatalf("churn run opened %d flows, want exactly 3893", last.FCT.Opened)
	}
	perFlow := allocs / float64(last.FCT.Opened)
	t.Logf("allocs/run = %.0f over %d opened flows → %.3f allocs per flow", allocs, last.FCT.Opened, perFlow)
	if perFlow > 1.0 {
		t.Errorf("flow churn allocation regression: %.3f allocs per opened flow (budget ≤ 1); "+
			"released flows, controllers and runner records must be recycled", perFlow)
	}
}

// TestAllocGuardFairnessSampling: the fairness observatory rides inside the
// per-packet budget. Its timer tick reads two cumulative counters per flow
// and appends to series preallocated for the whole run horizon, so an armed
// sampler adds only its one-time setup — amortized to noise over the run's
// half-million forwarded segments — and the steady state must hold the same
// ≤ 1 alloc per forwarded data packet as the baseline.
func TestAllocGuardFairnessSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Fairness = true
	cfg.FairnessWindow = 10 * time.Millisecond // 10× the default cadence

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	// 2 s at a 10 ms cadence: any other window count means the sampler's
	// timing or the run's horizon changed.
	if last.Fairness == nil || last.Fairness.Windows != 200 {
		t.Fatalf("fairness observatory sampled %+v, want exactly 200 windows", last.Fairness)
	}

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments (%d windows sampled) → %.3f allocs per forwarded data packet",
		allocs, segments, last.Fairness.Windows, perPacket)
	if perPacket > 1.0 {
		t.Errorf("fairness sampling allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1; the windowed series must be preallocated for the horizon)", perPacket)
	}
}

// TestAllocGuardFairnessDisabled: with the observatory off — even with the
// window knob set, proving it alone arms nothing — no sampler or timer is
// installed at all and the budget is exactly the baseline's ≤ 1.
func TestAllocGuardFairnessDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	cfg := allocGuardConfig()
	cfg.Fairness = false
	cfg.FairnessWindow = 10 * time.Millisecond // ignored while Fairness is false

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.Fairness != nil {
		t.Fatalf("fairness report present with the observatory off")
	}

	goodputBytes := (last.SenderBps[0] + last.SenderBps[1]) * cfg.Duration.Seconds() / 8
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("disabled fairness observatory is not free: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, identical to the pre-observatory baseline)", perPacket)
	}
}

// TestAllocGuardParkingLot: the graph builder's multi-bottleneck path —
// demux fan-out at divergent links, per-hop sender classes, three AQM
// instances in series — must hold the same steady-state budget as the
// dumbbell: at most one heap allocation per delivered data segment.
func TestAllocGuardParkingLot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2s of traffic; skipped in -short mode")
	}
	pl := topo.ParkingLotSpec(3)
	cfg := allocGuardConfig()
	cfg.Topology = &pl

	var last experiment.Result
	allocs := testing.AllocsPerRun(2, func() {
		res, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})

	var goodputBytes float64
	for _, g := range last.Groups {
		goodputBytes += g.Bps * cfg.Duration.Seconds() / 8
	}
	segments := goodputBytes / 8900
	if segments < 500 {
		t.Fatalf("implausibly few segments delivered: %.0f", segments)
	}
	perPacket := allocs / segments
	t.Logf("allocs/run = %.0f over %.0f segments → %.3f allocs per forwarded data packet",
		allocs, segments, perPacket)
	if perPacket > 1.0 {
		t.Errorf("parking-lot allocation regression: %.3f allocs per forwarded data packet "+
			"(budget ≤ 1, same as the dumbbell)", perPacket)
	}
}

// TestAllocGuardEngineReusePaths holds the event core's reuse paths to
// exactly zero heap allocations once warm: a chain of pooled handler
// events, a chain of closures scheduled with Schedule (a prebuilt func
// rides the same pool), a timer re-arming itself from its own expiry, a
// delay line whose
// every delivery pushes the next, and packets forwarded through two netem
// ports, both backlogged (serializer timer plus delay line per port) and
// idle (fused: delay line only). Each run dispatches thousands of events;
// AllocsPerRun's warm-up run grows the pools and rings.
func TestAllocGuardEngineReusePaths(t *testing.T) {
	const events = 4096
	paths := []struct {
		name string
		run  func() func()
	}{
		{"chained handler", func() func() {
			e := sim.NewEngine(1)
			n := 0
			var h sim.HandlerFunc
			h = func(any) {
				if n++; n < events {
					e.ScheduleHandler(time.Microsecond, h, nil)
				}
			}
			return func() {
				n = 0
				e.ScheduleHandler(time.Microsecond, h, nil)
				e.Run()
			}
		}},
		{"chained closure", func() func() {
			e := sim.NewEngine(1)
			n := 0
			var step func()
			step = func() {
				if n++; n < events {
					e.Schedule(time.Microsecond, step)
				}
			}
			return func() {
				n = 0
				e.Schedule(time.Microsecond, step)
				e.Run()
			}
		}},
		{"self-re-arming timer", func() func() {
			e := sim.NewEngine(1)
			n := 0
			var tm sim.Timer
			tm.Init(e, sim.HandlerFunc(func(any) {
				if n++; n < events {
					tm.Reset(time.Microsecond)
				}
			}), nil)
			return func() {
				n = 0
				tm.Reset(time.Microsecond)
				e.Run()
			}
		}},
		{"line delivery", func() func() {
			e := sim.NewEngine(1)
			n := 0
			var l sim.Line
			l.Init(e, sim.HandlerFunc(func(any) {
				if n++; n <= events-64 {
					l.PushAt(e.Now()+sim.Duration(time.Millisecond), nil)
				}
			}))
			return func() {
				n = 0
				for i := 0; i < 64; i++ {
					l.PushAt(e.Now()+sim.Time(i)*1000, nil)
				}
				e.Run()
			}
		}},
		{"netem port forwarding", func() func() {
			e := sim.NewEngine(1)
			pkts := make([]*packet.Packet, 0, events/4)
			for i := 0; i < cap(pkts); i++ {
				pkts = append(pkts, &packet.Packet{Kind: packet.Data, Flow: packet.FlowID(i % 8), Size: 9000})
			}
			back := make([]*packet.Packet, 0, len(pkts))
			sink := netem.ReceiverFunc(func(_ sim.Time, p *packet.Packet) { back = append(back, p) })
			hop2 := netem.NewPort(e, "hop2", 10*units.GigabitPerSec, time.Millisecond, nil, sink)
			hop1 := netem.NewPort(e, "hop1", 10*units.GigabitPerSec, time.Millisecond, nil, hop2)
			return func() {
				back = back[:0]
				for _, p := range pkts {
					hop1.Send(p)
				}
				e.Run()
				if len(back) != len(pkts) {
					t.Fatalf("forwarded %d of %d packets", len(back), len(pkts))
				}
			}
		}},
		{"idle fused-port forwarding", func() func() {
			e := sim.NewEngine(1)
			pkts := make([]*packet.Packet, 0, events/3)
			for i := 0; i < cap(pkts); i++ {
				pkts = append(pkts, &packet.Packet{Kind: packet.Data, Flow: packet.FlowID(i % 8), Size: 9000})
			}
			back := make([]*packet.Packet, 0, len(pkts))
			sink := netem.ReceiverFunc(func(_ sim.Time, p *packet.Packet) { back = append(back, p) })
			hop2 := netem.NewPort(e, "hop2", 10*units.GigabitPerSec, time.Millisecond, nil, sink)
			hop1 := netem.NewPort(e, "hop1", 10*units.GigabitPerSec, time.Millisecond, nil, hop2)
			// One packet every 10 µs; each serializes in 7.2 µs, so both
			// ports are idle at every arrival and finish it at dequeue.
			next := 0
			var tick sim.Timer
			tick.Init(e, sim.HandlerFunc(func(any) {
				hop1.Send(pkts[next])
				if next++; next < len(pkts) {
					tick.Reset(10 * time.Microsecond)
				}
			}), nil)
			return func() {
				back, next = back[:0], 0
				before := e.Executed()
				tick.Reset(10 * time.Microsecond)
				e.Run()
				if len(back) != len(pkts) {
					t.Fatalf("forwarded %d of %d packets", len(back), len(pkts))
				}
				// A send and one delivery per hop: no serializer events.
				if got, want := e.Executed()-before, 3*uint64(len(pkts)); got != want {
					t.Fatalf("dispatched %d events for %d packets, want %d", got, len(pkts), want)
				}
			}
		}},
	}
	for _, p := range paths {
		if allocs := testing.AllocsPerRun(20, p.run()); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run of %d events; the warm path must allocate nothing", p.name, allocs, events)
		}
	}
}

// TestAllocGuardLossRecovery holds one Reno sender and its receiver to
// zero heap allocations across repeated loss episodes once warm. The data
// path drops two segments three apart in every 97, so each episode marks
// segments lost (the retransmission queue) and leaves two out-of-order
// spans at the receiver; both must reuse their buffers after they drain.
// Packets come from a packet.Pool, as in a run.
func TestAllocGuardLossRecovery(t *testing.T) {
	eng := sim.NewEngine(1)
	pool := packet.NewPool(nil)
	var conn *tcp.Conn
	var rcv *tcp.Receiver
	ret := netem.NewPort(eng, "ret", 10*units.GigabitPerSec, 2*time.Millisecond, nil, netem.ReceiverFunc(func(now sim.Time, p *packet.Packet) { conn.Receive(now, p) }))
	fwd := netem.NewPort(eng, "fwd", units.GigabitPerSec, 2*time.Millisecond, aqm.NewFIFO(1<<30), netem.ReceiverFunc(func(now sim.Time, p *packet.Packet) { rcv.Receive(now, p) }))
	sent := 0
	conn = tcp.NewConn(eng, 1, tcp.Config{}, cca.NewReno(), func(p *packet.Packet) {
		if sent++; sent%97 == 0 || sent%97 == 3 {
			packet.Release(p)
			return
		}
		fwd.Send(p)
	})
	rcv = tcp.NewReceiver(eng, 1, 0, ret.Send)
	conn.UsePool(pool)
	rcv.UsePool(pool)
	conn.Start()
	eng.RunFor(time.Second) // grow the rings, pools and heap
	before := conn.Stats()
	episode := func() { eng.RunFor(20 * time.Millisecond) }
	if allocs := testing.AllocsPerRun(50, episode); allocs != 0 {
		t.Errorf("%.2f allocs per 20 ms of loss recovery; the warm path must allocate nothing", allocs)
	}
	if st := conn.Stats(); st.CongEvents-before.CongEvents < 20 || st.Retransmits-before.Retransmits < 40 {
		t.Fatalf("rig too clean: %d loss episodes and %d retransmits in 1 s", st.CongEvents-before.CongEvents, st.Retransmits-before.Retransmits)
	}
}

// TestAllocGuardAQMSteadyState holds every discipline's per-packet path to
// exactly zero heap allocations once its rings have grown. Each batch runs
// enqueue+dequeue pairs over a standing queue whose sojourn (one packet per
// millisecond behind 32) stays above CoDel's 5 ms target and whose RED
// average sits in the drop ramp, so every discipline but FIFO CE-marks ECT
// packets; it then offers non-ECT packets until one is dropped and drains
// back to the standing level. Packets come from a packet.Pool, as in a run,
// so every drop and dequeue recycles them.
func TestAllocGuardAQMSteadyState(t *testing.T) {
	const (
		standing = 32  // packets queued between batches
		pairs    = 256 // enqueue+dequeue pairs per batch
		size     = 1500
		runs     = 20
	)
	for _, kind := range []aqm.Kind{aqm.KindFIFO, aqm.KindRED, aqm.KindCoDel, aqm.KindFQCoDel} {
		// RED's defaults put the 48 kB standing queue between min_th
		// (capacity/12) and max_th (capacity/4).
		q, err := aqm.New(aqm.Config{Kind: kind, Capacity: 8 * standing * size, ECN: true, RED: aqm.REDParams{Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		pool := packet.NewPool(nil)
		offer := func(ecn packet.ECN) {
			p := pool.New()
			p.Kind, p.Flow, p.Size, p.ECN = packet.Data, 1, size, ecn
			q.Enqueue(now, p)
		}
		for q.Len() < standing {
			offer(packet.ECT0)
		}
		batch := func() {
			for i := 0; i < pairs; i++ {
				now += sim.Time(time.Millisecond)
				offer(packet.ECT0)
				packet.Release(q.Dequeue(now))
			}
			for d := q.Stats().Dropped; q.Stats().Dropped == d; {
				offer(packet.NotECT)
			}
			for q.Len() > standing {
				packet.Release(q.Dequeue(now))
			}
		}
		batch() // grow the rings and reach the steady state
		before := q.Stats()
		if allocs := testing.AllocsPerRun(runs, batch); allocs != 0 {
			t.Errorf("%s: %.1f allocs per batch of %d enqueue+dequeue pairs; the warm path must allocate nothing", kind, allocs, pairs)
		}
		after := q.Stats()
		if drops := after.Dropped - before.Dropped; drops < runs {
			t.Errorf("%s: %d drops over %d batches, want at least one per batch", kind, drops, runs)
		}
		if marks := after.Marked - before.Marked; kind != aqm.KindFIFO && marks < runs {
			t.Errorf("%s: %d ECN marks over %d batches, want at least one per batch", kind, marks, runs)
		}
	}
}

// TestAllocGuardPacketPool pins the run's packet pool: once warm, a
// New/Release cycle allocates nothing; the free stack is LIFO; New zeroes
// a packet however dirty it came back; and Release ignores nil and
// unowned packets.
func TestAllocGuardPacketPool(t *testing.T) {
	pool := packet.NewPool(nil)
	batch := make([]*packet.Packet, 300) // more than one slab
	cycle := func() {
		for i := range batch {
			batch[i] = pool.New()
		}
		for _, p := range batch {
			packet.Release(p)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%.1f allocs per cycle of %d packets from a warm pool, want 0", allocs, len(batch))
	}
	if out := pool.Out(); out != 0 {
		t.Errorf("%d packets out after every one was released", out)
	}

	a, b := pool.New(), pool.New()
	packet.Release(a)
	packet.Release(b)
	if got := pool.New(); got != b {
		t.Error("New did not return the packet released last")
	}
	if got := pool.New(); got != a {
		t.Error("New did not return the packet released second to last")
	}

	// Dirty every exported field through the pointer (a struct literal
	// assigned over it would also wipe the pool's bookkeeping).
	dirty := reflect.ValueOf(a).Elem()
	for i := 0; i < dirty.NumField(); i++ {
		if f := dirty.Field(i); f.CanSet() {
			switch {
			case f.Kind() == reflect.Bool:
				f.SetBool(true)
			case f.CanInt():
				f.SetInt(int64(i + 1))
			default:
				f.SetUint(uint64(i + 1))
			}
		}
	}
	packet.Release(a)
	got := pool.New()
	if got != a {
		t.Fatal("New did not return the packet released last")
	}
	clean := reflect.ValueOf(got).Elem()
	for i := 0; i < clean.NumField(); i++ {
		if f := clean.Field(i); f.CanSet() && !f.IsZero() {
			t.Errorf("reused packet keeps %s = %v", clean.Type().Field(i).Name, f)
		}
	}
	// A reused packet still goes back to its pool.
	packet.Release(a)
	if got := pool.New(); got != a {
		t.Error("a reused packet lost its owner")
	}

	out := pool.Out()
	packet.Release(nil)
	stray := packet.New()
	packet.Release(stray)
	packet.Release(stray) // unowned: no double-release check either
	if pool.Out() != out {
		t.Errorf("releasing nil or an unowned packet moved the pool: %d out, want %d", pool.Out(), out)
	}
	if got := pool.New(); got == stray {
		t.Error("an unowned packet entered the pool")
	}
}

// elementRecorder is a discarding http.ResponseWriter that remembers where
// each result-set element it was handed lives: an element write is a chunk
// starting with '{' (the frame's own writes never do, past "{\n"). Its
// slice is preallocated, so recording allocates nothing.
type elementRecorder struct {
	header http.Header
	code   int
	elems  []*byte
}

func (w *elementRecorder) Header() http.Header  { return w.header }
func (w *elementRecorder) WriteHeader(code int) { w.code = code }
func (w *elementRecorder) Write(p []byte) (int, error) {
	if len(p) > 2 && p[0] == '{' {
		w.elems = append(w.elems, &p[0])
	}
	return len(p), nil
}

// TestAllocGuardCachedResults: a repeat GET /results of a warm job splices
// the bytes each cached entry encoded once, so it allocates under 64 bytes
// per result (re-encoding the set allocated ~5.2 KB per result), and three
// fetches hand over the very same element bytes.
func TestAllocGuardCachedResults(t *testing.T) {
	spec := experiment.GridSpec{Bandwidths: "100Mbps", Duration: "300ms"}
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) < 100 {
		t.Fatalf("grid expands to %d configs, want at least 100", len(cfgs))
	}
	journal := filepath.Join(t.TempDir(), "warm.journal")
	ck, err := experiment.OpenCheckpoint(journal)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if err := ck.Append(experiment.Result{Config: cfg.Recorded(), SenderBps: [2]float64{4.1e7, 4.9e7},
			Jain: 0.99, FlowJain: 0.98, Utilization: 0.9, Retransmits: [2]uint64{3, 4}, TotalRetransmits: 7,
			PeakQueueBytes: 50000, Flows: 2, SimSeconds: 0.3, Events: uint64(10000 + i), Wall: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := svc.New(svc.Options{Journal: journal, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	body, _ := json.Marshal(spec)
	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
	var st svc.Status
	if err := json.Unmarshal(post.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != svc.StateDone || st.Cached != len(cfgs) {
		t.Fatalf("warm submit: %+v", st)
	}

	var fetched [3][]*byte
	var alloc uint64
	for i := range fetched {
		req := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+st.ID+"/results", nil)
		w := &elementRecorder{header: http.Header{}, elems: make([]*byte, 0, len(cfgs))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("fetch %d: status %d", i, w.code)
		}
		if i > 0 {
			alloc += after.TotalAlloc - before.TotalAlloc
		}
		fetched[i] = w.elems
	}
	for i, elems := range fetched {
		if len(elems) != len(cfgs) {
			t.Fatalf("fetch %d wrote %d elements, want %d", i, len(elems), len(cfgs))
		}
		for k := range elems {
			if elems[k] != fetched[0][k] {
				t.Fatalf("fetch %d served element %d from new bytes: a cached entry was encoded again", i, k)
			}
		}
	}
	perResult := float64(alloc) / 2 / float64(len(cfgs))
	t.Logf("repeat fetch: %.1f B allocated per result over %d results", perResult, len(cfgs))
	if perResult >= 64 {
		t.Errorf("cached /results allocates %.1f B per result (budget < 64): the warm path must splice "+
			"each entry's stored element, not re-encode", perResult)
	}
}
