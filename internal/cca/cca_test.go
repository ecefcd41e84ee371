package cca

import (
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("want 5 algorithms, got %v", names)
	}
	for _, n := range names {
		cc, err := New(n)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if cc.Name() != string(n) {
			t.Errorf("Name mismatch: %q vs %q", cc.Name(), n)
		}
		if MustNew(n).Name() != string(n) {
			t.Errorf("%s: MustNew name mismatch", n)
		}
	}
	if _, err := New("vegas"); err == nil {
		t.Error("unknown name should error")
	}
	if _, err := Parse("cubic"); err != nil {
		t.Error("Parse(cubic) should succeed")
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse(nope) should fail")
	}
}

// --- single-flow integration harness ---

type flowSim struct {
	eng  *sim.Engine
	conn *tcp.Conn
	rcv  *tcp.Receiver
	bott *netem.Port
}

// newFlowSim wires one sender through a bottleneck of the given rate, with a
// queue of qBDP × BDP, and a 62 ms round trip.
func newFlowSim(rate units.Bandwidth, qBDP float64, cc tcp.CongestionControl) *flowSim {
	eng := sim.NewEngine(1)
	rtt := 62 * time.Millisecond
	owd := rtt / 2
	qbytes := units.QueueBytes(rate, rtt, qBDP, 8960)

	fs := &flowSim{eng: eng}
	back := netem.NewPort(eng, "back", 100*units.GigabitPerSec, owd, nil, nil)
	fs.bott = netem.NewPort(eng, "bott", rate, owd, aqm.NewFIFO(qbytes), nil)
	fs.conn = tcp.NewConn(eng, 1, tcp.Config{}, cc, func(p *packet.Packet) { fs.bott.Send(p) })
	fs.rcv = tcp.NewReceiver(eng, 1, 60, func(p *packet.Packet) { back.Send(p) })
	fs.bott.SetDst(fs.rcv)
	back.SetDst(fs.conn)
	return fs
}

func (fs *flowSim) run(d time.Duration) { fs.conn.Start(); fs.eng.RunFor(d) }

func (fs *flowSim) goodputBps(d time.Duration) float64 {
	return float64(fs.rcv.Goodput()) * 8 / d.Seconds()
}

func TestEveryCCAFillsTheLink(t *testing.T) {
	// Reproduction anchor: with FIFO and a 2·BDP buffer, every CCA reaches
	// near-full utilization of a 100 Mbps / 62 ms path (paper Fig. 7a).
	for _, name := range Names() {
		t.Run(string(name), func(t *testing.T) {
			fs := newFlowSim(100*units.MegabitPerSec, 2, MustNew(name))
			dur := 30 * time.Second
			fs.run(dur)
			util := fs.goodputBps(dur) / 100e6
			if util < 0.80 {
				t.Fatalf("%s: utilization %.3f < 0.80", name, util)
			}
			if util > 1.0 {
				t.Fatalf("%s: utilization %.3f > 1 (accounting bug)", name, util)
			}
		})
	}
}

func TestEveryCCASurvivesTinyBuffer(t *testing.T) {
	// 0.5·BDP buffer: all CCAs must still make solid progress (the paper's
	// smallest buffer point).
	for _, name := range Names() {
		t.Run(string(name), func(t *testing.T) {
			fs := newFlowSim(100*units.MegabitPerSec, 0.5, MustNew(name))
			dur := 30 * time.Second
			fs.run(dur)
			util := fs.goodputBps(dur) / 100e6
			if util < 0.35 {
				t.Fatalf("%s: utilization %.3f too low even for 0.5 BDP", name, util)
			}
		})
	}
}

// --- Reno ---

func TestRenoUnitGrowth(t *testing.T) {
	fs := newFlowSim(100*units.MegabitPerSec, 4, NewReno())
	fs.conn.SetSSThresh(20 * fs.conn.MSS()) // force early CA entry
	fs.run(10 * time.Second)
	st := fs.conn.Stats()
	if st.BytesAcked == 0 {
		t.Fatal("no progress")
	}
}

func TestRenoHalvesOnCongestion(t *testing.T) {
	r := NewReno()
	fs := newFlowSim(100*units.MegabitPerSec, 1, r)
	fs.conn.SetCwnd(100 * fs.conn.MSS())
	before := fs.conn.Cwnd()
	r.OnCongestionEvent(fs.conn)
	if got := fs.conn.Cwnd(); got != before/2 {
		t.Fatalf("cwnd after loss = %d, want %d", got, before/2)
	}
	r.OnRTO(fs.conn)
	if fs.conn.Cwnd() != fs.conn.MSS() {
		t.Fatal("RTO must collapse to 1 MSS")
	}
}

// --- CUBIC ---

func TestCubicBetaReduction(t *testing.T) {
	cu := NewCubic()
	fs := newFlowSim(100*units.MegabitPerSec, 1, cu)
	fs.conn.SetCwnd(100 * fs.conn.MSS())
	before := fs.conn.Cwnd()
	cu.OnCongestionEvent(fs.conn)
	want := int64(float64(before) * cubicBeta)
	got := fs.conn.Cwnd()
	if got < want-fs.conn.MSS() || got > want+fs.conn.MSS() {
		t.Fatalf("cwnd after loss = %d, want ≈ %d (0.7×)", got, want)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	cu := NewCubic().(*cubic)
	fs := newFlowSim(100*units.MegabitPerSec, 1, cu)
	mss := float64(fs.conn.MSS())
	fs.conn.SetCwnd(int64(100 * mss))
	cu.OnCongestionEvent(fs.conn) // wMax anchored at 100
	first := cu.wMax
	// Second loss at a lower window: fast convergence shrinks wMax below
	// the current window.
	fs.conn.SetCwnd(int64(80 * mss))
	cu.OnCongestionEvent(fs.conn)
	if cu.wMax >= first {
		t.Fatalf("wMax did not shrink: %.1f -> %.1f", first, cu.wMax)
	}
	if cu.wMax >= 80 {
		t.Fatalf("fast convergence should anchor below the loss window: %.1f", cu.wMax)
	}
}

func TestCubicGrowthAcceleratesPastK(t *testing.T) {
	// After a loss, CUBIC is concave (fast, then flat near wMax) and then
	// convex. Check the window at wMax-crossing time is near wMax.
	cu := NewCubic().(*cubic)
	fs := newFlowSim(500*units.MegabitPerSec, 4, cu)
	dur := 40 * time.Second
	fs.run(dur)
	if cu.wMax == 0 {
		t.Skip("no congestion event occurred")
	}
	util := fs.goodputBps(dur) / 500e6
	if util < 0.80 {
		t.Fatalf("cubic utilization %.3f", util)
	}
}

// --- HTCP ---

func TestHTCPAlphaSchedule(t *testing.T) {
	h := NewHTCP().(*htcp)
	if got := h.alpha(500 * time.Millisecond); got != 1 {
		t.Fatalf("alpha below ΔL = %v", got)
	}
	if got := h.alpha(time.Second); got != 1 {
		t.Fatalf("alpha at ΔL = %v", got)
	}
	// Δ = 2s: 1 + 10·1 + 0.25·1 = 11.25.
	if got := h.alpha(2 * time.Second); got < 11.24 || got > 11.26 {
		t.Fatalf("alpha(2s) = %v, want 11.25", got)
	}
	// Δ = 3s: 1 + 20 + 0.25·4 = 22.
	if got := h.alpha(3 * time.Second); got < 21.9 || got > 22.1 {
		t.Fatalf("alpha(3s) = %v, want 22", got)
	}
	// Monotone.
	prev := 0.0
	for d := time.Second; d < 20*time.Second; d += 100 * time.Millisecond {
		a := h.alpha(d)
		if a < prev {
			t.Fatalf("alpha not monotone at %v", d)
		}
		prev = a
	}
}

func TestHTCPBetaClamped(t *testing.T) {
	h := NewHTCP().(*htcp)
	fs := newFlowSim(100*units.MegabitPerSec, 1, h)
	// Huge RTT spread: beta must clamp at 0.5.
	h.rttMin, h.rttMax = 10*time.Millisecond, 500*time.Millisecond
	if b := h.adaptiveBeta(fs.conn, 0); b != htcpBetaMin {
		t.Fatalf("beta = %v, want clamp at %v", b, htcpBetaMin)
	}
	// Tiny spread: clamp at 0.8.
	h2 := NewHTCP().(*htcp)
	h2.rttMin, h2.rttMax = 100*time.Millisecond, 101*time.Millisecond
	if b := h2.adaptiveBeta(fs.conn, 0); b != htcpBetaMax {
		t.Fatalf("beta = %v, want clamp at %v", b, htcpBetaMax)
	}
}

// --- BBRv1 ---

func TestBBRv1ReachesProbeBW(t *testing.T) {
	b := NewBBRv1().(*bbr1)
	fs := newFlowSim(100*units.MegabitPerSec, 2, b)
	fs.run(5 * time.Second)
	if b.State() != "probe_bw" && b.State() != "probe_rtt" {
		t.Fatalf("state after 5s = %s, want probe_bw", b.State())
	}
	// The bandwidth model must be near the link rate.
	est := b.BtlBw().Mbps()
	if est < 90 || est > 110 {
		t.Fatalf("BtlBw estimate = %.1f Mbps, want ≈100", est)
	}
}

func TestBBRv1RespectsTwoBDPInflightCap(t *testing.T) {
	b := NewBBRv1().(*bbr1)
	fs := newFlowSim(100*units.MegabitPerSec, 16, b)
	fs.run(3 * time.Second) // past startup
	bdp := int64(units.BDP(100*units.MegabitPerSec, 62*time.Millisecond))
	maxInflight := int64(0)
	for i := 0; i < 200; i++ {
		fs.eng.RunFor(50 * time.Millisecond)
		if f := fs.conn.Inflight(); f > maxInflight {
			maxInflight = f
		}
	}
	// cwnd gain is 2; allow some slack for the 1.25 probe phase.
	if maxInflight > int64(2.6*float64(bdp)) {
		t.Fatalf("inflight %d greatly exceeds 2×BDP (%d): cap broken", maxInflight, 2*bdp)
	}
	if maxInflight < bdp {
		t.Fatalf("inflight %d below 1 BDP: underutilizing", maxInflight)
	}
}

func TestBBRv1IgnoresLoss(t *testing.T) {
	b := NewBBRv1()
	fs := newFlowSim(100*units.MegabitPerSec, 2, b)
	fs.run(5 * time.Second)
	w := fs.conn.Cwnd()
	b.OnCongestionEvent(fs.conn)
	if fs.conn.Cwnd() != w {
		t.Fatal("BBRv1 must not react to individual loss events")
	}
}

func TestBBRv1MinRTTTracking(t *testing.T) {
	b := NewBBRv1().(*bbr1)
	fs := newFlowSim(100*units.MegabitPerSec, 8, b)
	fs.run(10 * time.Second)
	if b.rtProp < 62*time.Millisecond || b.rtProp > 75*time.Millisecond {
		t.Fatalf("RTprop = %v, want ≈62ms", b.rtProp)
	}
}

// --- BBRv2 ---

func TestBBRv2LossThresholdCutsInflightHi(t *testing.T) {
	b := NewBBRv2().(*bbr2)
	fs := newFlowSim(100*units.MegabitPerSec, 1, b)
	// Simulate a round with 10% loss.
	b.filled = true
	b.state = bbrProbeBW
	b.phase = bbr2Up
	b.rtProp = 62 * time.Millisecond
	b.btlBw.Update(0, 100_000_000)
	b.lostThisRound = 100_000
	b.deliveredThisRound = 900_000
	b.evaluateRound(fs.conn, tcp.AckSample{Now: fs.eng.Now(), Inflight: 775_000})
	if b.inflightHi == 0 {
		t.Fatal("10% loss round did not set inflight_hi")
	}
	if b.phase != bbr2Down {
		t.Fatalf("excessive loss in Up should force Down, got %v", b.phase)
	}
}

func TestBBRv2IgnoresSubThresholdLoss(t *testing.T) {
	b := NewBBRv2().(*bbr2)
	fs := newFlowSim(100*units.MegabitPerSec, 1, b)
	b.filled = true
	b.state = bbrProbeBW
	b.phase = bbr2Cruise
	// 1% loss — below the 2% threshold: no reaction.
	b.lostThisRound = 10_000
	b.deliveredThisRound = 990_000
	b.evaluateRound(fs.conn, tcp.AckSample{Now: fs.eng.Now(), Inflight: 775_000})
	if b.inflightHi != 0 {
		t.Fatalf("sub-threshold loss set inflight_hi=%d", b.inflightHi)
	}
}

func TestBBRv2CyclesThroughPhases(t *testing.T) {
	b := NewBBRv2().(*bbr2)
	fs := newFlowSim(100*units.MegabitPerSec, 2, b)
	seen := map[string]bool{}
	fs.conn.Start()
	for i := 0; i < 600; i++ {
		fs.eng.RunFor(50 * time.Millisecond)
		seen[b.State()] = true
	}
	for _, want := range []string{"probe_bw:down", "probe_bw:cruise", "probe_bw:refill", "probe_bw:up"} {
		if !seen[want] {
			t.Errorf("phase %s never visited (saw %v)", want, seen)
		}
	}
}

func TestBBRv2FewerRetransmitsThanBBRv1(t *testing.T) {
	// Paper Table 3: BBRv1 retransmits an order of magnitude more than
	// BBRv2 in the same FIFO setting.
	run := func(cc tcp.CongestionControl) uint64 {
		fs := newFlowSim(100*units.MegabitPerSec, 1, cc)
		fs.run(30 * time.Second)
		return fs.conn.Stats().Retransmits
	}
	r1 := run(NewBBRv1())
	r2 := run(NewBBRv2())
	if r2 > r1 {
		t.Fatalf("BBRv2 retransmits (%d) exceed BBRv1 (%d)", r2, r1)
	}
}

func TestStateStrings(t *testing.T) {
	if bbrStartup.String() != "startup" || bbrDrain.String() != "drain" ||
		bbrProbeBW.String() != "probe_bw" || bbrProbeRTT.String() != "probe_rtt" {
		t.Error("bbrState strings wrong")
	}
	if bbr2Down.String() != "down" || bbr2Cruise.String() != "cruise" ||
		bbr2Refill.String() != "refill" || bbr2Up.String() != "up" {
		t.Error("bbr2Phase strings wrong")
	}
}

func BenchmarkCCAOnAck(b *testing.B) {
	for _, name := range Names() {
		b.Run(string(name), func(b *testing.B) {
			cc := MustNew(name)
			fs := newFlowSim(100*units.MegabitPerSec, 2, cc)
			fs.run(2 * time.Second)
			s := tcp.AckSample{
				Now:          fs.eng.Now(),
				AckedBytes:   8900,
				RTT:          63 * time.Millisecond,
				DeliveryRate: 99 * units.MegabitPerSec,
				Inflight:     775_000,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cc.OnAck(fs.conn, s)
			}
		})
	}
}

// probeRTTWatch wraps the first flow's BBR controller and records, per
// ProbeRTT episode, the model quantities the flight recorder does not carry:
// the RTprop stamp at entry, when inflight first fits the ProbeRTT window,
// the round starts of the hold, and the cwnd target on exit.
type probeRTTWatch struct {
	tcp.CongestionControl
	core   *bbrCore
	window func(c *tcp.Conn) int64 // the spec's ProbeRTT window
	bound  func() int64            // the version's cwnd bound (0 = none)

	eps []probeRTTEpisode
}

type probeRTTEpisode struct {
	enter, hold, exit sim.Time
	stamp             sim.Time // RTprop stamp the core held at entry
	rounds            int      // round starts after the hold began, up to exit
	maxWindow         int64    // largest ProbeRTT window seen in the episode
	exitAcked         int64    // bytes the exit ACK acknowledged
	exitTarget        int64    // model cwnd target right after exit
	exitState         bbrState
}

func (w *probeRTTWatch) OnAck(c *tcp.Conn, s tcp.AckSample) {
	was := w.core.state
	w.CongestionControl.OnAck(c, s)
	now := w.core.state
	switch {
	case was != bbrProbeRTT && now == bbrProbeRTT:
		w.eps = append(w.eps, probeRTTEpisode{enter: s.Now, stamp: w.core.rtPropStamp, maxWindow: w.window(c)})
	case was == bbrProbeRTT:
		ep := &w.eps[len(w.eps)-1]
		ep.maxWindow = max(ep.maxWindow, w.window(c))
		if ep.hold != 0 && s.RoundStart {
			ep.rounds++
		}
		if ep.hold == 0 && s.Inflight <= w.window(c) {
			ep.hold = s.Now
		}
		if now != bbrProbeRTT {
			// The cwnd law: max(min(2·BDP, bound), 4 segments).
			target := w.core.bdpBytes(2)
			if b := w.bound(); b > 0 {
				target = min(target, b)
			}
			ep.exit, ep.exitAcked, ep.exitState = s.Now, s.AckedBytes, now
			ep.exitTarget = max(target, 4*c.MSS())
		}
	}
}

// recordedProbeRTT is one ProbeRTT episode as the flight recorder saw it.
type recordedProbeRTT struct {
	enter, exit sim.Time
	prior       int64 // cwnd before entry
	maxCwnd     int64 // largest cwnd while in ProbeRTT
	beforeExit  int64 // cwnd just before the exit ACK
	exitCwnd    int64 // cwnd after the exit ACK
}

// runProbeRTT runs two same-CCA flows through one 100 Mbps, 4×BDP FIFO
// bottleneck (a standing queue keeps the min-RTT estimate stale, the
// condition for ProbeRTT) with the flight recorder on, and returns flow 1's
// ProbeRTT episodes from both the recorder and the watch.
func runProbeRTT(t *testing.T, mk func() tcp.CongestionControl, w *probeRTTWatch, dur time.Duration) []recordedProbeRTT {
	t.Helper()
	eng := sim.NewEngine(1)
	trc := telemetry.New(telemetry.Options{})
	eng.SetTracer(trc)
	rate := 100 * units.MegabitPerSec
	rtt := 62 * time.Millisecond
	owd := rtt / 2
	qbytes := units.QueueBytes(rate, rtt, 4, 8960)
	back := netem.NewPort(eng, "back", 100*units.GigabitPerSec, owd, nil, nil)
	bott := netem.NewPort(eng, "bott", rate, owd, aqm.NewFIFO(qbytes), nil)

	type demux struct {
		m map[packet.FlowID]netem.Receiver
	}
	srv := &demux{m: map[packet.FlowID]netem.Receiver{}}
	cli := &demux{m: map[packet.FlowID]netem.Receiver{}}
	recv := func(d *demux) netem.ReceiverFunc {
		return func(now sim.Time, p *packet.Packet) {
			if r, ok := d.m[p.Flow]; ok {
				r.Receive(now, p)
			} else {
				packet.Release(p)
			}
		}
	}
	bott.SetDst(recv(srv))
	back.SetDst(recv(cli))
	for id := packet.FlowID(1); id <= 2; id++ {
		var cc tcp.CongestionControl = w
		if id == 2 {
			cc = mk()
		}
		conn := tcp.NewConn(eng, id, tcp.Config{}, cc, func(p *packet.Packet) { bott.Send(p) })
		rcv := tcp.NewReceiver(eng, id, 60, func(p *packet.Packet) { back.Send(p) })
		srv.m[id] = rcv
		cli.m[id] = conn
		conn.Start()
	}

	// Drain flow 1's ring every 50 ms, well before it can wrap.
	var (
		eps      []recordedProbeRTT
		cwnd     int64
		inProbe  bool
		consumed uint64
	)
	for i := 0; i < int(dur/(50*time.Millisecond)); i++ {
		eng.RunFor(50 * time.Millisecond)
		d := trc.Dump()
		r := d.Rings[0]
		if r.Name != "flow:1" {
			t.Fatalf("first ring is %s, want flow:1", r.Name)
		}
		fresh := r.Total - consumed
		if fresh > uint64(len(r.Events)) {
			t.Fatalf("flow ring wrapped between drains (%d new events, cap %d)", fresh, r.Cap)
		}
		for _, e := range r.Events[uint64(len(r.Events))-fresh:] {
			switch e.Kind {
			case telemetry.KindCwnd:
				cwnd = e.A
				if inProbe {
					eps[len(eps)-1].maxCwnd = max(eps[len(eps)-1].maxCwnd, cwnd)
				}
				if n := len(eps); n > 0 && !inProbe && eps[n-1].exit == sim.Time(e.At) {
					eps[n-1].exitCwnd = cwnd
				}
			case telemetry.KindCCAState:
				// The state event is traced inside OnAck; the ACK's cwnd
				// event follows it.
				probe := d.States[e.B] == "probe_rtt"
				if probe && !inProbe {
					eps = append(eps, recordedProbeRTT{enter: sim.Time(e.At), prior: cwnd})
				} else if !probe && inProbe {
					ep := &eps[len(eps)-1]
					ep.exit, ep.beforeExit, ep.exitCwnd = sim.Time(e.At), cwnd, cwnd
				}
				inProbe = probe
			}
		}
		consumed = r.Total
	}
	return eps
}

// TestBBRv1ProbeRTTCycle: with a competitor keeping a standing queue,
// RTprop goes stale after 10 s and BBRv1 must dip into ProbeRTT at 4
// segments and come back out to ProbeBW.
func TestBBRv1ProbeRTTCycle(t *testing.T) {
	checkProbeRTTCycle(t, NewBBRv1, 10*time.Second,
		func(b *bbrCore, c *tcp.Conn) int64 { return 4 * c.MSS() }, 35*time.Second)
}

// TestBBRv2ProbeRTTCycle: the same with BBRv2's 5 s min-RTT window and its
// max(0.5·BDP, 4 segments) ProbeRTT window.
func TestBBRv2ProbeRTTCycle(t *testing.T) {
	checkProbeRTTCycle(t, NewBBRv2, 5*time.Second,
		func(b *bbrCore, c *tcp.Conn) int64 { return max(b.bdpBytes(0.5), 4*c.MSS()) }, 25*time.Second)
}

// checkProbeRTTCycle checks a BBR version's ProbeRTT against the draft:
// entry only once RTprop is minRTTWin old, cwnd held to window, a hold of
// at least 200 ms and one round once inflight fits it, and on exit the
// pre-ProbeRTT window back, capped by the model's cwnd target.
func checkProbeRTTCycle(t *testing.T, mk func() tcp.CongestionControl, minRTTWin time.Duration,
	window func(b *bbrCore, c *tcp.Conn) int64, dur time.Duration) {
	t.Helper()
	cc := mk()
	w := &probeRTTWatch{CongestionControl: cc, bound: func() int64 { return 0 }}
	switch b := cc.(type) {
	case *bbr1:
		w.core = &b.bbrCore
	case *bbr2:
		w.core = &b.bbrCore
		w.bound = b.cwndBound
	}
	w.window = func(c *tcp.Conn) int64 { return window(w.core, c) }
	rec := runProbeRTT(t, mk, w, dur)

	if len(rec) == 0 || rec[0].exit == 0 {
		t.Fatalf("no complete ProbeRTT episode in %v (recorded %+v)", dur, rec)
	}
	if len(rec) != len(w.eps) {
		t.Fatalf("recorder saw %d episodes, controller %d", len(rec), len(w.eps))
	}
	backToProbeBW := 0
	for i, r := range rec {
		ep := w.eps[i]
		if r.enter != ep.enter || r.exit != ep.exit {
			t.Errorf("episode %d: recorder [%v,%v] vs controller [%v,%v]", i, r.enter, r.exit, ep.enter, ep.exit)
		}
		if age := time.Duration(ep.enter - ep.stamp); age <= minRTTWin {
			t.Errorf("episode %d: entered %v after the last RTprop refresh, want > %v", i, age, minRTTWin)
		}
		if r.maxCwnd > ep.maxWindow {
			t.Errorf("episode %d: cwnd %d in ProbeRTT exceeds the window %d", i, r.maxCwnd, ep.maxWindow)
		}
		if r.exit == 0 {
			continue // still in ProbeRTT at the end of the run
		}
		if ep.hold == 0 {
			t.Errorf("episode %d: left ProbeRTT before inflight fit the window", i)
			continue
		}
		if held := time.Duration(r.exit - ep.hold); held <= 200*time.Millisecond {
			t.Errorf("episode %d: held %v once inflight fit, want > 200ms", i, held)
		}
		if ep.rounds < 1 {
			t.Errorf("episode %d: left ProbeRTT within the round it began holding", i)
		}
		if ep.exitState != bbrProbeBW {
			continue // back to Startup: the target is not yet a cap
		}
		backToProbeBW++
		if want := min(max(r.prior, r.beforeExit)+ep.exitAcked, ep.exitTarget); r.exitCwnd != want {
			t.Errorf("episode %d: cwnd %d on exit, want min(pre-ProbeRTT %d + acked %d, target %d) = %d",
				i, r.exitCwnd, r.prior, ep.exitAcked, ep.exitTarget, want)
		}
	}
	if backToProbeBW == 0 {
		t.Error("no ProbeRTT episode returned to ProbeBW")
	}
}

func TestBBRv1RTOConservation(t *testing.T) {
	b := NewBBRv1().(*bbr1)
	fs := newFlowSim(100*units.MegabitPerSec, 1, b)
	fs.run(3 * time.Second)
	round := fs.conn.RoundCount()
	b.OnRTO(fs.conn)
	if fs.conn.Cwnd() != fs.conn.MSS() {
		t.Fatal("RTO must collapse cwnd to 1 MSS")
	}
	if b.conservationUntilRound != round+1 {
		t.Fatalf("conservation window: %d, want %d", b.conservationUntilRound, round+1)
	}
}

func TestBBRv2RTOClampsBound(t *testing.T) {
	b := NewBBRv2().(*bbr2)
	fs := newFlowSim(100*units.MegabitPerSec, 2, b)
	fs.run(3 * time.Second)
	b.OnRTO(fs.conn)
	if fs.conn.Cwnd() != fs.conn.MSS() {
		t.Fatal("RTO must collapse cwnd")
	}
	if b.inflightHi == 0 {
		t.Fatal("RTO should clamp inflight_hi (unambiguous congestion)")
	}
}

func TestCubicVariantNames(t *testing.T) {
	if MustNew(CubicNoHyStart).Name() != string(CubicNoHyStart) {
		t.Error("variant name not reported")
	}
	if MustNew(CubicNoFastConv).Name() != string(CubicNoFastConv) {
		t.Error("variant name not reported")
	}
}
