package topo

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cca"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

func auditedDumbbell(t *testing.T) (*sim.Engine, *audit.Auditor, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	aud := audit.New(t.Name())
	eng.SetAuditor(aud)
	return eng, aud, dumbbell(t, eng, Params{Bottleneck: 100 * units.MegabitPerSec, Queue: fifo2BDP})
}

// finish settles the auditor, converting a violation panic into a test
// error (or, when expect is true, into success).
func finish(t *testing.T, aud *audit.Auditor, expectViolation bool) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			if expectViolation {
				t.Fatal("auditor settled; want a conservation violation")
			}
			return
		}
		v, ok := r.(*audit.Violation)
		if !ok {
			panic(r)
		}
		if !expectViolation {
			t.Fatalf("audit violation: %v", v)
		}
	}()
	aud.Finish()
}

// TestEphemeralFlowLifecycleSettles is the dynamic-flow audit story: with
// one elephant holding the link, an ephemeral flow that completes and is
// released, and another torn down mid-transfer with packets still in
// flight, the conservation ledger must settle — strays drain through the
// demux unknown-flow path.
func TestEphemeralFlowLifecycleSettles(t *testing.T) {
	eng, aud, d := auditedDumbbell(t)

	elephant := d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic))
	elephant.Conn.Start()

	// Ephemeral flow 1: a 200 KB mouse that completes and is released.
	completed := false
	e1 := d.AddEphemeralFlow(1, tcp.Config{LimitBytes: 200_000}, cca.MustNew(cca.Cubic))
	aud.FlowOpened()
	e1.Conn.OnDone(func(*tcp.Conn) {
		completed = true
		aud.FlowClosed()
		d.ReleaseFlow(e1)
	})
	e1.Conn.Start()

	// Ephemeral flow 2: a large transfer released mid-flight at t=1s, with
	// a full window of data and ACK packets still traversing the path.
	e2 := d.AddEphemeralFlow(0, tcp.Config{LimitBytes: 1 << 30}, cca.MustNew(cca.Cubic))
	aud.FlowOpened()
	e2.Conn.Start()
	eng.Schedule(time.Second, func() {
		aud.FlowClosed()
		d.ReleaseFlow(e2)
	})

	eng.RunFor(3 * time.Second)
	finish(t, aud, false)

	if !completed {
		t.Fatal("200KB ephemeral flow did not complete in 3s")
	}
	if got := aud.FlowsOpened(); got != 2 {
		t.Fatalf("FlowsOpened = %d, want 2", got)
	}
	if got := aud.FlowsOpen(); got != 0 {
		t.Fatalf("FlowsOpen = %d, want 0", got)
	}
	// Ephemeral flows must not pollute the long-running flow accounting.
	if got := len(d.Flows()); got != 1 {
		t.Fatalf("Flows() lists %d flows, want just the elephant", got)
	}
	if got := len(d.ClassFlows(0)); got != 1 {
		t.Fatalf("ClassFlows(0) lists %d flows, want 1", got)
	}
	if got := len(d.ClassFlows(1)); got != 0 {
		t.Fatalf("ClassFlows(1) lists %d flows, want 0", got)
	}
}

// TestReleasedFlowStopsTransmitting: after ReleaseFlow, the sender's
// retransmit timers are dead and its receiver no longer advances — the
// flow is truly gone, not idling.
func TestReleasedFlowStopsTransmitting(t *testing.T) {
	eng, aud, d := auditedDumbbell(t)
	e := d.AddEphemeralFlow(0, tcp.Config{LimitBytes: 1 << 30}, cca.MustNew(cca.Cubic))
	aud.FlowOpened()
	e.Conn.Start()
	var atRelease int64
	eng.Schedule(time.Second, func() {
		aud.FlowClosed()
		d.ReleaseFlow(e)
		atRelease = e.Rcv.Goodput()
	})
	eng.RunFor(4 * time.Second)
	finish(t, aud, false)
	if got := e.Rcv.Goodput(); got != atRelease {
		t.Fatalf("receiver advanced after release: %d -> %d bytes", atRelease, got)
	}
}

// TestLeakedSegmentTripsConservation is the regression guard for the
// teardown accounting: if the demux fallback ever stops reporting
// unknown-flow packets as consumed (simulated white-box by clearing the
// demux's auditor hook before a mid-flight release), the leaked in-flight
// segments must trip the packet-conservation check at Finish.
func TestLeakedSegmentTripsConservation(t *testing.T) {
	eng, aud, d := auditedDumbbell(t)
	e := d.AddEphemeralFlow(0, tcp.Config{LimitBytes: 1 << 30}, cca.MustNew(cca.Cubic))
	aud.FlowOpened()
	e.Conn.Start()
	eng.Schedule(time.Second, func() {
		// Sabotage: every demux on the flow's routes forgets its auditor, so
		// the strays that drain after the release vanish unaccounted.
		cl := d.classes[e.Sender]
		for _, h := range cl.fwdHops {
			h.d.aud = nil
		}
		for _, h := range cl.retHops {
			h.d.aud = nil
		}
		aud.FlowClosed()
		d.ReleaseFlow(e)
	})
	eng.RunFor(2 * time.Second)
	finish(t, aud, true)
}

// violationOf runs fn and returns the audit violation it raises, failing
// the test if it raises none.
func violationOf(t *testing.T, fn func()) (v *audit.Violation) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no audit violation raised")
		}
		var ok bool
		if v, ok = r.(*audit.Violation); !ok {
			panic(r)
		}
	}()
	fn()
	return nil
}

// seededEndpoint wraps a flow's receiver with one seeded bug, applied to the
// first data packet that arrives: leak takes it off the ledger as consumed
// but never releases it; otherwise it is released here and then handed on,
// so the receiver releases it a second time.
type seededEndpoint struct {
	rcv   netem.Receiver
	aud   *audit.Auditor
	leak  bool
	fired bool
}

func (s *seededEndpoint) Receive(now sim.Time, p *packet.Packet) {
	if s.fired {
		s.rcv.Receive(now, p)
		return
	}
	s.fired = true
	if s.leak {
		s.aud.PacketConsumed()
		return
	}
	packet.Release(p)
	s.rcv.Receive(now, p)
}

// seedEndpoint attaches one flow and puts a seededEndpoint in front of its
// receiver at the forward route's last demux.
func seedEndpoint(t *testing.T, leak bool) (*sim.Engine, *audit.Auditor) {
	t.Helper()
	eng, aud, d := auditedDumbbell(t)
	f := d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic))
	hops := d.classes[f.Sender].fwdHops
	hops[len(hops)-1].d.Register(f.ID, &seededEndpoint{rcv: f.Rcv, aud: aud, leak: leak})
	f.Conn.Start()
	return eng, aud
}

// TestAuditPoolBalanceCatchesLeak: a packet consumed on the conservation
// ledger but never released balances that ledger, so only the run's packet
// pool sees it — one more packet out of the pool than the network holds.
func TestAuditPoolBalanceCatchesLeak(t *testing.T) {
	eng, aud := seedEndpoint(t, true)
	eng.RunFor(500 * time.Millisecond)
	v := violationOf(t, aud.Finish)
	if v.Layer != "packet" || v.Rule != "pool-balance" {
		t.Fatalf("violation attributed to %s/%s, want packet/pool-balance:\n%v", v.Layer, v.Rule, v)
	}
}

// TestAuditPoolCatchesDoubleRelease: a packet released twice would sit on
// its pool's free stack twice and later be handed to two owners at once;
// the second release fails at once.
func TestAuditPoolCatchesDoubleRelease(t *testing.T) {
	eng, _ := seedEndpoint(t, false)
	v := violationOf(t, func() { eng.RunFor(500 * time.Millisecond) })
	if v.Layer != "packet" || v.Rule != "double-release" {
		t.Fatalf("violation attributed to %s/%s, want packet/double-release:\n%v", v.Layer, v.Rule, v)
	}
}

// TestEphemeralFlowSlotsRecycle: a released flow's Flow, Conn and Receiver
// come back from a later AddEphemeralFlow under a fresh flow ID, never
// from one in the same event as the release (the completion callback that
// released it is still inside its Conn.Receive), and the audited run
// settles with strays of the old ID draining through the demux.
func TestEphemeralFlowSlotsRecycle(t *testing.T) {
	eng, aud, d := auditedDumbbell(t)
	cfg := tcp.Config{LimitBytes: 100_000}
	first := d.AddEphemeralFlow(0, cfg, cca.MustNew(cca.Cubic))
	firstConn, firstID := first.Conn, first.ID
	aud.FlowOpened()
	var sameEvent, later *Flow
	first.Conn.OnDone(func(*tcp.Conn) {
		aud.FlowClosed()
		d.ReleaseFlow(first)
		sameEvent = d.AddEphemeralFlow(1, cfg, cca.MustNew(cca.Reno))
		aud.FlowOpened()
		sameEvent.Conn.Start()
		eng.Schedule(0, func() {
			later = d.AddEphemeralFlow(1, cfg, cca.MustNew(cca.Reno))
			aud.FlowOpened()
			later.Conn.Start()
		})
	})
	first.Conn.Start()
	eng.RunFor(2 * time.Second)
	finish(t, aud, false)

	switch {
	case sameEvent == nil || later == nil:
		t.Fatal("the first flow never completed")
	case sameEvent == first || sameEvent.Conn == firstConn:
		t.Fatal("a flow was recycled inside the completion callback that released it")
	case later != first || later.Conn != firstConn:
		t.Fatal("a flow released at an earlier event was not recycled")
	case later.ID <= sameEvent.ID || sameEvent.ID <= firstID:
		t.Fatalf("flow IDs %d, %d, %d: want fresh, increasing IDs", firstID, sameEvent.ID, later.ID)
	case later.Sender != 1 || later.CCName != "reno" || later.Rcv.Goodput() != cfg.LimitBytes:
		t.Fatalf("recycled flow: class %d, %s, %d bytes delivered; want class 1, reno, %d",
			later.Sender, later.CCName, later.Rcv.Goodput(), cfg.LimitBytes)
	}
}

// leakyRelease is ReleaseFlow with a seeded bug: the flow leaves the
// demuxes and joins the free list, but its receiver is never closed and,
// unless stopSender, its sender is never stopped. The next event recycles
// it.
func leakyRelease(n *Network, f *Flow, stopSender bool) {
	cl := n.classes[f.Sender]
	for _, h := range cl.fwdHops {
		h.d.Unregister(f.ID)
	}
	for _, h := range cl.retHops {
		h.d.Unregister(f.ID)
	}
	if stopSender {
		f.Conn.Stop()
	}
	f.free, f.released = true, n.Eng.Executed()
	n.free = append(n.free, f)
	n.Eng.Schedule(0, func() { n.AddEphemeralFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic)) })
}

// checkRecycleViolation runs eng through the seeded release and the
// recycle after it, and requires the recycle to fail at once.
func checkRecycleViolation(t *testing.T, eng *sim.Engine) {
	t.Helper()
	v := violationOf(t, func() { eng.RunFor(time.Second) })
	if v.Layer != "tcp" || v.Rule != "recycle-live" {
		t.Fatalf("violation attributed to %s/%s, want tcp/recycle-live:\n%v", v.Layer, v.Rule, v)
	}
}

// TestAuditRecycleCatchesPendingTimer: a flow recycled while its sender's
// retransmission timer is still queued would be re-initialised under a
// live heap entry; the recycle fails at once.
func TestAuditRecycleCatchesPendingTimer(t *testing.T) {
	eng, aud, d := auditedDumbbell(t)
	f := d.AddEphemeralFlow(0, tcp.Config{LimitBytes: 1 << 30}, cca.MustNew(cca.Cubic))
	aud.FlowOpened()
	f.Conn.Start()
	eng.Schedule(200*time.Millisecond, func() { leakyRelease(d, f, false) })
	checkRecycleViolation(t, eng)
}

// heldAckRelease hands each data packet to the flow's receiver and, the
// first time the receiver holds its ACK (delayed ACK: nothing was sent),
// releases the flow with the seeded bug, leaving the held ACK in place.
type heldAckRelease struct {
	d    *Network
	f    *Flow
	done bool
}

func (h *heldAckRelease) Receive(now sim.Time, p *packet.Packet) {
	before := h.f.Rcv.AcksSent()
	h.f.Rcv.Receive(now, p)
	if !h.done && h.f.Rcv.AcksSent() == before {
		h.done = true
		leakyRelease(h.d, h.f, true)
	}
}

// TestAuditRecycleCatchesHeldAck: a flow recycled while its receiver holds
// a delayed ACK would drop that ACK and its timer unsent; the recycle fails
// at once.
func TestAuditRecycleCatchesHeldAck(t *testing.T) {
	eng, aud, d := auditedDumbbell(t)
	f := d.AddEphemeralFlow(0, tcp.Config{LimitBytes: 1 << 30, DelayedAck: true}, cca.MustNew(cca.Cubic))
	aud.FlowOpened()
	hops := d.classes[f.Sender].fwdHops
	hops[len(hops)-1].d.Register(f.ID, &heldAckRelease{d: d, f: f})
	f.Conn.Start()
	checkRecycleViolation(t, eng)
}

// TestReleaseFlowTwicePanics: a second release would put the flow on the
// free list twice and hand it to two later flows at once.
func TestReleaseFlowTwicePanics(t *testing.T) {
	_, _, d := auditedDumbbell(t)
	f := d.AddEphemeralFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic))
	d.ReleaseFlow(f)
	defer func() {
		if recover() == nil {
			t.Fatal("second ReleaseFlow of one flow did not panic")
		}
	}()
	d.ReleaseFlow(f)
}
