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
