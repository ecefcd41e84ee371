package aqm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// codelHarness drives a codelState over an unbounded buffer, the way
// FQ-CoDel's per-flow queues do.
type codelHarness struct {
	buffer
	st codelState
}

func newCodelHarness(p CoDelParams) *codelHarness {
	p.defaults()
	return &codelHarness{buffer: newBuffer(1 << 40), st: codelState{p: p}}
}

func (h *codelHarness) enqueue(now sim.Time) { h.push(now, mkData(0, 8960)) }

func (h *codelHarness) dequeue(now sim.Time) *packet.Packet {
	return h.st.dequeue(now, &h.buffer, &h.ledger)
}

func TestCoDelDefaults(t *testing.T) {
	var p CoDelParams
	p.defaults()
	if p.Target != 5*time.Millisecond || p.Interval != 100*time.Millisecond {
		t.Fatalf("defaults: %+v", p)
	}
}

func TestCoDelNoDropBelowTarget(t *testing.T) {
	h := newCodelHarness(CoDelParams{})
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		h.enqueue(now)
		now += sim.Duration(time.Millisecond) // 1ms sojourn < 5ms target
		p := h.dequeue(now)
		if p == nil {
			t.Fatal("expected packet")
		}
		packet.Release(p)
	}
	if h.stats.Dropped != 0 {
		t.Fatalf("dropped %d below target", h.stats.Dropped)
	}
}

func TestCoDelTransientSpikeForgiven(t *testing.T) {
	// Sojourn above target for less than one interval must not drop.
	h := newCodelHarness(CoDelParams{})
	now := sim.Duration(time.Second)
	// 5 packets with 20ms sojourn, spread over 50ms (< 100ms interval),
	// then back to low sojourn.
	for i := 0; i < 5; i++ {
		h.enqueue(now - sim.Duration(20*time.Millisecond))
		p := h.dequeue(now)
		if p == nil {
			t.Fatal("expected packet")
		}
		packet.Release(p)
		now += sim.Duration(10 * time.Millisecond)
	}
	if h.stats.Dropped != 0 {
		t.Fatalf("transient spike dropped %d", h.stats.Dropped)
	}
}

func TestCoDelPersistentDelayDrops(t *testing.T) {
	h := newCodelHarness(CoDelParams{})
	now := sim.Duration(time.Second)
	// Sustained 50ms sojourn for well over an interval.
	drops := uint64(0)
	for i := 0; i < 300; i++ {
		h.enqueue(now - sim.Duration(50*time.Millisecond))
		h.enqueue(now - sim.Duration(50*time.Millisecond)) // keep backlog
		p := h.dequeue(now)
		if p != nil {
			packet.Release(p)
		}
		now += sim.Duration(5 * time.Millisecond)
		drops = h.stats.Dropped
	}
	if drops == 0 {
		t.Fatal("persistent delay never triggered the drop law")
	}
}

func TestCoDelControlLawAccelerates(t *testing.T) {
	// drop intervals shrink as 1/sqrt(count).
	st := codelState{p: CoDelParams{Interval: 100 * time.Millisecond, Target: 5 * time.Millisecond}}
	st.count = 1
	t1 := st.controlLaw(0)
	st.count = 4
	t4 := st.controlLaw(0)
	st.count = 16
	t16 := st.controlLaw(0)
	if t4 != t1/2 || t16 != t1/4 {
		t.Fatalf("control law: %v %v %v", t1, t4, t16)
	}
}

func TestCoDelEmptiesCleanly(t *testing.T) {
	h := newCodelHarness(CoDelParams{})
	if p := h.dequeue(0); p != nil {
		t.Fatal("dequeue on empty should be nil")
	}
	if h.st.dropping {
		t.Fatal("empty queue must exit dropping state")
	}
}

// TestCoDelDropSpacingRFC8289 drives the standalone queue with a backlog
// whose sojourn stays above target and pins when each drop lands (RFC 8289
// §5.4–5.5): the first one interval after sojourn first exceeds target;
// the k-th gap within a dropping episode interval/√k, to the nanosecond;
// a re-entry within 16 intervals of the last scheduled drop resumes at
// count−2, and a later one restarts at count 1. Every drop is also checked
// not to fire 1 ns early.
func TestCoDelDropSpacingRFC8289(t *testing.T) {
	const (
		target   = 5 * time.Millisecond
		interval = 100 * time.Millisecond
		episode  = 10 // drops in the first dropping episode
	)
	q := NewCoDel(1<<30, false, CoDelParams{Target: target, Interval: interval})
	gap := func(k int) sim.Time {
		return sim.Time(float64(interval.Nanoseconds()) / math.Sqrt(float64(k)))
	}
	load := func(at sim.Time) {
		for i := 0; i < 3*episode+8; i++ {
			q.Enqueue(at, mkData(1, 1500))
		}
	}
	dropsAt := func(now sim.Time) uint64 {
		before := q.Stats().Dropped
		packet.Release(q.Dequeue(now))
		return q.Stats().Dropped - before
	}
	expectDropAt := func(what string, at sim.Time) {
		t.Helper()
		if d := dropsAt(at - 1); d != 0 {
			t.Fatalf("%s: dequeue 1 ns before %v dropped %d", what, at, d)
		}
		if d := dropsAt(at); d != 1 {
			t.Fatalf("%s: dequeue at %v dropped %d, want 1", what, at, d)
		}
	}
	// drain empties the queue at now, which ends the dropping episode
	// without a drop (now precedes the next scheduled one).
	drain := func(now sim.Time) {
		for q.Len() > 0 {
			if dropsAt(now) != 0 {
				t.Fatalf("drain at %v dropped", now)
			}
		}
	}
	// enter loads a fresh backlog at `at`, lets its sojourn reach target,
	// and returns when the first drop is due: one interval later.
	enter := func(at sim.Time) sim.Time {
		load(at)
		if d := dropsAt(at + sim.Duration(target)); d != 0 {
			t.Fatalf("dropped on the first above-target dequeue at %v", at)
		}
		return at + sim.Duration(target+interval)
	}

	at := enter(0)
	expectDropAt("episode 1 first drop", at)
	for k := 1; k < episode; k++ {
		at += gap(k)
		expectDropAt(fmt.Sprintf("episode 1 gap %d (interval/√%d)", k, k), at)
	}

	// The last scheduled drop is at+gap(episode); re-enter well within
	// 16 intervals of it.
	drain(at + 1)
	at = enter(at + sim.Duration(time.Millisecond))
	expectDropAt("resumed first drop", at)
	for k := episode - 2; k < episode+2; k++ {
		at += gap(k)
		expectDropAt(fmt.Sprintf("resumed gap at count %d", k), at)
	}

	drain(at + 1)
	at = enter(at + 17*sim.Duration(interval))
	expectDropAt("restarted first drop", at)
	at += gap(1)
	expectDropAt("restarted gap at count 1", at)
}
