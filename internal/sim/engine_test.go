package sim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != Duration(30*time.Millisecond) {
		t.Errorf("clock = %v, want 30ms", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events not FIFO: %v", got)
	}
}

// TestCancel: Timer.Stop is the engine's one cancellation. A stopped timer
// never runs, a second Stop is a no-op, and a Stop after the timer fired
// touches nothing else in the queue.
func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) { ran++ }), nil)
	tm.Reset(time.Millisecond)
	if !tm.Pending() {
		t.Fatal("armed timer should be pending")
	}
	tm.Stop()
	if tm.Pending() || e.Pending() != 0 {
		t.Fatalf("stopped timer still queued: pending=%v engine=%d", tm.Pending(), e.Pending())
	}
	e.Run()
	if ran != 0 {
		t.Fatal("cancelled timer ran")
	}
	tm.Stop() // double-cancel is a no-op

	tm.Reset(time.Millisecond)
	other := false
	e.Schedule(2*time.Millisecond, func() { other = true })
	e.RunFor(time.Millisecond)
	if ran != 1 || tm.Pending() {
		t.Fatalf("timer did not fire once: ran=%d pending=%v", ran, tm.Pending())
	}
	tm.Stop() // cancel after fire is a no-op
	if e.Pending() != 1 {
		t.Fatalf("Stop after fire disturbed the queue: Pending=%d, want 1", e.Pending())
	}
	e.Run()
	if !other || ran != 1 {
		t.Fatalf("Stop after fire: other event ran=%v, timer ran %d times", other, ran)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var tick func()
	n := 0
	tick = func() {
		ticks = append(ticks, e.Now())
		n++
		if n < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(time.Second, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("want 5 ticks, got %d", len(ticks))
	}
	for i, at := range ticks {
		if want := Duration(time.Duration(i+1) * time.Second); at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestRunUntilClampsClock(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.RunUntil(Duration(10 * time.Second))
	if e.Now() != Duration(10*time.Second) {
		t.Errorf("clock = %v, want 10s", e.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Second, func() { ran++ })
	e.Schedule(3*time.Second, func() { ran++ })
	e.RunUntil(Duration(2 * time.Second))
	if ran != 1 {
		t.Fatalf("want 1 event before deadline, got %d", ran)
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("want the later event to fire on resume, got %d", ran)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++; e.Stop() })
	e.Schedule(2*time.Millisecond, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("Stop did not halt the loop: ran=%d", ran)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {
		fired := false
		e.Schedule(-5*time.Second, func() { fired = true })
		e.Schedule(0, func() {
			if !fired {
				t.Error("negative-delay event should run before later zero-delay event")
			}
		})
	})
	e.Run()
	if e.Now() != Duration(time.Second) {
		t.Errorf("clock went backwards: %v", e.Now())
	}
}

func TestHeapOrderProperty(t *testing.T) {
	// Any set of random delays must execute in nondecreasing time order.
	f := func(delays []uint32) bool {
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.Schedule(time.Duration(d%1e6)*time.Microsecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d/1000 equal", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) did not cover all values in 1000 draws: %d", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if mean < 2.9 || mean > 3.1 {
		t.Errorf("Exp mean = %.3f, want ~3.0", mean)
	}
}

func TestExecutedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) {}), nil)
	tm.Reset(time.Millisecond)
	tm.Stop()
	e.Run()
	if e.Executed() != 5 {
		t.Errorf("Executed = %d, want 5 (cancelled events don't count)", e.Executed())
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		e.Run()
	}
}

func BenchmarkEngineChainedEvents(b *testing.B) {
	// The dominant pattern in the simulator: each event schedules the next.
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(time.Microsecond, step)
	e.Run()
}

func TestTimeHelpers(t *testing.T) {
	ti := Duration(1500 * time.Millisecond)
	if ti.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", ti.Seconds())
	}
	if ti.Std() != 1500*time.Millisecond {
		t.Errorf("Std = %v", ti.Std())
	}
	if ti.String() != "1.500000s" {
		t.Errorf("String = %q", ti.String())
	}
}

// TestEventAt: a timer reports the deadline it is queued under, and keeps
// reporting it after it fires.
func TestEventAt(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) {}), nil)
	tm.Reset(2 * time.Second)
	if tm.At() != Duration(2*time.Second) {
		t.Errorf("At = %v", tm.At())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d", e.Pending())
	}
	e.Run()
	if tm.At() != Duration(2*time.Second) || tm.Pending() {
		t.Errorf("fired timer: At = %v, pending = %v", tm.At(), tm.Pending())
	}
}

// TestScheduleAtPastClamped: an absolute deadline in the past — a timer's
// ResetAt or a line's PushAt — is clamped to now and runs in FIFO order
// among the events queued at now.
func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := HandlerFunc(func(arg any) {
		if e.Now() != Duration(time.Second) {
			t.Errorf("%v ran at %v, want 1s", arg, e.Now())
		}
		order = append(order, arg.(string))
	})
	var tm Timer
	tm.Init(e, rec, "timer")
	var l Line
	l.Init(e, rec)
	e.Schedule(time.Second, func() {
		tm.ResetAt(0) // in the past: clamped to now
		l.PushAt(0, "line")
		e.Schedule(0, func() { order = append(order, "closure") })
	})
	e.Run()
	if want := []string{"timer", "line", "closure"}; !slices.Equal(order, want) {
		t.Fatalf("past-scheduled events ran as %v, want %v", order, want)
	}
}

// TestTimerStopNeverArmed: Stop on an initialised timer that was never
// armed is a no-op and leaves it not pending.
func TestTimerStopNeverArmed(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) {}), nil)
	tm.Stop() // must not panic
	if tm.Pending() || e.Pending() != 0 {
		t.Errorf("never-armed timer: pending=%v engine=%d", tm.Pending(), e.Pending())
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(10)
		if j < 0 || j >= 10 {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
	if r.Jitter(0) != 0 || r.Jitter(-1) != 0 {
		t.Error("non-positive max should yield 0")
	}
	if r.Exp(0) != 0 || r.Exp(-2) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

// --- pooled events, Timer, and the closure-free handler path ---

// countHandler records dispatched args.
type countHandler struct {
	args []any
	eng  *Engine
}

func (h *countHandler) OnEvent(arg any) { h.args = append(h.args, arg) }

func TestScheduleHandlerDispatch(t *testing.T) {
	e := NewEngine(1)
	h := &countHandler{}
	e.ScheduleHandler(2*time.Millisecond, h, "b")
	e.ScheduleHandler(time.Millisecond, h, "a")
	e.Run()
	if len(h.args) != 2 || h.args[0] != "a" || h.args[1] != "b" {
		t.Fatalf("handler dispatch wrong: %v", h.args)
	}
}

func TestPooledEventsReused(t *testing.T) {
	e := NewEngine(1)
	h := &countHandler{}
	for i := 0; i < 8; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Millisecond, h, i)
	}
	e.Run()
	if e.FreeEvents() == 0 {
		t.Fatal("fired pooled events were not returned to the free list")
	}
	free := e.FreeEvents()
	// Re-scheduling the same number of events must not grow the pool.
	for i := 0; i < free; i++ {
		e.ScheduleHandler(time.Millisecond, h, i)
	}
	if e.FreeEvents() != 0 {
		t.Fatalf("pool not drained on reschedule: %d left", e.FreeEvents())
	}
	e.Run()
	if e.FreeEvents() != free {
		t.Fatalf("pool grew across reuse: %d -> %d", free, e.FreeEvents())
	}
}

// TestPooledEventZeroedOnReuse mirrors packet_test.TestPoolReuseZeroes: any
// event the engine recycles must carry no state from its previous life —
// in particular no Handler or arg reference that would pin garbage.
func TestPooledEventZeroedOnReuse(t *testing.T) {
	f := func(delays []uint16, args []int64) bool {
		e := NewEngine(3)
		h := &countHandler{}
		for i, d := range delays {
			var arg any
			if len(args) > 0 {
				arg = args[i%len(args)]
			}
			e.ScheduleHandler(time.Duration(d)*time.Microsecond, h, arg)
		}
		e.Run()
		for ev := e.free; ev != nil; ev = ev.next {
			if ev.at != 0 || ev.line != nil || ev.h != nil ||
				ev.arg != nil || ev.pooled || ev.idx != -1 || ev.eng != e {
				return false
			}
		}
		return len(h.args) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCancelRemovesFromHeapEagerly(t *testing.T) {
	e := NewEngine(1)
	tms := make([]Timer, 100)
	for i := range tms {
		tms[i].Init(e, HandlerFunc(func(any) {}), nil)
		tms[i].Reset(time.Duration(i+1) * time.Millisecond)
	}
	for i := range tms[10:] {
		tms[10+i].Stop()
	}
	// The old engine left cancelled events queued until popped; the heap
	// must now shrink immediately, or long runs rearming RTO timers leak.
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d after cancelling 90 of 100, want 10", e.Pending())
	}
	ran := 0
	e.Schedule(200*time.Millisecond, func() { ran++ })
	e.Run()
	if ran != 1 || e.Executed() != 11 {
		t.Fatalf("executed %d events (ran=%d), want 11", e.Executed(), ran)
	}
}

func TestTimerBasics(t *testing.T) {
	e := NewEngine(1)
	h := &countHandler{}
	var tm Timer
	tm.Init(e, h, 42)
	if tm.Pending() {
		t.Fatal("fresh timer pending")
	}
	tm.Reset(5 * time.Millisecond)
	if !tm.Pending() || tm.At() != Duration(5*time.Millisecond) {
		t.Fatalf("armed timer: pending=%v at=%v", tm.Pending(), tm.At())
	}
	e.Run()
	if len(h.args) != 1 || h.args[0] != 42 || tm.Pending() {
		t.Fatalf("timer fire: args=%v pending=%v", h.args, tm.Pending())
	}
	// Reuse after firing.
	tm.Reset(time.Millisecond)
	e.Run()
	if len(h.args) != 2 {
		t.Fatalf("timer not reusable: fired %d times", len(h.args))
	}
}

func TestTimerResetReschedulesInPlace(t *testing.T) {
	e := NewEngine(1)
	h := &countHandler{}
	var tm Timer
	tm.Init(e, h, nil)
	tm.Reset(10 * time.Millisecond)
	for i := 0; i < 50; i++ {
		tm.Reset(time.Duration(20+i) * time.Millisecond)
		if e.Pending() != 1 {
			t.Fatalf("Reset pushed a duplicate entry: Pending=%d", e.Pending())
		}
	}
	tm.Reset(time.Millisecond) // move earlier, too
	e.Run()
	if len(h.args) != 1 || e.Now() != Duration(time.Millisecond) {
		t.Fatalf("reset timer fired %d times at %v", len(h.args), e.Now())
	}
}

// TestTimerResetFIFOTieBreak: a Reset counts as a fresh schedule for the
// same-deadline FIFO ordering — it must run after events already queued at
// that deadline, even if the timer was first armed before them.
func TestTimerResetFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := HandlerFunc(func(arg any) { order = append(order, arg.(string)) })
	var tm Timer
	tm.Init(e, rec, "timer")
	tm.Reset(time.Millisecond) // armed first...
	e.Schedule(5*time.Millisecond, func() { order = append(order, "closure") })
	tm.Reset(5 * time.Millisecond) // ...but reset to the same deadline later
	e.Run()
	if len(order) != 2 || order[0] != "closure" || order[1] != "timer" {
		t.Fatalf("reset timer must follow same-deadline FIFO: %v", order)
	}
}

// TestReservedKey: a key reserved between two same-deadline schedules is
// reached exactly between their dispatches, a timer armed under it runs in
// the slot it reserved, and a completed RunUntil reaches every key up to
// the clock while Stop, or an end before the clock, leaves later keys
// unreached.
func TestReservedKey(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var reached []bool
	at := Duration(5 * time.Millisecond)
	var k Key
	log := func(name string) func() {
		return func() {
			order = append(order, name)
			reached = append(reached, e.Reached(k))
		}
	}
	e.Schedule(at.Std(), log("before"))
	k = e.Reserve(at)
	e.Schedule(at.Std(), log("after"))
	if e.Reached(k) {
		t.Fatal("a key ahead of the clock is reached")
	}
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) { log("timer")() }), nil)
	e.Schedule(time.Millisecond, func() { tm.ResetKey(k) }) // armed late, runs in the reserved slot
	e.Run()
	if want := []string{"before", "timer", "after"}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	if want := []bool{false, true, true}; !slices.Equal(reached, want) {
		t.Fatalf("Reached inside each dispatch %v, want %v", reached, want)
	}

	if k = e.Reserve(e.Now()); e.Reached(k) {
		t.Fatal("a key reserved at the clock after the last dispatch is reached")
	}
	if e.RunUntil(e.Now() - 1); e.Reached(k) {
		t.Fatal("a RunUntil ending before the clock reached a key at the clock")
	}
	e.RunUntil(e.Now())
	if !e.Reached(k) {
		t.Fatal("a completed RunUntil left a key at its end unreached")
	}

	end := e.Now() + Duration(time.Millisecond)
	e.Schedule(time.Millisecond, e.Stop)
	k = e.Reserve(end)
	e.RunUntil(end)
	if e.Reached(k) {
		t.Fatal("Stop ended the run before the key, yet it reads reached")
	}
	if !e.Reached(Key{}) {
		t.Fatal("the zero key must always be reached")
	}
}

func TestTimerStopThenResetInCallback(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	rec := HandlerFunc(func(any) { fired = append(fired, e.Now()) })
	var tm Timer
	tm.Init(e, rec, nil)
	tm.Reset(10 * time.Millisecond)
	e.Schedule(time.Millisecond, func() {
		// Cancel-then-Reset inside one callback must land exactly one fire
		// at the final deadline.
		tm.Stop()
		tm.Reset(3 * time.Millisecond)
		tm.Stop()
		tm.Reset(4 * time.Millisecond)
	})
	e.Run()
	if len(fired) != 1 || fired[0] != Duration(5*time.Millisecond) {
		t.Fatalf("want one fire at 5ms, got %v", fired)
	}
	// And Reset-then-Stop must land none.
	fired = nil
	tm.Reset(time.Millisecond)
	tm.Stop()
	e.Run()
	if len(fired) != 0 {
		t.Fatalf("stopped timer fired: %v", fired)
	}
}

func TestTimerSelfRearmInOwnCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tm Timer
	rec := HandlerFunc(func(any) {
		n++
		if n < 5 {
			tm.Reset(time.Second)
		}
	})
	tm.Init(e, rec, nil)
	tm.Reset(time.Second)
	e.Run()
	if n != 5 || e.Now() != Duration(5*time.Second) {
		t.Fatalf("self-rearming timer: n=%d now=%v", n, e.Now())
	}
}

func BenchmarkEngineHandlerChained(b *testing.B) {
	// The forwarding-plane pattern after the zero-alloc refactor: each
	// pooled handler event schedules the next. Must report 0 allocs/op.
	e := NewEngine(1)
	n := 0
	var h HandlerFunc
	h = func(any) {
		n++
		if n < b.N {
			e.ScheduleHandler(time.Microsecond, h, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleHandler(time.Microsecond, h, nil)
	e.Run()
}

func BenchmarkLineDelivery(b *testing.B) {
	// The propagation pattern: a link keeps a window of deliveries in flight
	// on its delay line and every delivery pushes the next one. Must report
	// 0 allocs/op once the ring has grown to the window.
	e := NewEngine(1)
	var l Line
	n := 0
	l.Init(e, HandlerFunc(func(any) {
		n++
		if n < b.N {
			l.PushAt(e.Now()+Duration(time.Millisecond), nil)
		}
	}))
	for i := 0; i < 64; i++ {
		l.PushAt(Duration(time.Duration(i)*time.Microsecond), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkTimerReset(b *testing.B) {
	// RTO-style rearming: Reset while pending re-keys its heap slot in
	// place. Must report 0 allocs/op.
	e := NewEngine(1)
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) {}), nil)
	tm.Reset(time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Duration(i%1000) * time.Microsecond)
	}
}

// TestBudgetEventLimit: the watchdog must stop the run loop at exactly the
// event budget and report the overrun, deterministically.
func TestBudgetEventLimit(t *testing.T) {
	eng := NewEngine(1)
	eng.SetBudget(100, 0)
	var fired int
	var rearm func()
	rearm = func() {
		fired++
		eng.Schedule(time.Millisecond, rearm)
	}
	eng.Schedule(time.Millisecond, rearm)
	eng.Run()
	if eng.Overrun() == nil {
		t.Fatal("watchdog did not trip")
	}
	if fired != 100 {
		t.Fatalf("executed %d events past a budget of 100", fired)
	}
	if eng.Executed() != 100 {
		t.Fatalf("Executed() = %d, want 100", eng.Executed())
	}
}

// TestBudgetWallLimit: the wall budget is checked every 2^16 events, so an
// already-expired budget must trip once the event count crosses that mark.
func TestBudgetWallLimit(t *testing.T) {
	eng := NewEngine(1)
	eng.SetBudget(0, time.Nanosecond)
	var fired int
	var rearm func()
	rearm = func() {
		fired++
		if fired < 1<<17 {
			eng.Schedule(time.Microsecond, rearm)
		}
	}
	eng.Schedule(time.Microsecond, rearm)
	eng.Run()
	if eng.Overrun() == nil {
		t.Fatal("wall watchdog did not trip")
	}
	if fired >= 1<<17 {
		t.Fatal("wall watchdog never stopped the loop")
	}
}

// TestBudgetClearedByReset: re-arming the budget clears a previous overrun
// and an unbudgeted engine never trips.
func TestBudgetClearedByReset(t *testing.T) {
	eng := NewEngine(1)
	eng.SetBudget(1, 0)
	eng.Schedule(time.Millisecond, func() {})
	eng.Schedule(2*time.Millisecond, func() {})
	eng.Run()
	if eng.Overrun() == nil {
		t.Fatal("budget of 1 did not trip on the second event")
	}
	eng.SetBudget(0, 0)
	if eng.Overrun() != nil {
		t.Fatal("SetBudget did not clear the overrun")
	}
	eng.Run() // drains the remaining event without a budget
	if eng.Overrun() != nil {
		t.Fatal("unbudgeted run tripped the watchdog")
	}
}

// ticker re-arms its observer timer every 100 µs.
type ticker struct {
	tm    Timer
	fired int
}

func (k *ticker) OnEvent(any) {
	k.fired++
	k.tm.Reset(100 * time.Microsecond)
}

// TestObserverTimerExcludedFromCount: observer-timer expiries run, but
// neither Executed nor the event watchdog counts them, so a budgeted run
// stops at the same science event, at the same clock, with or without an
// observer ticking ten times per science event.
func TestObserverTimerExcludedFromCount(t *testing.T) {
	run := func(observe bool) (fired int, now Time, k *ticker) {
		eng := NewEngine(1)
		eng.SetBudget(100, 0)
		var rearm func()
		rearm = func() {
			fired++
			eng.Schedule(time.Millisecond, rearm)
		}
		eng.Schedule(time.Millisecond, rearm)
		k = &ticker{}
		if observe {
			k.tm.InitObserver(eng, k)
			k.tm.Reset(100 * time.Microsecond)
		}
		eng.Run()
		if eng.Overrun() == nil {
			t.Fatalf("observe=%v: watchdog did not trip", observe)
		}
		if eng.Executed() != 100 {
			t.Fatalf("observe=%v: Executed() = %d, want 100", observe, eng.Executed())
		}
		return fired, eng.Now(), k
	}
	plainFired, plainNow, _ := run(false)
	obsFired, obsNow, k := run(true)
	if plainFired != 100 || obsFired != 100 || obsNow != plainNow {
		t.Fatalf("observer changed the outcome: fired %d/%d, clock %v/%v",
			plainFired, obsFired, plainNow, obsNow)
	}
	if k.fired < 900 {
		t.Fatalf("observer fired %d times over 100 ms, want ~1000", k.fired)
	}
}

// TestLineHead checks the peek at a line's next delivery: inside each
// dispatch Head returns the arg the following dispatch receives — across the
// ring wrapping and growing — and nil once the line is empty.
func TestLineHead(t *testing.T) {
	e := NewEngine(1)
	var l Line
	var got, peeked []any
	l.Init(e, HandlerFunc(func(arg any) {
		got = append(got, arg)
		peeked = append(peeked, l.Head())
	}))
	if l.Head() != nil {
		t.Fatal("Head of a fresh line is not nil")
	}
	id := 0
	push := func(k int) {
		for ; k > 0; k-- {
			id++
			l.PushAt(e.Now()+Time(id), id)
		}
	}
	push(10)
	e.RunFor(5 * time.Nanosecond) // head moves to slot 5 of the 16-entry ring
	push(9)                       // wraps around the ring's end
	e.RunFor(3 * time.Nanosecond)
	push(20) // grows the wrapped ring
	e.Run()
	if len(got) != id {
		t.Fatalf("delivered %d of %d entries", len(got), id)
	}
	for i := range got {
		want := any(nil)
		if i+1 < len(got) {
			want = got[i+1]
		}
		if got[i] != i+1 || peeked[i] != want {
			t.Fatalf("dispatch %d got %v and peeked %v, want %d and %v", i, got[i], peeked[i], i+1, want)
		}
	}
	if l.Head() != nil {
		t.Fatal("Head of a drained line is not nil")
	}
}

// TestLinePushKeepsOrder checks that a line delivers in push order: a push
// earlier than the tail is held back to the tail's deadline and keeps the
// sequence it reserved, so an event scheduled between the two pushes runs
// between them.
func TestLinePushKeepsOrder(t *testing.T) {
	e := NewEngine(1)
	var got []string
	record := HandlerFunc(func(arg any) { got = append(got, fmt.Sprintf("%s@%d", arg, e.Now())) })
	var l Line
	l.Init(e, record)
	l.PushAt(100, "a")
	e.ScheduleHandler(100*time.Nanosecond, record, "x")
	l.PushAt(50, "b") // earlier than the tail
	l.PushAt(200, "c")
	e.Run()
	if want := "[a@100 x@100 b@100 c@200]"; fmt.Sprint(got) != want {
		t.Fatalf("dispatched %v, want %s", got, want)
	}
}
