package sim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
)

// expectViolation runs fn expecting a *Violation panic and returns it.
func expectViolation(t *testing.T, fn func()) *audit.Violation {
	t.Helper()
	var v *audit.Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			var ok bool
			if v, ok = r.(*audit.Violation); !ok {
				panic(r)
			}
		}()
		fn()
	}()
	if v == nil {
		t.Fatal("expected a *audit.Violation panic, got none")
	}
	return v
}

func auditedEngine() (*Engine, *audit.Auditor) {
	e := NewEngine(1)
	a := audit.New("sim-audit-test")
	e.SetAuditor(a)
	return e, a
}

// TestAuditedEngineCleanRun exercises every scheduling surface under the
// auditor — closures, pooled handler events (forcing pool reuse), and a
// self-rearming timer — and requires Finish to settle clean.
func TestAuditedEngineCleanRun(t *testing.T) {
	e, a := auditedEngine()
	h := &countHandler{}
	for i := 0; i < 100; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Millisecond, h, i)
	}
	fired := 0
	e.Schedule(50*time.Millisecond, func() { fired++ })
	var tm Timer
	tm.Init(e, HandlerFunc(func(any) {
		fired++
		if fired < 10 {
			tm.Reset(time.Millisecond)
		}
	}), nil)
	tm.Reset(time.Millisecond)
	e.Run()
	if len(h.args) != 100 || fired != 11 { // 10 timer fires + the 50 ms closure
		t.Fatalf("dispatched %d handler / %d closure+timer events", len(h.args), fired)
	}
	a.Finish()
}

// TestAuditorCatchesPoolDoubleFree releases the same pooled event twice —
// the second release must raise sim/pool-double-free, since the zeroed
// free-list copy no longer carries the pooled mark.
func TestAuditorCatchesPoolDoubleFree(t *testing.T) {
	e, _ := auditedEngine()
	e.ScheduleHandler(0, &countHandler{}, nil)
	e.Run() // fires and releases the pooled event into e.free
	if n := e.FreeEvents(); n != 1 {
		t.Fatalf("free list holds %d events, want 1", n)
	}
	v := expectViolation(t, func() { e.release(e.free) })
	if v.Layer != "sim" || v.Rule != "pool-double-free" {
		t.Fatalf("violation attributed to %s/%s, want sim/pool-double-free", v.Layer, v.Rule)
	}
}

// TestAuditorCatchesReleaseOfQueuedEvent releases a pooled event that is
// still sitting in the heap — the auditor must flag it before the pool and
// the heap end up sharing one event object.
func TestAuditorCatchesReleaseOfQueuedEvent(t *testing.T) {
	e, _ := auditedEngine()
	e.ScheduleHandler(time.Second, &countHandler{}, nil)
	v := expectViolation(t, func() { e.release(e.queue[0].ev) })
	if v.Rule != "pool-release-queued" {
		t.Fatalf("rule = %s, want pool-release-queued", v.Rule)
	}
}

// TestAuditorCatchesCorruptFreeList plants a non-zeroed event on the free
// list; the next pooled schedule must refuse to hand it out.
func TestAuditorCatchesCorruptFreeList(t *testing.T) {
	e, _ := auditedEngine()
	e.free = &event{eng: e, pooled: true, idx: -1, next: e.free}
	v := expectViolation(t, func() { e.ScheduleHandler(0, &countHandler{}, nil) })
	if v.Rule != "pool-corrupt" {
		t.Fatalf("rule = %s, want pool-corrupt", v.Rule)
	}
	if !strings.Contains(v.Detail, "pooled=true") {
		t.Fatalf("detail %q does not describe the corruption", v.Detail)
	}
}

// TestAuditorCatchesTimeRegression corrupts the clock past a queued
// deadline; the dispatch loop must refuse to run time backwards.
func TestAuditorCatchesTimeRegression(t *testing.T) {
	e, _ := auditedEngine()
	e.Schedule(5*time.Millisecond, func() {})
	e.now = Duration(10 * time.Millisecond)
	v := expectViolation(t, e.Run)
	if v.Rule != "time-monotone" {
		t.Fatalf("rule = %s, want time-monotone", v.Rule)
	}
}

// TestAuditorCatchesStuckEvent verifies the end-of-run quiescence check: an
// event that was due but never dispatched (here forced by corrupting its
// deadline under the heap) is a violation at Finish.
func TestAuditorCatchesStuckEvent(t *testing.T) {
	e, a := auditedEngine()
	e.Schedule(time.Second, func() {})
	e.RunUntil(Duration(500 * time.Millisecond))
	// Corrupt the queued deadline to be in the past without re-heapifying —
	// the stuck-event shape the check exists to catch.
	e.queue[0].at = Duration(100 * time.Millisecond)
	v := expectViolation(t, a.Finish)
	if v.Layer != "sim" || v.Rule != "quiescence" {
		t.Fatalf("violation attributed to %s/%s, want sim/quiescence", v.Layer, v.Rule)
	}
	if !strings.Contains(v.Detail, "still queued") {
		t.Fatalf("detail %q does not describe the stuck event", v.Detail)
	}
}

// TestQuiescenceAcceptsFutureEvents: events legitimately scheduled beyond
// the run horizon are not violations — only past-due ones are.
func TestQuiescenceAcceptsFutureEvents(t *testing.T) {
	e, a := auditedEngine()
	e.Schedule(2*time.Second, func() {})
	e.RunUntil(Duration(time.Second))
	a.Finish()
}

// TestAuditedHeapIntegrityAfterChurn cross-checks that heavy stop/reset
// and delay-line churn under the auditor leaves a structurally valid 4-ary
// heap (indices match positions, parent ≤ child ordering) whose line slots
// carry their head entry's key. The callbacks schedule from inside dispatch
// — a timer re-arms itself, an emptied line takes a push, pooled handler
// and closure events chain, timers are stopped — so the fired slot is
// refilled by every surface and entries are removed from every depth; each
// callback checks the heap after its own work and compares Pending with an
// independent tally of what is queued.
func TestAuditedHeapIntegrityAfterChurn(t *testing.T) {
	e, a := auditedEngine()
	rng := NewRNG(99)
	var timers [8]Timer
	var lines [3]Line
	var last [3]Time
	loose := 0 // pooled handler and closure events queued
	checkPending := func() {
		t.Helper()
		want := loose
		for i := range timers {
			if timers[i].Pending() {
				want++
			}
		}
		for i := range lines {
			want += lines[i].n
		}
		if got := e.Pending(); got != want {
			t.Fatalf("Pending() = %d inside dispatch, %d queued", got, want)
		}
	}
	stopOne := func() { timers[rng.Intn(len(timers))].Stop() }
	var handler HandlerFunc
	handler = func(any) {
		loose--
		checkPending()
		if rng.Intn(3) == 0 {
			loose++
			e.ScheduleHandler(time.Duration(rng.Intn(1000))*time.Microsecond, handler, nil)
		}
		checkHeap(t, e)
	}
	var closure func()
	closure = func() {
		loose--
		checkPending()
		if rng.Intn(3) == 0 {
			loose++
			e.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, closure)
		}
		stopOne()
		checkHeap(t, e)
	}
	for i := range timers {
		timers[i].Init(e, HandlerFunc(func(any) {
			checkPending()
			if rng.Intn(2) == 0 {
				timers[i].Reset(time.Duration(rng.Intn(500)) * time.Microsecond)
			}
			if rng.Intn(4) == 0 {
				stopOne()
			}
			checkHeap(t, e)
		}), nil)
	}
	for i := range lines {
		lines[i].Init(e, HandlerFunc(func(arg any) {
			checkPending()
			j := arg.(int)
			if lines[j].n == 0 && rng.Intn(2) == 0 { // refill the line that just emptied
				last[j] = max(e.Now(), last[j]) + Time(rng.Intn(300_000))
				lines[j].PushAt(last[j], j)
			}
			if rng.Intn(4) == 0 {
				stopOne()
			}
			checkHeap(t, e)
		}))
	}
	for i := 0; i < 2000; i++ {
		switch rng.Intn(6) {
		case 0:
			loose++
			e.ScheduleHandler(time.Duration(rng.Intn(1000))*time.Microsecond, handler, nil)
		case 1:
			loose++
			e.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, closure)
			if rng.Intn(2) == 0 {
				stopOne()
			}
		case 2:
			timers[rng.Intn(len(timers))].Reset(time.Duration(rng.Intn(500)) * time.Microsecond)
		case 3:
			timers[rng.Intn(len(timers))].Stop()
		case 4: // monotone: a FIFO link
			j := rng.Intn(len(lines))
			last[j] = max(e.Now(), last[j]) + Time(rng.Intn(300_000))
			lines[j].PushAt(last[j], j)
		case 5: // out of order: the line holds the push back behind its tail
			j := rng.Intn(len(lines))
			at := e.Now() + Time(rng.Intn(1_000_000))
			lines[j].PushAt(at, j)
			last[j] = max(last[j], at)
			l := &lines[j]
			if tail := l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at; tail != last[j] {
				t.Fatalf("line %d: push at %v queued at %v, want %v", j, at, tail, last[j])
			}
		}
		if i%97 == 0 {
			e.RunFor(200 * time.Microsecond)
		}
	}
	queued := 0
	for i := range lines {
		l := &lines[i]
		if (l.n > 0) != (l.ev.idx >= 0) {
			t.Fatalf("line %d holds %d entries but heap slot %d", i, l.n, l.ev.idx)
		}
		if l.n > 0 {
			queued += l.n
			if hd, s := l.ring[l.head], e.queue[l.ev.idx]; hd.at != s.at || hd.seq != s.seq {
				t.Fatalf("line %d slot keyed (%v,%d), head entry (%v,%d)", i, s.at, s.seq, hd.at, hd.seq)
			}
		}
		for k := 1; k < l.n; k++ {
			mask := len(l.ring) - 1
			if a, b := l.ring[(l.head+k-1)&mask], l.ring[(l.head+k)&mask]; b.at < a.at || b.seq < a.seq {
				t.Fatalf("line %d: entry %d (%v,%d) sorts before entry %d (%v,%d)", i, k, b.at, b.seq, k-1, a.at, a.seq)
			}
		}
	}
	if queued == 0 {
		t.Fatal("churn left no line entries queued; the check above proved nothing")
	}
	checkHeap(t, e)
	e.Run()
	if e.Pending() != 0 || e.behind != 0 || loose != 0 {
		t.Fatalf("drained engine reports Pending=%d behind=%d, %d events never fired", e.Pending(), e.behind, loose)
	}
	a.Finish()
}

// checkHeap fails t unless every slot records its own index and no slot
// sorts before its parent. The fired slot, while it waits for reuse,
// belongs to no queued event and is exempt from the index check.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.queue {
		if ev := e.queue[i].ev; ev.idx != i && (i > 0 || !e.hole) {
			t.Fatalf("heap[%d] carries idx %d", i, ev.idx)
		}
		if parent := (i - 1) / 4; i > 0 && e.queue[i].before(&e.queue[parent]) {
			t.Fatalf("heap order violated at %d", i)
		}
	}
}
