package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/audit"
)

// The differential order test drives the engine and a trivial reference
// model — every queued event in a plain slice, scanned for the smallest
// (deadline, sequence) — with the same seeded operation stream, and requires
// the same dispatch sequence, the same Pending count read inside every
// callback, and the same Pending count after every step.

// Event ids encode the surface that scheduled them in the low three bits,
// so both sides derive the same nested reaction from an id alone.
const (
	kindClosure = 0
	kindHandler = 1
	kindLine0   = 2                  // kindLine0+k is line k
	kindTimer   = kindLine0 + nLines // id = 8*k + kindTimer is timer k
	nLines      = 3
	nTimers     = 3
	childBase   = 1 << 40 // id space of events scheduled from inside callbacks
)

// orderSide is one implementation under comparison.
type orderSide interface {
	scheduleAt(at Time, id int)
	handlerAt(at Time, id int)
	pushAt(line int, at Time, id int)
	resetTimer(k int, at Time)
	stopTimer(k int)
	runUntil(end Time)
	now() Time
	pending() int
	log() *dispatchLog
}

// dispatchLog is what both sides record and share while dispatching.
type dispatchLog struct {
	got       []int // dispatched ids, in order
	pend      []int // Pending() read inside each callback
	reactions int   // callbacks so far: numbers the ids of child events
	lastTimer int   // most recently armed timer, the target of a nested stop
}

// react is every dispatched event's callback on both sides. It logs the id
// and the Pending count seen mid-dispatch, then derives from the id what
// to do from inside the callback:
//   - a timer re-arms itself on every other expiry, 0–20 µs ahead;
//   - every third other event schedules one more — a closure, a pooled
//     handler event or a push onto a line — 0–20 µs ahead (0 exercises
//     same-time FIFO among events created during dispatch);
//   - another third of line entries push onto their own line — which,
//     when the fired entry was its last, is an empty line taking the
//     fired slot;
//   - some events stop another timer or the most recently armed one.
func react(s orderSide, id int) {
	l := s.log()
	l.got = append(l.got, id)
	l.pend = append(l.pend, s.pending())
	n := l.reactions
	l.reactions++
	kind, d := id%8, Time(id%3)*10_000
	if kind == kindTimer {
		if n%2 == 0 {
			s.resetTimer(id/8, s.now()+Time(n%3)*10_000)
		}
		if n%5 == 0 {
			s.stopTimer((id/8 + 1) % nTimers)
		}
		return
	}
	switch r := (id / 8) % 3; {
	case r == 0:
		child := [...]int{kindHandler, kindLine0 + (id/8)%nLines, kindClosure}[(id/24)%3]
		scheduleByKind(s, s.now()+d, childBase+8*n+child)
	case r == 1 && kind >= kindLine0:
		scheduleByKind(s, s.now()+d, childBase+8*n+kind)
	}
	switch (id / 8) % 7 {
	case 2:
		s.stopTimer((id / 8) % nTimers)
	case 4:
		s.stopTimer(l.lastTimer)
	}
}

// scheduleByKind routes an id to the surface its kind names.
func scheduleByKind(s orderSide, at Time, id int) {
	switch k := id % 8; {
	case k == kindClosure:
		s.scheduleAt(at, id)
	case k == kindHandler:
		s.handlerAt(at, id)
	case k >= kindLine0 && k < kindLine0+nLines:
		s.pushAt(k-kindLine0, at, id)
	default:
		panic(fmt.Sprintf("no surface for id %d", id))
	}
}

// engineSide is the system under test.
type engineSide struct {
	e      *Engine
	timers [nTimers]Timer
	lines  [nLines]Line
	dl     dispatchLog
}

func newEngineSide(a *audit.Auditor) *engineSide {
	s := &engineSide{e: NewEngine(1)}
	s.e.SetAuditor(a)
	for k := range s.timers {
		s.timers[k].Init(s.e, s, 8*k+kindTimer)
	}
	for k := range s.lines {
		s.lines[k].Init(s.e, s)
	}
	return s
}

func (s *engineSide) OnEvent(arg any) { react(s, arg.(int)) }

// scheduleAt and handlerAt take a deadline, as the reference does; the
// engine schedules by delay, and a deadline in the past is a negative delay,
// clamped to now on both sides.
func (s *engineSide) scheduleAt(at Time, id int) {
	s.e.Schedule((at - s.e.Now()).Std(), func() { react(s, id) })
}
func (s *engineSide) handlerAt(at Time, id int)        { s.e.ScheduleHandler((at - s.e.Now()).Std(), s, id) }
func (s *engineSide) pushAt(line int, at Time, id int) { s.lines[line].PushAt(at, id) }
func (s *engineSide) resetTimer(k int, at Time)        { s.dl.lastTimer = k; s.timers[k].ResetAt(at) }
func (s *engineSide) stopTimer(k int)                  { s.timers[k].Stop() }
func (s *engineSide) runUntil(end Time)                { s.e.RunUntil(end) }
func (s *engineSide) now() Time                        { return s.e.Now() }
func (s *engineSide) pending() int                     { return s.e.Pending() }
func (s *engineSide) log() *dispatchLog                { return &s.dl }

// refSide is the reference model: an unordered slice and a linear scan.
type refSide struct {
	clock Time
	seq   uint64
	q     []refEvent
	dl    dispatchLog
	line  [nLines]Time // each line's last deadline: a push is held back to it
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refSide) add(at Time, id int) Time {
	r.seq++
	at = max(at, r.clock)
	r.q = append(r.q, refEvent{at: at, seq: r.seq, id: id})
	return at
}

func (r *refSide) drop(id int) {
	r.q = slices.DeleteFunc(r.q, func(ev refEvent) bool { return ev.id == id })
}

func (r *refSide) scheduleAt(at Time, id int)    { r.add(at, id) }
func (r *refSide) handlerAt(at Time, id int)     { r.add(at, id) }
func (r *refSide) pushAt(k int, at Time, id int) { r.line[k] = r.add(max(at, r.line[k]), id) }
func (r *refSide) resetTimer(k int, at Time) {
	r.dl.lastTimer = k
	r.drop(8*k + kindTimer)
	r.add(at, 8*k+kindTimer)
}
func (r *refSide) stopTimer(k int)   { r.drop(8*k + kindTimer) }
func (r *refSide) now() Time         { return r.clock }
func (r *refSide) pending() int      { return len(r.q) }
func (r *refSide) log() *dispatchLog { return &r.dl }
func (r *refSide) runUntil(end Time) {
	for {
		m := -1
		for i, ev := range r.q {
			if ev.at <= end && (m < 0 || ev.at < r.q[m].at || (ev.at == r.q[m].at && ev.seq < r.q[m].seq)) {
				m = i
			}
		}
		if m < 0 {
			break
		}
		ev := r.q[m]
		r.q = slices.Delete(r.q, m, m+1)
		r.clock = ev.at
		react(r, ev.id)
	}
	r.clock = max(r.clock, end)
}

func TestDifferentialDispatchOrder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			a := audit.New("sim-order-test")
			eng := newEngineSide(a)
			sides := []orderSide{eng, &refSide{}}
			rng := NewRNG(seed)
			var last [nLines]Time // latest monotone deadline per line
			id := 0
			newID := func(kind int) int { id++; return 8*id + kind }
			// Deadlines on a 10 µs grid so that ties are common.
			ahead := func(n int) Time { return Time(rng.Intn(n)) * 10_000 }

			for step := 0; step < 4000; step++ {
				now := eng.now()
				var op func(s orderSide)
				switch rng.Intn(9) {
				case 0:
					at, id := now+ahead(100)-50_000, newID(kindClosure) // may be in the past
					op = func(s orderSide) { s.scheduleAt(at, id) }
				case 1:
					at, id := now+ahead(100), newID(kindHandler)
					op = func(s orderSide) { s.handlerAt(at, id) }
				case 2:
					k, at := rng.Intn(nTimers), now+ahead(60)
					op = func(s orderSide) { s.resetTimer(k, at) }
				case 3:
					k := rng.Intn(nTimers)
					op = func(s orderSide) { s.stopTimer(k) }
				case 4: // stop the most recently armed timer
					op = func(s orderSide) { s.stopTimer(s.log().lastTimer) }
				case 5, 6: // monotone: a FIFO link
					k := rng.Intn(nLines)
					last[k] = max(last[k], now) + ahead(8)
					at, id := last[k], newID(kindLine0+k)
					op = func(s orderSide) { s.pushAt(k, at, id) }
				case 7: // out of order: held back behind the line's tail
					k := rng.Intn(nLines)
					at, id := now+ahead(80), newID(kindLine0+k)
					op = func(s orderSide) { s.pushAt(k, at, id) }
				case 8:
					end := now + ahead(40)
					op = func(s orderSide) { s.runUntil(end) }
				}
				for _, s := range sides {
					op(s)
				}
				compareSides(t, step, sides[0], sides[1])
			}
			end := eng.now() + Duration(1e9)
			for _, s := range sides {
				s.runUntil(end)
			}
			compareSides(t, -1, sides[0], sides[1])
			if n := eng.pending(); n != 0 {
				t.Fatalf("%d events still pending after the drain", n)
			}
			if len(eng.dl.got) < 2000 {
				t.Fatalf("only %d dispatches; the stream exercised too little", len(eng.dl.got))
			}
			a.Finish()
		})
	}
}

func compareSides(t *testing.T, step int, got, want orderSide) {
	t.Helper()
	g, w := got.log(), want.log()
	if !slices.Equal(g.got, w.got) {
		i := 0
		for i < len(g.got) && i < len(w.got) && g.got[i] == w.got[i] {
			i++
		}
		t.Fatalf("step %d: dispatch sequences diverge at position %d: engine %v, reference %v",
			step, i, g.got[i:min(i+5, len(g.got))], w.got[i:min(i+5, len(w.got))])
	}
	for i := range g.pend { // one read per dispatch, so as long as got
		if g.pend[i] != w.pend[i] {
			t.Fatalf("step %d: dispatch of %d read Pending = %d inside its callback, reference holds %d",
				step, g.got[i], g.pend[i], w.pend[i])
		}
	}
	if got.pending() != want.pending() {
		t.Fatalf("step %d: Pending = %d, reference holds %d", step, got.pending(), want.pending())
	}
	if got.now() != want.now() {
		t.Fatalf("step %d: clock %v, reference %v", step, got.now(), want.now())
	}
}
