// Package sim implements the discrete-event simulation engine every other
// subsystem runs on: a nanosecond-resolution virtual clock, a 4-ary min-heap
// event queue with stable FIFO ordering for simultaneous events, per-link
// FIFO delay lines, and a deterministic random number generator.
//
// One Engine is owned by exactly one goroutine; parallelism in the harness
// comes from running many independent engines concurrently, never from
// sharing one.
//
// # Event ownership and pooling
//
// The engine offers three scheduling surfaces with different ownership
// rules, chosen so the steady-state forwarding path performs zero heap
// allocations per event:
//
//   - Schedule/ScheduleHandler: the event object is owned by the engine,
//     drawn from a per-engine free list, and returned to it as soon as the
//     event fires. No handle is exposed, so these events cannot be
//     cancelled; they are the right tool for fire-and-forget work that has
//     no natural owner. Schedule runs a closure, ScheduleHandler calls
//     h.OnEvent(arg); both take the same pooled path.
//
//   - Timer: a caller-owned, reusable timer for cancellable or recurring
//     deadlines (RTO, pacing release, delayed ACK, samplers, a port's
//     serializer). Its event storage is embedded in the Timer itself, so
//     Reset/Stop never allocate: Reset re-keys the heap slot in place when
//     the timer is already queued. A Timer must not be copied after Init
//     (the heap holds a pointer into it). A timer set up with InitObserver
//     is observation, not science: its expiries are counted apart, so
//     Executed and the event watchdog read the same with or without
//     observers attached.
//
//   - Line: a caller-owned FIFO delay line for deliveries that leave in the
//     order they were pushed (propagation on a link): a push earlier than
//     the line's last entry is held back to that entry's deadline. Entries
//     sit in a ring inside the Line; only the head occupies a heap slot, so
//     a link with thousands of packets in flight costs the heap one entry.
//     A Line must not be copied after Init.
//
// Cancelling (Timer.Stop) removes the entry from the heap eagerly, so long
// runs that repeatedly rearm timers do not accumulate dead entries.
//
// # Reusing the fired slot
//
// While a popped event dispatches, its root slot stays in the heap as a
// hole keyed by the fired event. The first event the handler schedules —
// by any surface — takes the hole and sifts once from the root, instead of
// a full-depth pop followed by a leaf push. If the handler schedules
// nothing, the run loop pops the hole after it returns. Every queued key
// is later than the hole's (it was the minimum, and new keys carry a
// larger sequence), so sifting up, re-keying and removal below the root
// never pass it, and Pending does not count it.
//
// # Dispatch order
//
// Every scheduling call reserves the next sequence number, and events run
// in (deadline, sequence) order; sequence numbers are unique, so that order
// is total. A Line entry records the (deadline, sequence) it reserved at
// PushAt; its deadline is clamped to the previous entry's, so entries are
// sorted by that key as pushed. The line keys its heap slot by the head
// entry's stored key, and when the head fires, re-keys it to the next
// entry's. At every pop the heap therefore holds the minimum of each line
// plus every other event, and the minimum of those minima is the minimum
// over all queued entries — the same event a heap holding one slot per
// delivery would pop. Which surface scheduled an event
// never changes when it runs.
//
// # Reserved keys
//
// Reserve takes the next sequence number for a deadline without queueing
// anything: the Key it returns sits in the dispatch order exactly where an
// event scheduled at that moment would. Reached reports whether the run has
// passed that point, and Timer.ResetKey can later queue an event under the
// key. A component whose event would only have updated its own state (a
// port's serializer finishing a packet nothing waits behind) reserves the
// key instead of scheduling it, reads its state through Reached, and arms
// the event only if something comes to depend on it.
package sim

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Duration converts a standard library duration to simulation ticks.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Std converts a simulation timestamp back into a time.Duration.
func (t Time) Std() time.Duration { return time.Duration(t) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Handler receives dispatched events without a per-event closure. One
// handler instance typically serves many events, distinguished by arg
// (a packet, a small integer timer id, or nil).
type Handler interface {
	OnEvent(arg any)
}

// HandlerFunc adapts a function to the Handler interface. Func values are
// pointer-shaped, so the interface conversion itself does not allocate —
// but unlike a method on a long-lived struct, a new closure does, so hot
// paths should prefer struct handlers created once.
type HandlerFunc func(arg any)

// OnEvent implements Handler.
func (f HandlerFunc) OnEvent(arg any) { f(arg) }

// callback adapts a closure to Handler, so Schedule takes the pooled
// handler path. Func values are pointer-shaped: the conversion to Handler
// does not allocate.
type callback func()

// OnEvent implements Handler.
func (f callback) OnEvent(any) { f() }

// event is one queued dispatch of h.OnEvent: an engine-owned pooled event
// (Schedule/ScheduleHandler), a Timer's embedded event, or a Line's head
// slot.
type event struct {
	at  Time
	idx int // heap slot, -1 when not queued

	h    Handler
	arg  any
	line *Line // non-nil for a Line's head slot: dispatch advances the line

	eng    *Engine // owner, for eager heap removal on Timer.Stop
	pooled bool    // engine-owned: recycled into the free list after firing
	next   *event  // free-list link while a pooled event waits for reuse
}

// entry is one heap slot. The sort key lives in the slot itself, so sifting
// compares contiguous values and never dereferences an event.
type entry struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-time events
	ev  *event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// less is before as a 0/1 word, computed without a branch: the key reads as
// the unsigned 128-bit number (at with its sign bit flipped, seq), and a is
// smaller exactly when subtracting b's words borrows out of the high word.
// Flipping the sign bit maps int64 order onto uint64 order, so less agrees
// with before for every deadline.
func less(a, b *entry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^1<<63, uint64(b.at)^1<<63, borrow)
	return borrow
}

// eventQueue is a 4-ary min-heap on (at, seq); each queued event records
// its slot in idx. Four children per node halve the depth of a binary heap,
// and sift-down — the hot direction, run on every pop — compares siblings
// that sit next to each other in memory.
type eventQueue []entry

func (q *eventQueue) push(at Time, seq uint64, ev *event) {
	*q = append(*q, entry{at: at, seq: seq, ev: ev})
	q.up(len(*q) - 1)
}

// pop discards the root slot, whose event the caller has already marked
// unqueued.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{}
	*q = h[:n]
	if n > 0 {
		q.down(0)
	}
}

// remove deletes slot i.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	h[i].ev.idx = -1
	h[i] = h[n]
	h[n] = entry{}
	*q = h[:n]
	if i < n {
		q.fix(i)
	}
}

// fix restores heap order after slot i's key changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q eventQueue) up(i int) {
	x := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = i
		i = p
	}
	q[i] = x
	x.ev.idx = i
}

// down sifts slot i toward the leaves and reports whether it moved. A full
// group of four children is reduced without branches — the winner of each
// pair, then the winner of the two — since which child is smallest is a
// coin toss the branch predictor loses; ties keep the leftmost child, as
// the scan of a partial last group does.
func (q eventQueue) down(i int) bool {
	n := len(q)
	x := q[i]
	i0 := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		var m int
		if c+4 <= n {
			g := q[c : c+4 : c+4]
			a := int(less(&g[1], &g[0]))
			b := 2 + int(less(&g[3], &g[2]))
			m = c + (a ^ (a^b)&-int(less(&g[b&3], &g[a&3])))
		} else {
			m = c
			for j := c + 1; j < n; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.idx = i
		i = m
	}
	q[i] = x
	x.ev.idx = i
	return i > i0
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now     Time
	queue   eventQueue
	hole    bool // queue[0] is the dispatching event's slot, free for reuse
	behind  int  // Line entries queued behind their line's head (not in the heap)
	seq     uint64
	cur     uint64 // seq of the dispatching or last dispatched event (see Reached)
	stopped bool
	rng     *RNG

	// free is the pool of engine-owned events for Schedule and
	// ScheduleHandler: a stack linked through event.next, so returning an
	// event to it never grows a slice.
	free *event

	// Watchdog budget (see SetBudget). budgeted gates the per-event checks
	// so the unbudgeted hot path pays a single predictable branch.
	budgeted  bool
	maxEvents uint64
	maxWall   time.Duration
	wallStart time.Time
	overrun   error

	// Stats. observed counts the executed events that were observer-timer
	// expiries (see Timer.InitObserver).
	executed uint64
	observed uint64

	// aud, when non-nil, validates scheduler invariants (time monotonicity,
	// event-pool hygiene, end-of-run quiescence). Every hot-path check is
	// gated on a single nil test so a disabled engine pays one predictable
	// branch and zero allocations.
	aud *audit.Auditor

	// trc, when non-nil, is the run's telemetry tracer. The engine never
	// emits events itself — components discover the tracer at construction
	// (like the auditor) and hold their own flow/port tracers — but it is
	// the rendezvous point, and it wires the auditor's flight recorder when
	// both are attached.
	trc *telemetry.Tracer
}

// NewEngine returns an engine with its clock at zero and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Executed returns the number of events run so far, not counting
// observer-timer expiries.
func (e *Engine) Executed() uint64 { return e.executed - e.observed }

// Pending returns the number of queued events, including Line entries
// waiting behind their line's head.
func (e *Engine) Pending() int {
	n := len(e.queue) + e.behind
	if e.hole {
		n--
	}
	return n
}

// push queues ev under (at, seq), reusing the fired slot when there is one.
func (e *Engine) push(at Time, seq uint64, ev *event) {
	if e.hole {
		e.hole = false
		e.queue[0] = entry{at: at, seq: seq, ev: ev}
		e.queue.down(0)
		return
	}
	e.queue.push(at, seq, ev)
}

// Key is a point in the dispatch order: the (deadline, sequence) pair an
// event runs under. The zero Key is reached from the start of the run.
type Key struct {
	At  Time
	Seq uint64
}

// Reserve returns the key an event scheduled now for deadline at would run
// under, without queueing one. Times in the past are clamped to now.
func (e *Engine) Reserve(at Time) Key {
	e.seq++
	return Key{At: max(at, e.now), Seq: e.seq}
}

// Reached reports whether the run has passed k: an event queued under k
// would already have been dispatched. Between RunUntil calls every key up
// to the clock is reached, unless Stop or the watchdog ended the run early.
func (e *Engine) Reached(k Key) bool {
	return k.At < e.now || (k.At == e.now && k.Seq <= e.cur)
}

// FreeEvents returns the size of the pooled-event free list (telemetry and
// pool-reuse tests).
func (e *Engine) FreeEvents() int {
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// SetAuditor attaches (or, with nil, detaches) a runtime invariant auditor.
// The engine becomes the auditor's simulation clock and registers its
// end-of-run quiescence check: after a run, no queued event may be earlier
// than the clock — such an event was due but never dispatched. Components
// built on this engine discover the auditor via Auditor at construction.
func (e *Engine) SetAuditor(a *audit.Auditor) {
	e.aud = a
	if a == nil {
		return
	}
	a.SetClock(func() int64 { return int64(e.now) })
	e.wireFlightRecorder()
	a.OnFinish("sim", "quiescence", func() error {
		if len(e.queue) > 0 && e.queue[0].at < e.now {
			return fmt.Errorf("event due at %v still queued after run ended at %v (%d pending)",
				e.queue[0].at, e.now, e.Pending())
		}
		return nil
	})
}

// Auditor returns the attached invariant auditor, or nil when auditing is
// disabled.
func (e *Engine) Auditor() *audit.Auditor { return e.aud }

// SetTracer attaches (or, with nil, detaches) the run's telemetry tracer.
// Like SetAuditor it must be called before topology construction so
// components can discover it. When the engine also carries an auditor, the
// auditor's flight recorder is wired to the tracer: a Violation then embeds
// the trailing events of every ring at the moment of the breach. The
// engine is the tracer's clock.
func (e *Engine) SetTracer(t *telemetry.Tracer) {
	e.trc = t
	if t != nil {
		t.SetClock(func() int64 { return int64(e.now) })
	}
	e.wireFlightRecorder()
}

// Tracer returns the attached telemetry tracer, or nil when tracing is
// disabled.
func (e *Engine) Tracer() *telemetry.Tracer { return e.trc }

func (e *Engine) wireFlightRecorder() {
	if e.aud == nil {
		return
	}
	if e.trc == nil {
		e.aud.SetFlightRecorder(nil)
		return
	}
	t := e.trc
	e.aud.SetFlightRecorder(func() string { return t.TailNDJSON(0) })
}

// Schedule queues fn to run after delay on a pooled, engine-owned event,
// exactly as ScheduleHandler does. A negative delay is clamped to zero (runs
// at the current time, after already-queued same-time events).
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	e.ScheduleHandler(delay, callback(fn), nil)
}

// ScheduleHandler queues h.OnEvent(arg) to run after delay using a pooled,
// engine-owned event: the hot path allocates nothing once the pool has
// warmed up. A negative delay is clamped to zero. The event cannot be
// cancelled (no handle is returned); use a Timer for cancellable or
// recurring work.
func (e *Engine) ScheduleHandler(delay time.Duration, h Handler, arg any) {
	at := e.now + Duration(max(delay, 0))
	ev := e.free
	if ev != nil {
		e.free, ev.next = ev.next, nil
		if e.aud != nil && (ev.pooled || ev.idx >= 0 || ev.h != nil) {
			e.aud.Failf("sim", "pool-corrupt",
				"free-list event not zeroed: pooled=%v idx=%d handler=%v", ev.pooled, ev.idx, ev.h != nil)
		}
	} else {
		ev = &event{eng: e}
	}
	e.seq++
	ev.at = at
	ev.h = h
	ev.arg = arg
	ev.pooled = true
	e.push(at, e.seq, ev)
}

// release zeroes a pooled event and returns it to the free list.
func (e *Engine) release(ev *event) {
	if e.aud != nil {
		if !ev.pooled {
			e.aud.Failf("sim", "pool-double-free",
				"release of a non-pooled or already-released event (at=%v)", ev.at)
		}
		if ev.idx >= 0 {
			e.aud.Failf("sim", "pool-release-queued",
				"release of an event still queued at heap index %d (at=%v)", ev.idx, ev.at)
		}
	}
	*ev = event{eng: e, idx: -1, next: e.free}
	e.free = ev
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// SetBudget arms the engine watchdog: the run loop aborts once it has
// executed maxEvents events as counted by Executed (0 = unlimited), so
// observer ticks never consume the budget, or once maxWall of real time
// has elapsed since SetBudget was called (0 = unlimited). The event budget
// is exact and deterministic; the wall budget is checked every 2^16 events
// and is a machine-dependent safety net for runaway configurations. After
// an overrun the loop stops and Overrun reports why.
func (e *Engine) SetBudget(maxEvents uint64, maxWall time.Duration) {
	e.maxEvents = maxEvents
	e.maxWall = maxWall
	e.wallStart = time.Now()
	e.budgeted = maxEvents > 0 || maxWall > 0
	e.overrun = nil
}

// Overrun returns a non-nil error if a SetBudget limit was exceeded.
func (e *Engine) Overrun() error { return e.overrun }

// checkBudget enforces SetBudget limits; it reports true when the run loop
// must abort.
func (e *Engine) checkBudget() bool {
	if e.overrun != nil {
		return true
	}
	if e.maxEvents > 0 && e.Executed() >= e.maxEvents {
		e.overrun = fmt.Errorf("sim: watchdog: event budget exceeded (%d events)", e.maxEvents)
		return true
	}
	if e.maxWall > 0 && e.executed&0xffff == 0 && time.Since(e.wallStart) > e.maxWall {
		e.overrun = fmt.Errorf("sim: watchdog: wall budget exceeded (%v)", e.maxWall)
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes, in deadline order, every queued event whose deadline is
// <= end (including events those callbacks schedule, as long as they also
// fall within end), then leaves the clock at exactly end. If the queue
// drains early, the clock still advances to end; it never moves past it, so
// later events stay queued for a subsequent Run/RunUntil call. The one
// exception is the sentinel end used by Run (the maximum Time), which
// leaves the clock at the last executed event.
func (e *Engine) RunUntil(end Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.budgeted && e.checkBudget() {
			return // overrun: leave the clock where the watchdog fired
		}
		head := &e.queue[0]
		if head.at > end {
			break
		}
		if e.aud != nil && head.at < e.now {
			e.aud.Failf("sim", "time-monotone",
				"heap head due at %v is earlier than the clock %v", head.at, e.now)
		}
		e.now = head.at
		e.cur = head.seq
		e.executed++
		next := head.ev
		if next.line != nil {
			next.h.OnEvent(next.line.shift())
		} else {
			next.idx = -1
			e.hole = true
			next.h.OnEvent(next.arg)
		}
		if e.hole {
			e.hole = false
			e.queue.pop()
		}
		if next.pooled {
			e.release(next)
		}
	}
	if !e.stopped && e.now <= end {
		// Everything due by end has run, so every key reserved so far up
		// to the clock is reached.
		e.cur = e.seq
	}
	if e.now < end && end < Time(1<<63-1) {
		e.now = end
	}
}

// RunFor executes events for d of simulated time from the current clock.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + Duration(d))
}

// Timer is a reusable, caller-owned timer dispatching to a Handler. The
// zero value is unusable; call Init once, then Reset/Stop freely — neither
// allocates. A Timer must not be copied after Init.
type Timer struct {
	ev event
}

// Init binds the timer to an engine and its dispatch target. arg is passed
// to h.OnEvent on every expiry (commonly a small integer distinguishing the
// owner's timers). Init must be called exactly once, before any Reset.
func (t *Timer) Init(eng *Engine, h Handler, arg any) {
	t.ev = event{eng: eng, idx: -1, h: h, arg: arg}
}

// InitObserver is Init for an observation-only timer (samplers, interval
// reports) whose expiries call h.OnEvent(nil): every expiry still runs in
// (deadline, sequence) order like any other event, but is excluded from
// Executed and from the event watchdog.
func (t *Timer) InitObserver(eng *Engine, h Handler) {
	t.Init(eng, &observer{eng: eng, h: h}, nil)
}

// observer counts an observer timer's expiries before dispatching them.
type observer struct {
	eng *Engine
	h   Handler
}

func (o *observer) OnEvent(arg any) {
	o.eng.observed++
	o.h.OnEvent(arg)
}

// Reset (re)schedules the timer to fire after delay, replacing any pending
// deadline. A reset timer behaves like a freshly scheduled event for
// same-deadline FIFO ordering: it runs after events already queued at that
// time. Negative delays are clamped to zero.
func (t *Timer) Reset(delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.ev.eng.now + Duration(delay))
}

// ResetAt is Reset with an absolute deadline. Times in the past are clamped
// to now. When the timer is already queued its heap slot is re-keyed in
// place — no allocation, no dead entry left behind.
func (t *Timer) ResetAt(at Time) { t.ResetKey(t.ev.eng.Reserve(at)) }

// ResetKey (re)schedules the timer under k, a key taken with Reserve that
// is not yet Reached: the timer then runs exactly where an event scheduled
// at the time of the Reserve call would have.
func (t *Timer) ResetKey(k Key) {
	eng := t.ev.eng
	t.ev.at = k.At
	if i := t.ev.idx; i >= 0 {
		eng.queue[i].at, eng.queue[i].seq = k.At, k.Seq
		eng.queue.fix(i)
		return
	}
	eng.push(k.At, k.Seq, &t.ev)
}

// Stop removes the timer from the queue if pending (eagerly — no dead entry
// remains in the heap). Safe to call on a never-armed or already-fired
// timer.
func (t *Timer) Stop() {
	if t.ev.idx >= 0 {
		t.ev.eng.queue.remove(t.ev.idx)
	}
}

// Pending reports whether the timer is queued.
func (t *Timer) Pending() bool { return t.ev.idx >= 0 }

// At returns the timer's current (or last) deadline.
func (t *Timer) At() Time { return t.ev.at }

// Line is a caller-owned FIFO delay line dispatching every entry to one
// Handler — the propagation half of a link. Entries wait in a ring inside
// the Line in push order, which PushAt's clamp makes (deadline, sequence)
// order; only the head holds a heap slot. The zero value is unusable; call
// Init once, then PushAt freely — it allocates only while the ring grows to
// the line's high-water mark. A Line must not be copied after Init.
type Line struct {
	ev   event       // heap slot keyed by the head entry; queued iff n > 0
	ring []lineEntry // power-of-two length
	head int
	n    int
}

type lineEntry struct {
	at  Time
	seq uint64
	arg any
}

// lineLookahead is how many ring entries ahead of the new head shift
// prefetches: two 32-byte entries, the next cache line.
const lineLookahead = 2

// Init binds the line to an engine and its dispatch target: every entry
// fires as h.OnEvent(arg). Init must be called exactly once, before any
// PushAt.
func (l *Line) Init(eng *Engine, h Handler) {
	l.ev = event{eng: eng, idx: -1, h: h, line: l}
}

// PushAt queues h.OnEvent(arg) at absolute time at, clamped to no earlier
// than now and the tail entry's deadline: the line delivers in push order.
// It reserves the next sequence number exactly as ScheduleHandler does, so
// the entry runs at the same point in the global order as a separately
// scheduled event would.
func (l *Line) PushAt(at Time, arg any) {
	eng := l.ev.eng
	at = max(at, eng.now)
	if l.n == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	if l.n > 0 {
		at = max(at, l.ring[(l.head+l.n-1)&mask].at)
		eng.behind++
	}
	eng.seq++
	l.ring[(l.head+l.n)&mask] = lineEntry{at: at, seq: eng.seq, arg: arg}
	if l.n++; l.n == 1 {
		eng.push(at, eng.seq, &l.ev)
	}
}

// shift is called when the line's slot is at the heap root: it removes the
// head entry, re-keys the slot to the next entry's stored (at, seq) — or
// leaves it as the engine's hole when the line empties — and returns the
// removed entry's arg. The heap is consistent again before the handler
// runs, so the handler may push onto this line.
func (l *Line) shift() any {
	eng := l.ev.eng
	hd := &l.ring[l.head]
	arg := hd.arg
	*hd = lineEntry{}
	mask := len(l.ring) - 1
	l.head = (l.head + 1) & mask
	l.n--
	if l.n == 0 {
		l.ev.idx = -1
		eng.hole = true
		return arg
	}
	eng.behind--
	// The ring is read strictly in order, one entry per delivery, but
	// deliveries are far apart in the event stream: fetch the line holding
	// the entry after next while this one is consumed.
	Prefetch(&l.ring[(l.head+lineLookahead)&mask])
	nx := &l.ring[l.head]
	eng.queue[0].at, eng.queue[0].seq = nx.at, nx.seq
	eng.queue.down(0)
	return arg
}

// Head returns the arg of the entry the line will deliver next, or nil when
// the line is empty. Called from the handler, it peeks at the delivery after
// the one being dispatched.
func (l *Line) Head() any {
	if l.n == 0 {
		return nil
	}
	return l.ring[l.head].arg
}

// Len returns how many entries wait on the line.
func (l *Line) Len() int { return l.n }

// grow doubles the full ring, unrolling it to start at index 0.
func (l *Line) grow() {
	ring := make([]lineEntry, max(16, 2*len(l.ring)))
	n := copy(ring, l.ring[l.head:])
	copy(ring[n:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}
