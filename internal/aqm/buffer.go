package aqm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// ledger is where every discipline counts and traces its losses: each drop
// and ECN mark in the package goes through drop or mark, so Stats and the
// port's trace ring cannot disagree, and each loss site states only its
// reason and the backlog it reports.
type ledger struct {
	stats Stats
	trc   *telemetry.PortTracer
}

// Stats implements Queue.
func (l *ledger) Stats() Stats { return l.stats }

// SetTrace implements TraceSink.
func (l *ledger) SetTrace(t *telemetry.PortTracer) { l.trc = t }

// drop counts p as lost for reason with backlog bytes still queued, traces
// it and releases it.
func (l *ledger) drop(now sim.Time, p *packet.Packet, reason telemetry.Aux, backlog int64) {
	l.stats.Dropped++
	l.stats.DroppedBytes += p.Size
	if l.trc != nil {
		l.trc.Drop(int64(now), uint32(p.Flow), reason, int64(p.Size), backlog)
	}
	packet.Release(p)
}

// mark sets CE on p in place of a drop, and counts and traces the mark.
func (l *ledger) mark(now sim.Time, p *packet.Packet, reason telemetry.Aux, backlog int64) {
	p.ECN = packet.CE
	l.stats.Marked++
	if l.trc != nil {
		l.trc.Mark(int64(now), uint32(p.Flow), reason, int64(p.Size), backlog)
	}
}

// buffer is the byte-bounded packet ring FIFO, RED and standalone CoDel
// share; each adds only its own law on top. It is a codelSource.
type buffer struct {
	ring  ring[*packet.Packet]
	bytes units.ByteSize
	cap   units.ByteSize
	ledger
}

func newBuffer(capacity units.ByteSize) buffer {
	if capacity <= 0 {
		capacity = 1 // degenerate but non-blocking
	}
	return buffer{cap: capacity}
}

// Capacity implements Queue.
func (b *buffer) Capacity() units.ByteSize { return b.cap }

// Len implements Queue.
func (b *buffer) Len() int { return b.ring.len() }

// Bytes implements Queue.
func (b *buffer) Bytes() units.ByteSize { return b.bytes }

// fits reports whether p can join the queue without exceeding capacity.
func (b *buffer) fits(p *packet.Packet) bool { return b.bytes+p.Size <= b.cap }

// push accepts p at time now.
func (b *buffer) push(now sim.Time, p *packet.Packet) {
	p.EnqueueAt = now
	b.ring.push(p)
	b.bytes += p.Size
	b.stats.Enqueued++
}

// pop implements codelSource: it removes the head packet, or returns nil
// when empty, without counting it as dequeued.
func (b *buffer) pop() *packet.Packet {
	p := b.ring.pop()
	if p != nil {
		b.bytes -= p.Size
		// The new front was queued a queueing delay ago and is cold by
		// now; the next pop reads its size, CoDel its enqueue time.
		if nx := b.ring.front(); nx != nil {
			sim.Prefetch(nx)
		}
	}
	return p
}

// backlog implements codelSource.
func (b *buffer) backlog() int64 { return int64(b.bytes) }

// take pops the head packet and counts it as dequeued.
func (b *buffer) take() *packet.Packet {
	p := b.pop()
	if p != nil {
		b.stats.Dequeued++
	}
	return p
}

// check verifies the invariants every buffer-backed discipline shares: the
// queued packets sum to the byte count, occupancy lies in [0, cap], and
// accepted packets balance as Enqueued = Dequeued + lawDrops + Len, where
// lawDrops counts the packets the discipline's law dropped after accepting
// them.
func (b *buffer) check(name string, lawDrops uint64) error {
	var sum units.ByteSize
	for i := 0; i < b.ring.len(); i++ {
		sum += b.ring.at(i).Size
	}
	if sum != b.bytes {
		return fmt.Errorf("%s: queued packets sum to %d bytes but occupancy says %d", name, sum, b.bytes)
	}
	if b.bytes < 0 || b.bytes > b.cap {
		return fmt.Errorf("%s: occupancy %d outside [0, %d]", name, b.bytes, b.cap)
	}
	if b.stats.Enqueued != b.stats.Dequeued+lawDrops+uint64(b.ring.len()) {
		return fmt.Errorf("%s: accepted-packet imbalance: enqueued=%d != dequeued=%d + law-dropped=%d + queued=%d",
			name, b.stats.Enqueued, b.stats.Dequeued, lawDrops, b.ring.len())
	}
	return nil
}

// ring is a growable circular FIFO: the packets of a buffer or flow queue,
// and FQ-CoDel's scheduler lists of flow indices. It avoids the per-element
// allocation of container/list in the hottest path of the simulator, and
// never allocates once grown. Its length is zero or a power of two, so
// indices wrap with a mask.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head element, or the zero value when empty.
func (r *ring[T]) pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// front returns the head element, or the zero value when empty.
func (r *ring[T]) front() T {
	if r.n == 0 {
		var zero T
		return zero
	}
	return r.buf[r.head]
}

// at returns the i-th element from the head, 0 ≤ i < len.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.at(i)
	}
	r.buf = nb
	r.head = 0
}
