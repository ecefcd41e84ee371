package aqm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// FIFO is the tail-drop queue: packets are accepted until the byte limit is
// reached, then dropped. It is the paper's baseline AQM and the only one
// that lets CCAs fill the whole buffer.
type FIFO struct {
	ring  pktRing
	bytes units.ByteSize
	cap   units.ByteSize
	stats Stats
	trc   *telemetry.PortTracer
}

// SetTrace implements TraceSink.
func (q *FIFO) SetTrace(t *telemetry.PortTracer) { q.trc = t }

// NewFIFO returns a tail-drop queue holding at most capacity bytes.
func NewFIFO(capacity units.ByteSize) *FIFO {
	if capacity <= 0 {
		capacity = 1 // degenerate but non-blocking
	}
	return &FIFO{cap: capacity}
}

// Name implements Queue.
func (q *FIFO) Name() string { return string(KindFIFO) }

// Capacity implements Queue.
func (q *FIFO) Capacity() units.ByteSize { return q.cap }

// Len implements Queue.
func (q *FIFO) Len() int { return q.ring.len() }

// Bytes implements Queue.
func (q *FIFO) Bytes() units.ByteSize { return q.bytes }

// Stats implements Queue.
func (q *FIFO) Stats() Stats { return q.stats }

// Enqueue implements Queue: tail drop when the byte limit would be exceeded.
func (q *FIFO) Enqueue(now sim.Time, p *packet.Packet) bool {
	if q.bytes+p.Size > q.cap {
		q.stats.Dropped++
		q.stats.DroppedBytes += p.Size
		if q.trc != nil {
			q.trc.Drop(int64(now), uint32(p.Flow), telemetry.DropTail, int64(p.Size), int64(q.bytes))
		}
		packet.Release(p)
		return false
	}
	p.EnqueueAt = now
	q.ring.push(p)
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

// Dequeue implements Queue.
func (q *FIFO) Dequeue(now sim.Time) *packet.Packet {
	p := q.ring.pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.Size
	q.stats.Dequeued++
	return p
}

// SelfCheck implements SelfChecker.
func (q *FIFO) SelfCheck() error {
	var sum units.ByteSize
	q.ring.forEach(func(p *packet.Packet) { sum += p.Size })
	if sum != q.bytes {
		return fmt.Errorf("fifo: queued packets sum to %d bytes but occupancy says %d", sum, q.bytes)
	}
	if q.bytes < 0 || q.bytes > q.cap {
		return fmt.Errorf("fifo: occupancy %d outside [0, %d]", q.bytes, q.cap)
	}
	if q.stats.Enqueued != q.stats.Dequeued+uint64(q.ring.len()) {
		return fmt.Errorf("fifo: accepted-packet imbalance: enqueued=%d != dequeued=%d + queued=%d",
			q.stats.Enqueued, q.stats.Dequeued, q.ring.len())
	}
	return nil
}

// pktRing is a growable circular buffer of packets; it avoids the per-element
// allocation of container/list in the hottest path of the simulator. Its
// length is zero or a power of two, so indices wrap with a mask.
type pktRing struct {
	buf  []*packet.Packet
	head int
	n    int
}

func (r *pktRing) len() int { return r.n }

func (r *pktRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) peek() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// forEach visits every queued packet head-to-tail without mutating the ring.
func (r *pktRing) forEach(fn func(*packet.Packet)) {
	for i := 0; i < r.n; i++ {
		fn(r.buf[(r.head+i)&(len(r.buf)-1)])
	}
}

func (r *pktRing) grow() {
	newCap := len(r.buf) * 2
	if newCap == 0 {
		newCap = 16
	}
	nb := make([]*packet.Packet, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}
