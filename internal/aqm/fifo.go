package aqm

import (
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// FIFO is the tail-drop queue: packets are accepted until the byte limit is
// reached, then dropped. It is the paper's baseline AQM and the only one
// that lets CCAs fill the whole buffer.
type FIFO struct{ buffer }

// NewFIFO returns a tail-drop queue holding at most capacity bytes.
func NewFIFO(capacity units.ByteSize) *FIFO { return &FIFO{newBuffer(capacity)} }

// Name implements Queue.
func (q *FIFO) Name() string { return string(KindFIFO) }

// Enqueue implements Queue: tail drop when the byte limit would be exceeded.
func (q *FIFO) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !q.fits(p) {
		q.drop(now, p, telemetry.DropTail, q.backlog())
		return false
	}
	q.push(now, p)
	return true
}

// Dequeue implements Queue.
func (q *FIFO) Dequeue(now sim.Time) *packet.Packet { return q.take() }

// SelfCheck implements SelfChecker.
func (q *FIFO) SelfCheck() error { return q.check(string(KindFIFO), 0) }
