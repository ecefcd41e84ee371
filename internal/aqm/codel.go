package aqm

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// CoDelParams are the RFC 8289 control-law knobs.
type CoDelParams struct {
	Target   time.Duration // acceptable standing sojourn time (default 5ms)
	Interval time.Duration // sliding window (default 100ms)
	ECN      bool          // mark ECT packets instead of dropping
}

func (p *CoDelParams) defaults() {
	if p.Target <= 0 {
		p.Target = 5 * time.Millisecond
	}
	if p.Interval <= 0 {
		p.Interval = 100 * time.Millisecond
	}
}

// codelState holds the per-queue CoDel controller (RFC 8289 §5). It is the
// dequeue-side law FQ-CoDel applies independently to each flow queue.
type codelState struct {
	p              CoDelParams
	firstAboveTime sim.Time // when sojourn first exceeded target (0 = not yet)
	dropNext       sim.Time // time of next scheduled drop while dropping
	count          int      // drops since entering drop state
	lastCount      int      // count at the previous drop-state entry
	dropping       bool
}

// controlLaw returns the next drop time: dropNext = t + interval/sqrt(count).
func (c *codelState) controlLaw(t sim.Time) sim.Time {
	return t + sim.Time(float64(c.p.Interval.Nanoseconds())/math.Sqrt(float64(c.count)))
}

// shouldDrop runs the RFC 8289 "ok to drop" decision for a packet with the
// given sojourn time at dequeue time now.
func (c *codelState) shouldDrop(sojourn, now sim.Time, backlogBytes int64) bool {
	if sojourn < sim.Duration(c.p.Target) || backlogBytes <= 0 {
		c.firstAboveTime = 0
		return false
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now + sim.Duration(c.p.Interval)
		return false
	}
	return now >= c.firstAboveTime
}

// codelSource abstracts the packet storage a CoDel controller drains. The
// caller passes a stable pointer (its own flow-queue struct), keeping the
// dequeue hot path free of per-call closure allocations.
type codelSource interface {
	// pop removes and returns the head packet, updating the caller's byte
	// and packet accounting, or returns nil when empty.
	pop() *packet.Packet
	// backlog returns the bytes still queued behind the popped packet.
	backlog() int64
}

// dequeue applies the controller to the head packet of src at time now. It
// returns the packet to transmit (possibly after dropping predecessors);
// drops and marks are counted and traced in l. The caller supplies its own
// storage via src so FQ-CoDel can share this logic across flow queues.
func (c *codelState) dequeue(now sim.Time, src codelSource, l *ledger) *packet.Packet {
	p := src.pop()
	if p == nil {
		c.dropping = false
		return nil
	}
	sojourn := now - p.EnqueueAt

	if c.dropping {
		if !c.shouldDrop(sojourn, now, src.backlog()) {
			c.dropping = false
			return p
		}
		for now >= c.dropNext && c.dropping {
			marked := c.signal(now, p, src, l)
			c.count++
			if marked {
				c.dropNext = c.controlLaw(c.dropNext)
				return p
			}
			p = src.pop()
			if p == nil {
				c.dropping = false
				return nil
			}
			sojourn = now - p.EnqueueAt
			if !c.shouldDrop(sojourn, now, src.backlog()) {
				c.dropping = false
				return p
			}
			c.dropNext = c.controlLaw(c.dropNext)
		}
		return p
	}

	if c.shouldDrop(sojourn, now, src.backlog()) {
		// Enter the dropping state.
		if !c.signal(now, p, src, l) {
			p = src.pop() // may be nil; transmit the next packet if any
		}
		c.dropping = true
		// RFC 8289: if we recently left the dropping state, resume a
		// higher drop rate rather than restarting from 1.
		if now-c.dropNext < sim.Duration(16*c.p.Interval) && c.count > 2 {
			c.count = c.count - 2
		} else {
			c.count = 1
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now)
	}
	return p
}

// signal applies the congestion signal to p, the packet just popped from
// src: it CE-marks p and returns true when ECN is on and p is ECN-capable,
// and otherwise drops p and returns false.
func (c *codelState) signal(now sim.Time, p *packet.Packet, src codelSource, l *ledger) bool {
	if c.p.ECN && (p.ECN == packet.ECT0 || p.ECN == packet.ECT1) {
		l.mark(now, p, telemetry.MarkCoDel, src.backlog())
		return true
	}
	l.drop(now, p, telemetry.DropCoDel, src.backlog())
	return false
}
