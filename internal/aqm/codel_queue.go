package aqm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// CoDel is the standalone single-queue Controlled Delay discipline
// (RFC 8289, Linux sch_codel): a tail-drop buffer whose dequeue side runs
// the CoDel sojourn-time drop law. It is not part of the paper's grid
// (the paper evaluates FIFO, RED and FQ-CoDel) but completes the AQM set
// for validation runs and isolates the control law from the fair-queuing
// layer for ablation.
type CoDel struct {
	buffer
	ctl codelState

	// doorDrops counts tail drops at the full buffer, a subset of
	// stats.Dropped. CoDel shares FIFO/RED door semantics (rejected packets
	// are not Enqueued) while also dropping post-acceptance at dequeue, so
	// the split is needed to state the accepted-packet balance:
	// Enqueued = Dequeued + (Dropped - doorDrops) + Len.
	doorDrops uint64
}

// NewCoDel returns a standalone CoDel queue holding at most capacity bytes.
func NewCoDel(capacity units.ByteSize, ecn bool, p CoDelParams) *CoDel {
	p.defaults()
	if ecn {
		p.ECN = true
	}
	return &CoDel{buffer: newBuffer(capacity), ctl: codelState{p: p}}
}

// Name implements Queue.
func (q *CoDel) Name() string { return string(KindCoDel) }

// Enqueue implements Queue: tail drop when the byte limit would be
// exceeded, otherwise accept — all AQM intelligence runs at dequeue.
func (q *CoDel) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !q.fits(p) {
		q.doorDrops++
		q.drop(now, p, telemetry.DropOverlimit, q.backlog())
		return false
	}
	q.push(now, p)
	return true
}

// Dequeue implements Queue: the RFC 8289 control law decides whether the
// head packet (and possibly its successors) is transmitted, marked or
// dropped based on how long it sat in the queue.
func (q *CoDel) Dequeue(now sim.Time) *packet.Packet {
	p := q.ctl.dequeue(now, &q.buffer, &q.ledger)
	if p != nil {
		q.stats.Dequeued++
	}
	return p
}

// SelfCheck implements SelfChecker.
func (q *CoDel) SelfCheck() error {
	if q.doorDrops > q.stats.Dropped {
		return fmt.Errorf("codel: doorDrops=%d exceeds total Dropped=%d", q.doorDrops, q.stats.Dropped)
	}
	return q.check(string(KindCoDel), q.stats.Dropped-q.doorDrops)
}
