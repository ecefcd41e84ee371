package aqm

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// FQCoDelParams are the RFC 8290 knobs. Zero values select the RFC/Linux
// defaults: 1024 flow buckets, a quantum of one jumbo frame, CoDel target
// 5 ms / interval 100 ms.
type FQCoDelParams struct {
	Flows   int // number of hash buckets (default 1024)
	Quantum units.ByteSize
	CoDel   CoDelParams
	Perturb uint64 // hash perturbation (decorrelates replicas)
}

// FQCoDel is the Fair Queuing / Controlled Delay discipline (RFC 8290):
// flows are hashed into sub-queues served by deficit round-robin with a
// new-flow priority list, and each sub-queue runs the CoDel drop law. It is
// the discipline the paper finds delivers near-perfect fairness.
type FQCoDel struct {
	p     FQCoDelParams
	cap   units.ByteSize
	bytes units.ByteSize
	npkts int
	// ledger counts and traces fat-flow evictions and every flow queue's
	// CoDel drops and marks into one port ring.
	ledger

	queues   []flowQueue
	newFlows ring[int] // indices into queues
	oldFlows ring[int]
}

type flowQueue struct {
	parent  *FQCoDel // owning discipline, for shared byte/packet accounting
	ring    ring[*packet.Packet]
	bytes   int64
	deficit int64
	codel   codelState
	state   uint8 // 0 idle, 1 on new list, 2 on old list
}

// pop implements codelSource: remove the head packet and maintain both the
// per-flow and the discipline-wide accounting.
func (fq *flowQueue) pop() *packet.Packet {
	p := fq.ring.pop()
	if p != nil {
		fq.bytes -= int64(p.Size)
		fq.parent.bytes -= p.Size
		fq.parent.npkts--
	}
	return p
}

// backlog implements codelSource.
func (fq *flowQueue) backlog() int64 { return fq.bytes }

const (
	fqIdle uint8 = iota
	fqNew
	fqOld
)

// NewFQCoDel returns an FQ-CoDel queue holding at most capacity bytes total.
func NewFQCoDel(capacity units.ByteSize, ecn bool, p FQCoDelParams) *FQCoDel {
	if capacity <= 0 {
		capacity = 1
	}
	if p.Flows <= 0 {
		p.Flows = 1024
	}
	if p.Quantum <= 0 {
		p.Quantum = 8960 // one jumbo frame, mirroring Linux quantum≈MTU
	}
	p.CoDel.defaults()
	if ecn {
		p.CoDel.ECN = true
	}
	q := &FQCoDel{
		p:      p,
		cap:    capacity,
		queues: make([]flowQueue, p.Flows),
	}
	for i := range q.queues {
		q.queues[i].parent = q
		q.queues[i].codel.p = p.CoDel
	}
	return q
}

// Name implements Queue.
func (q *FQCoDel) Name() string { return string(KindFQCoDel) }

// Capacity implements Queue.
func (q *FQCoDel) Capacity() units.ByteSize { return q.cap }

// Len implements Queue.
func (q *FQCoDel) Len() int { return q.npkts }

// Bytes implements Queue.
func (q *FQCoDel) Bytes() units.ByteSize { return q.bytes }

// Enqueue implements Queue. When the shared byte limit is exceeded the
// packet at the head of the largest sub-queue is dropped (RFC 8290 §4.1's
// fat-flow eviction), which protects thin flows from bulk ones.
//
// Counter semantics differ from FIFO/RED: every offered packet counts as
// Enqueued (FQ-CoDel never rejects at the door), and Dropped counts all
// post-acceptance losses (fat-flow evictions and CoDel dequeue drops), so
// Enqueued = Dequeued + Dropped + Len at all times.
func (q *FQCoDel) Enqueue(now sim.Time, p *packet.Packet) bool {
	idx := packet.FlowHash(p.Flow, q.p.Perturb, q.p.Flows)
	fq := &q.queues[idx]
	p.EnqueueAt = now
	fq.ring.push(p)
	fq.bytes += int64(p.Size)
	q.bytes += p.Size
	q.npkts++
	q.stats.Enqueued++

	if fq.state == fqIdle {
		fq.state = fqNew
		fq.deficit = int64(q.p.Quantum)
		q.newFlows.push(idx)
	}

	accepted := true
	for q.bytes > q.cap {
		if q.dropFromFattest(now, idx, p) {
			accepted = false // the packet we just enqueued was the victim
		}
	}
	return accepted
}

// dropFromFattest drops the head packet of the largest sub-queue. It returns
// true when the victim is exactly the packet just enqueued (so Enqueue can
// report a drop to the caller).
func (q *FQCoDel) dropFromFattest(now sim.Time, justIdx int, just *packet.Packet) bool {
	fat, fatBytes := -1, int64(-1)
	for i := range q.queues {
		if q.queues[i].bytes > fatBytes {
			fat, fatBytes = i, q.queues[i].bytes
		}
	}
	if fat < 0 || fatBytes <= 0 {
		return false
	}
	victim := q.queues[fat].pop()
	if victim == nil {
		return false
	}
	isJust := fat == justIdx && victim == just
	q.drop(now, victim, telemetry.DropOverlimit, int64(q.bytes))
	return isJust
}

// Dequeue implements Queue with the RFC 8290 two-list DRR scheduler.
func (q *FQCoDel) Dequeue(now sim.Time) *packet.Packet {
	for {
		var list *ring[int]
		if q.newFlows.len() > 0 {
			list = &q.newFlows
		} else if q.oldFlows.len() > 0 {
			list = &q.oldFlows
		} else {
			return nil
		}
		idx := list.front()
		fq := &q.queues[idx]

		if fq.deficit <= 0 {
			fq.deficit += int64(q.p.Quantum)
			// Move to the back of the old list.
			list.pop()
			fq.state = fqOld
			q.oldFlows.push(idx)
			continue
		}

		p := fq.codel.dequeue(now, fq, &q.ledger)

		if p == nil {
			// Queue drained. A new-list flow moves to the old list (to
			// guard against a flow cycling through "new" status); an
			// old-list flow becomes idle.
			list.pop()
			if fq.state == fqNew && q.oldFlows.len() > 0 {
				fq.state = fqOld
				q.oldFlows.push(idx)
			} else {
				fq.state = fqIdle
			}
			continue
		}
		fq.deficit -= int64(p.Size)
		q.stats.Dequeued++
		return p
	}
}

// SelfCheck implements SelfChecker: it re-derives the discipline-wide byte
// and packet occupancy from the per-flow rings, validates each flow's own
// byte accounting, and checks scheduler-list consistency (a backlogged flow
// is never idle; every listed flow's state matches the list holding it;
// no flow sits on both or either list twice).
func (q *FQCoDel) SelfCheck() error {
	var bytes units.ByteSize
	npkts := 0
	for i := range q.queues {
		fq := &q.queues[i]
		var fqSum int64
		for j := 0; j < fq.ring.len(); j++ {
			fqSum += int64(fq.ring.at(j).Size)
		}
		if fqSum != fq.bytes {
			return fmt.Errorf("fq_codel: flow %d packets sum to %d bytes but flow occupancy says %d", i, fqSum, fq.bytes)
		}
		if fq.ring.len() > 0 && fq.state == fqIdle {
			return fmt.Errorf("fq_codel: flow %d holds %d packets but is marked idle", i, fq.ring.len())
		}
		bytes += units.ByteSize(fqSum)
		npkts += fq.ring.len()
	}
	if bytes != q.bytes {
		return fmt.Errorf("fq_codel: flows sum to %d bytes but discipline occupancy says %d", bytes, q.bytes)
	}
	if npkts != q.npkts {
		return fmt.Errorf("fq_codel: flows hold %d packets but discipline count says %d", npkts, q.npkts)
	}
	if q.bytes < 0 || q.bytes > q.cap {
		return fmt.Errorf("fq_codel: occupancy %d outside [0, %d]", q.bytes, q.cap)
	}
	if q.stats.Enqueued != q.stats.Dequeued+q.stats.Dropped+uint64(q.npkts) {
		return fmt.Errorf("fq_codel: offered-packet imbalance: enqueued=%d != dequeued=%d + dropped=%d + queued=%d",
			q.stats.Enqueued, q.stats.Dequeued, q.stats.Dropped, q.npkts)
	}
	seen := make([]bool, len(q.queues))
	for _, sched := range []struct {
		name  string
		list  *ring[int]
		state uint8
	}{{"new", &q.newFlows, fqNew}, {"old", &q.oldFlows, fqOld}} {
		for j := 0; j < sched.list.len(); j++ {
			idx := sched.list.at(j)
			if idx < 0 || idx >= len(q.queues) {
				return fmt.Errorf("fq_codel: %s-list entry %d is not a flow bucket", sched.name, idx)
			}
			if st := q.queues[idx].state; st != sched.state {
				return fmt.Errorf("fq_codel: %s-list entry %d has state %d, want %d", sched.name, idx, st, sched.state)
			}
			if seen[idx] {
				return fmt.Errorf("fq_codel: flow %d appears twice on the scheduler lists", idx)
			}
			seen[idx] = true
		}
	}
	for i := range q.queues {
		if q.queues[i].state != fqIdle && !seen[i] {
			return fmt.Errorf("fq_codel: flow %d has state %d but sits on no scheduler list", i, q.queues[i].state)
		}
	}
	return nil
}

// BackloggedFlows reports how many sub-queues currently hold packets (used
// by fairness tests).
func (q *FQCoDel) BackloggedFlows() int {
	n := 0
	for i := range q.queues {
		if q.queues[i].ring.len() > 0 {
			n++
		}
	}
	return n
}
