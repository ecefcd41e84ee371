package aqm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// REDParams are the Random Early Detection knobs. Zero values pick the
// Linux tc-red style defaults derived from the byte limit:
//
//	MaxTh  = limit/4
//	MinTh  = MaxTh/3
//	MaxP   = 0.02
//	Wq     = 0.002
//	Gentle = true (drop probability ramps from MaxP at MaxTh to 1 at 2·MaxTh)
type REDParams struct {
	MinTh units.ByteSize
	MaxTh units.ByteSize
	MaxP  float64
	Wq    float64
	// DisableGentle switches off the gentle ramp above MaxTh, reverting to
	// the classic 1993 law (drop everything once avg ≥ MaxTh).
	DisableGentle bool
	// MeanPktTime is the typical transmission time of one packet on the
	// egress link, used for the idle-period decay of the average queue.
	// The router sets this from the link rate; defaults to 1µs.
	MeanPktTime time.Duration
	// Seed decorrelates the drop lottery between replicas.
	Seed uint64
}

// RED implements Random Early Detection (Floyd & Jacobson 1993): it tracks
// an exponentially weighted moving average of the queue length in bytes and
// drops arriving packets with a probability that rises linearly between a
// minimum and maximum threshold — before the buffer is full. This is the
// discipline the paper finds starves CUBIC when BBR shares the link and
// fails to fill high-bandwidth pipes.
type RED struct {
	buffer

	p   REDParams
	ecn bool
	rng *sim.RNG

	avg       float64  // EWMA queue size, bytes
	count     int      // packets since last drop/mark while in [minth,maxth)
	emptyAt   sim.Time // when the queue last went empty; read only while it is empty
	everQueue bool
}

// NewRED returns a RED queue with the given byte limit.
func NewRED(capacity units.ByteSize, ecn bool, p REDParams) *RED {
	b := newBuffer(capacity)
	if p.MaxTh <= 0 {
		p.MaxTh = b.cap / 4
	}
	if p.MinTh <= 0 {
		p.MinTh = p.MaxTh / 3
	}
	if p.MinTh < 1 {
		p.MinTh = 1
	}
	if p.MaxTh <= p.MinTh {
		p.MaxTh = p.MinTh + 1
	}
	if p.MaxP <= 0 {
		p.MaxP = 0.02
	}
	if p.Wq <= 0 {
		p.Wq = 0.002
	}
	if p.MeanPktTime <= 0 {
		p.MeanPktTime = time.Microsecond
	}
	return &RED{
		buffer: b,
		p:      p,
		ecn:    ecn,
		rng:    sim.NewRNG(p.Seed ^ 0x5ed0_5a17_ca11_ab1e),
	}
}

// Name implements Queue.
func (q *RED) Name() string { return string(KindRED) }

// AvgQueue exposes the EWMA queue estimate (for tests and telemetry).
func (q *RED) AvgQueue() float64 { return q.avg }

// Params returns the resolved parameter set.
func (q *RED) Params() REDParams { return q.p }

// updateAvg advances the EWMA, decaying it across idle periods as the
// original paper prescribes (avg ← (1-wq)^m · avg with m idle packet-times).
func (q *RED) updateAvg(now sim.Time) {
	if q.ring.len() == 0 && q.everQueue {
		idle := now - q.emptyAt
		if idle > 0 {
			m := float64(idle) / float64(q.p.MeanPktTime.Nanoseconds())
			q.avg *= math.Pow(1-q.p.Wq, m)
		}
		return
	}
	q.avg = float64((1-q.p.Wq)*q.avg) + float64(q.p.Wq*float64(q.bytes)) // never fused
}

// dropProb returns the early-drop probability for the current average.
func (q *RED) dropProb() float64 {
	minTh, maxTh := float64(q.p.MinTh), float64(q.p.MaxTh)
	switch {
	case q.avg < minTh:
		return 0
	case q.avg < maxTh:
		return q.p.MaxP * (q.avg - minTh) / (maxTh - minTh)
	case !q.p.DisableGentle && q.avg < 2*maxTh:
		return q.p.MaxP + (1-q.p.MaxP)*(q.avg-maxTh)/maxTh
	default:
		return 1
	}
}

// Enqueue implements Queue with the RED early-drop law.
func (q *RED) Enqueue(now sim.Time, p *packet.Packet) bool {
	q.updateAvg(now)

	drop := false
	mark := false
	reason := telemetry.DropREDEarly
	pb := q.dropProb()
	switch {
	case pb >= 1:
		drop = true
		reason = telemetry.DropREDForced
		q.count = 0
	case pb > 0:
		// Spread drops: pa = pb / (1 - count·pb), Floyd & Jacobson §4.
		pa := pb / (1 - math.Min(float64(q.count)*pb, 0.9999))
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if q.rng.Float64() < pa {
			if q.ecn && p.ECN == packet.ECT0 || q.ecn && p.ECN == packet.ECT1 {
				mark = true
			} else {
				drop = true
			}
			q.count = 0
		} else {
			q.count++
		}
	default:
		q.count = 0
	}

	if !drop && !q.fits(p) {
		drop = true // hard limit, like the physical buffer overflowing
		reason = telemetry.DropTail
	}
	if drop {
		q.drop(now, p, reason, q.backlog())
		return false
	}
	if mark {
		q.mark(now, p, telemetry.MarkRED, q.backlog())
	}
	q.push(now, p)
	q.everQueue = true
	return true
}

// Dequeue implements Queue.
func (q *RED) Dequeue(now sim.Time) *packet.Packet {
	p := q.take()
	if p != nil && q.ring.len() == 0 {
		q.emptyAt = now
	}
	return p
}

// SelfCheck implements SelfChecker.
func (q *RED) SelfCheck() error {
	if err := q.check(string(KindRED), 0); err != nil {
		return err
	}
	if math.IsNaN(q.avg) || math.IsInf(q.avg, 0) || q.avg < 0 {
		return fmt.Errorf("red: EWMA queue estimate is %v", q.avg)
	}
	return nil
}
