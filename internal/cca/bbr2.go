package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
)

// BBRv2 constants per the IETF-106 presentation and the v2alpha kernel tree.
const (
	bbr2LossThresh   = 0.02 // the 2% per-round loss threshold the paper cites
	bbr2Beta         = 0.7  // multiplicative cut applied to inflight bounds
	bbr2Headroom     = 0.85 // cruise keeps 15% headroom under inflight_hi
	bbr2ProbeRTTGain = 0.5  // ProbeRTT shrinks to 0.5×BDP (v1 used 4 pkts)
	bbr2UpGain       = 1.25
	bbr2DownGain     = 0.75
	bbr2CwndGain     = 2.0
	bbr2ECNThresh    = 0.5 // per-round CE fraction treated as congestion
	bbr2MinRTTWindow = 5 * time.Second
)

// bbr2Phase enumerates the ProbeBW sub-states of BBRv2.
type bbr2Phase int

const (
	bbr2Down bbr2Phase = iota
	bbr2Cruise
	bbr2Refill
	bbr2Up
)

func (p bbr2Phase) String() string {
	switch p {
	case bbr2Down:
		return "down"
	case bbr2Cruise:
		return "cruise"
	case bbr2Refill:
		return "refill"
	default:
		return "up"
	}
}

// bbr2 implements BBR version 2 (simplified from the v2alpha kernel the
// paper's testbed ran): the same model-based core as BBRv1, plus explicit
// inflight bounds adapted from per-round loss and ECN-mark rates. When the
// per-round loss rate exceeds 2%, inflight_hi is cut multiplicatively —
// which is why the paper finds BBRv2 *more* polite than BBRv1 under FIFO
// (where overflow losses are bursty) yet still dominant under RED (whose
// early random drops stay below the 2% threshold).
type bbr2 struct {
	bbrCore
	phase bbr2Phase

	// Upper inflight bound (bytes). 0 = unset/unlimited.
	inflightHi int64

	// Per-round loss/ECN accounting.
	lostThisRound      int64
	deliveredThisRound int64
	ceThisRound        int64
	acksThisRound      int64

	// Phase timing.
	phaseStamp  sim.Time
	cruiseUntil sim.Time
}

// NewBBRv2 returns a fresh BBRv2 controller.
func NewBBRv2() tcp.CongestionControl {
	b := new(bbr2)
	b.reset()
	return b
}

func (b *bbr2) reset() { *b = bbr2{bbrCore: newBBRCore()} }

func (b *bbr2) Name() string { return string(BBRv2) }

// State exposes the state and phase (telemetry/tests).
func (b *bbr2) State() string { return b.stateName() }

// stateName returns the combined state:phase label from a fixed set of
// constants — no concatenation, so the per-ACK trace call cannot allocate.
func (b *bbr2) stateName() string {
	if b.state == bbrProbeBW {
		switch b.phase {
		case bbr2Down:
			return "probe_bw:down"
		case bbr2Cruise:
			return "probe_bw:cruise"
		case bbr2Refill:
			return "probe_bw:refill"
		default:
			return "probe_bw:up"
		}
	}
	return b.state.String()
}

// InflightHi exposes the upper inflight bound (tests).
func (b *bbr2) InflightHi() int64 { return b.inflightHi }

func (b *bbr2) OnAck(c *tcp.Conn, s tcp.AckSample) {
	b.updateModel(c, s)

	// Per-round loss/ECN bookkeeping; evaluated at round boundaries.
	b.lostThisRound += s.LostBytes
	b.deliveredThisRound += s.AckedBytes
	b.acksThisRound++
	if s.CE {
		b.ceThisRound++
	}
	if s.RoundStart {
		b.evaluateRound(c, s)
	}

	if b.state == bbrProbeBW {
		b.advancePhase(c, s)
	} else if b.advance(c, s, bbr2CwndGain, bbr2ProbeRTTGain) {
		b.enterProbeBW(c, s.Now, bbr2Down)
	}
	b.checkProbeRTT(c, s.Now, bbr2MinRTTWindow)
	b.setPacingRate(c)
	b.setCwnd(c, s, bbr2ProbeRTTGain, b.cwndBound())
	// Every state/phase transition funnels through here; the tracer dedupes,
	// so this records exactly one event per transition (nil-safe when off).
	c.Trace().CCAState(int64(s.Now), b.stateName())
}

// cwndBound is inflight_hi as the bound of the cwnd law, less the 15%
// headroom while cruising or draining in ProbeBW (0 = unbounded).
func (b *bbr2) cwndBound() int64 {
	if b.inflightHi > 0 && b.state == bbrProbeBW && (b.phase == bbr2Cruise || b.phase == bbr2Down) {
		return int64(bbr2Headroom * float64(b.inflightHi))
	}
	return b.inflightHi
}

// evaluateRound applies the loss/ECN thresholds once per round trip.
func (b *bbr2) evaluateRound(c *tcp.Conn, s tcp.AckSample) {
	total := b.deliveredThisRound + b.lostThisRound
	lossRate := 0.0
	if total > 0 {
		lossRate = float64(b.lostThisRound) / float64(total)
	}
	ceFrac := 0.0
	if b.acksThisRound > 0 {
		ceFrac = float64(b.ceThisRound) / float64(b.acksThisRound)
	}
	tooHigh := lossRate > bbr2LossThresh || ceFrac > bbr2ECNThresh

	if tooHigh {
		// The cut is floored at beta×BDP (as in the v2alpha kernel): the
		// loss may have evaporated the inflight sample, but the path model
		// still knows roughly what fits.
		base := max(s.Inflight, b.bdpBytes(1.0))
		target := int64(bbr2Beta * float64(base))
		if target < 2*c.MSS() {
			target = 2 * c.MSS()
		}
		probing := b.state == bbrStartup ||
			(b.state == bbrProbeBW && (b.phase == bbr2Up || b.phase == bbr2Refill))
		if probing {
			// Excessive loss while probing for more bandwidth: the ceiling
			// is real. Cut the long-term bound and stop the probe.
			if b.inflightHi == 0 || target < b.inflightHi {
				prev := b.inflightHi
				b.inflightHi = target
				c.Trace().InflightHi(int64(s.Now), b.inflightHi, prev)
			}
			if b.state == bbrProbeBW {
				b.enterPhase(c, s.Now, bbr2Down)
			} else {
				// Excessive startup loss ends the search for more bandwidth.
				b.filled = true
			}
		}
		// Loss while cruising or draining (e.g. RED's background random
		// drops) is deliberately NOT folded into the long-term bound:
		// the ceiling is only adapted from rounds that were actively
		// probing it. This is what lets BBRv2 shrug off sub-structural
		// random loss — the paper's explanation for why RED's drops
		// "rarely exceed the 2% threshold" and BBRv2 keeps the bandwidth.
	} else if b.state == bbrProbeBW && b.phase == bbr2Up && b.inflightHi > 0 &&
		s.Inflight >= b.inflightHi*3/4 {
		// The probe actually tested the ceiling and survived: raise it
		// multiplicatively so long-term growth remains possible.
		prev := b.inflightHi
		b.inflightHi += max(b.inflightHi/4, c.MSS())
		c.Trace().InflightHi(int64(s.Now), b.inflightHi, prev)
	}

	b.lostThisRound = 0
	b.deliveredThisRound = 0
	b.ceThisRound = 0
	b.acksThisRound = 0
}

func (b *bbr2) enterProbeBW(c *tcp.Conn, now sim.Time, ph bbr2Phase) {
	b.state = bbrProbeBW
	b.cwndGain = bbr2CwndGain
	b.enterPhase(c, now, ph)
}

func (b *bbr2) enterPhase(c *tcp.Conn, now sim.Time, ph bbr2Phase) {
	b.phase = ph
	b.phaseStamp = now
	switch ph {
	case bbr2Down:
		b.pacingGain = bbr2DownGain
	case bbr2Cruise:
		b.pacingGain = 1.0
		// Cruise for a randomized 2–3 seconds (wall-clock randomization is
		// what de-synchronizes competing BBRv2 flows).
		b.cruiseUntil = now + sim.Duration(2*time.Second) +
			sim.Duration(time.Duration(c.Rand().Jitter(float64(time.Second))))
	case bbr2Refill:
		b.pacingGain = 1.0
	case bbr2Up:
		b.pacingGain = bbr2UpGain
	}
}

func (b *bbr2) advancePhase(c *tcp.Conn, s tcp.AckSample) {
	now := s.Now
	switch b.phase {
	case bbr2Down:
		if s.Inflight <= b.bdpBytes(1.0) || now-b.phaseStamp > sim.Duration(3*b.rtProp) {
			b.enterPhase(c, now, bbr2Cruise)
		}
	case bbr2Cruise:
		if now >= b.cruiseUntil {
			b.enterPhase(c, now, bbr2Refill)
		}
	case bbr2Refill:
		if now-b.phaseStamp >= sim.Duration(b.rtProp) {
			b.enterPhase(c, now, bbr2Up)
		}
	case bbr2Up:
		hitCeiling := b.inflightHi > 0 && s.Inflight >= b.inflightHi
		longEnough := now-b.phaseStamp > sim.Duration(4*b.rtProp)
		if hitCeiling || longEnough {
			b.enterPhase(c, now, bbr2Down)
		}
	}
}

func (b *bbr2) OnRTO(c *tcp.Conn) {
	b.bbrCore.OnRTO(c)
	// An RTO is unambiguous congestion: also clamp the bound.
	if hi := b.bdpBytes(1.0); hi > 0 {
		cut := int64(bbr2Beta * float64(hi))
		if b.inflightHi == 0 || cut < b.inflightHi {
			prev := b.inflightHi
			b.inflightHi = cut
			c.Trace().InflightHi(int64(c.Now()), b.inflightHi, prev)
		}
	}
}
