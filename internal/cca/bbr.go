package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Constants shared by both BBR versions, per the BBR draft and Cardwell et
// al. (2017).
const (
	bbrHighGain     = 2.885 // 2/ln2: fills the pipe in one RTT per doubling
	bbrDrainGain    = 1 / bbrHighGain
	bbrBtlBwRounds  = 10 // max-filter window, in round trips
	bbrProbeRTTTime = 200 * time.Millisecond
	bbrMinCwndSegs  = 4
	bbrFullBwThresh = 1.25 // startup exits after 3 rounds without 25% growth
	bbrFullBwRounds = 3
)

// bbrState enumerates the BBR state machine.
type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	switch s {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probe_bw"
	default:
		return "probe_rtt"
	}
}

// bbrCore is the path model and state machine BBRv1 and BBRv2 share: the
// windowed-max delivery rate (BtlBw) and windowed-min RTT (RTprop), Startup
// and Drain, ProbeRTT, the pacing rate and the cwnd law. Each version embeds
// it and keeps only its ProbeBW; whatever the versions disagree on (drain
// cwnd gain, ProbeRTT window, min-RTT window, cwnd bound) is passed in as an
// argument, so the core has no notion of which version it serves.
type bbrCore struct {
	state bbrState

	btlBw       maxFilter // bits/sec, keyed by round count (by value: no per-flow heap object)
	rtProp      time.Duration
	rtPropStamp sim.Time

	pacingGain float64
	cwndGain   float64

	// Startup full-pipe detection.
	fullBw      int64
	fullBwCount int
	filled      bool

	// ProbeRTT bookkeeping.
	probeRTTDoneStamp sim.Time
	probeRTTRoundDone bool
	priorCwnd         int64

	// Post-RTO packet conservation.
	conservationUntilRound int64
}

func newBBRCore() bbrCore {
	return bbrCore{
		btlBw:      maxFilter{window: bbrBtlBwRounds},
		state:      bbrStartup,
		pacingGain: bbrHighGain,
		cwndGain:   bbrHighGain,
	}
}

func (b *bbrCore) Init(c *tcp.Conn) {}

func (b *bbrCore) OnPacketSent(c *tcp.Conn, bytes int64) {}

// OnCongestionEvent: BBR deliberately ignores individual loss events; its
// model is rate- and delay-based (BBRv2 reacts per round instead).
func (b *bbrCore) OnCongestionEvent(c *tcp.Conn) {}

// OnRTO collapses to one segment and conserves packets for a round, then the
// model-based cwnd target takes over again.
func (b *bbrCore) OnRTO(c *tcp.Conn) {
	c.SetCwnd(c.MSS())
	b.conservationUntilRound = c.RoundCount() + 1
}

// bdpBytes returns gain × BtlBw·RTprop in bytes.
func (b *bbrCore) bdpBytes(gain float64) int64 {
	bw := b.btlBw.Get()
	if bw == 0 || b.rtProp == 0 {
		return 0
	}
	return int64(gain * float64(bw) / 8 * b.rtProp.Seconds())
}

// updateModel folds one ACK's delivery-rate and RTT samples into the model.
// RTprop only ever moves down: unlike the draft, an expired window does not
// admit a larger sample (EXPERIMENTS.md, Known deviation 6).
func (b *bbrCore) updateModel(c *tcp.Conn, s tcp.AckSample) {
	if s.DeliveryRate > 0 && (!s.RateAppLimited || int64(s.DeliveryRate) > b.btlBw.Get()) {
		b.btlBw.Update(c.RoundCount(), int64(s.DeliveryRate))
	}
	if s.RTT > 0 && (b.rtProp == 0 || s.RTT <= b.rtProp) {
		b.rtProp = s.RTT
		b.rtPropStamp = s.Now
	}
}

// advance runs one ACK through the states outside ProbeBW: Startup's exit to
// Drain at cwnd gain drainCwndGain, Drain, and the ProbeRTT hold, whose
// window is max(probeRTTGain·BDP, 4 segments). It reports whether the caller
// must now enter its ProbeBW.
func (b *bbrCore) advance(c *tcp.Conn, s tcp.AckSample, drainCwndGain, probeRTTGain float64) bool {
	switch b.state {
	case bbrStartup:
		b.checkFullPipe(s)
		if b.filled {
			b.state = bbrDrain
			b.pacingGain = bbrDrainGain
			b.cwndGain = drainCwndGain
		}
	case bbrDrain:
		return s.Inflight <= b.bdpBytes(1.0)
	case bbrProbeRTT:
		return b.handleProbeRTT(c, s, probeRTTGain)
	}
	return false
}

// checkFullPipe implements startup exit: three rounds without 25% growth.
func (b *bbrCore) checkFullPipe(s tcp.AckSample) {
	if b.filled || !s.RoundStart || s.RateAppLimited {
		return
	}
	bw := b.btlBw.Get()
	if float64(bw) >= float64(b.fullBw)*bbrFullBwThresh {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= bbrFullBwRounds {
		b.filled = true
	}
}

// checkProbeRTT enters ProbeRTT once the min-RTT estimate is older than
// window.
func (b *bbrCore) checkProbeRTT(c *tcp.Conn, now sim.Time, window time.Duration) {
	if b.state == bbrProbeRTT || b.rtProp == 0 || now-b.rtPropStamp <= sim.Duration(window) {
		return
	}
	b.state = bbrProbeRTT
	b.priorCwnd = c.Cwnd()
	b.pacingGain = 1
	b.cwndGain = 1
	b.probeRTTDoneStamp = 0
	b.probeRTTRoundDone = false
}

// probeRTTCwnd is the ProbeRTT window: max(gain·BDP, 4 segments).
func (b *bbrCore) probeRTTCwnd(c *tcp.Conn, gain float64) int64 {
	return max(b.bdpBytes(gain), bbrMinCwndSegs*c.MSS())
}

// handleProbeRTT holds inflight at the ProbeRTT window for 200 ms and one
// round, then restores the pre-ProbeRTT window and leaves: to Startup if
// the pipe was never filled, otherwise it reports that the caller must
// re-enter its ProbeBW.
func (b *bbrCore) handleProbeRTT(c *tcp.Conn, s tcp.AckSample, gain float64) bool {
	now := s.Now
	if b.probeRTTDoneStamp == 0 {
		if s.Inflight <= b.probeRTTCwnd(c, gain) {
			b.probeRTTDoneStamp = now + sim.Duration(bbrProbeRTTTime)
		}
		return false
	}
	if s.RoundStart {
		b.probeRTTRoundDone = true
	}
	if !b.probeRTTRoundDone || now <= b.probeRTTDoneStamp {
		return false
	}
	b.rtPropStamp = now
	if c.Cwnd() < b.priorCwnd {
		c.SetCwnd(b.priorCwnd)
	}
	if b.filled {
		return true
	}
	b.state = bbrStartup
	b.pacingGain = bbrHighGain
	b.cwndGain = bbrHighGain
	return false
}

func (b *bbrCore) setPacingRate(c *tcp.Conn) {
	bw := b.btlBw.Get()
	if bw == 0 {
		// No rate sample yet: pace the initial window over the first RTT.
		if srtt := c.SRTT(); srtt > 0 {
			c.SetPacingRate(units.Bandwidth(bbrHighGain * float64(c.Cwnd()) * 8 / srtt.Seconds()))
		}
		return
	}
	rate := units.Bandwidth(b.pacingGain * float64(bw))
	if rate > 0 {
		c.SetPacingRate(rate)
	}
}

// setCwnd applies the cwnd law: the ProbeRTT window (see probeRTTCwnd) in
// ProbeRTT, one conservation round after an RTO, otherwise growth toward
// cwndGain·BDP capped at bound (0 = unbounded).
func (b *bbrCore) setCwnd(c *tcp.Conn, s tcp.AckSample, probeRTTGain float64, bound int64) {
	if b.state == bbrProbeRTT {
		if w := b.probeRTTCwnd(c, probeRTTGain); c.Cwnd() > w {
			c.SetCwnd(w)
		}
		return
	}
	if c.RoundCount() < b.conservationUntilRound {
		c.SetCwnd(max(s.Inflight+s.AckedBytes, c.MSS()))
		return
	}
	target := b.bdpBytes(b.cwndGain)
	if target == 0 {
		// No model yet: grow like slow start.
		c.SetCwnd(c.Cwnd() + s.AckedBytes)
		return
	}
	if bound > 0 && target > bound {
		target = bound
	}
	if minW := bbrMinCwndSegs * c.MSS(); target < minW {
		target = minW
	}
	w := c.Cwnd()
	if b.filled {
		if w+s.AckedBytes < target {
			w += s.AckedBytes
		} else {
			w = target
		}
	} else {
		// Startup: grow past the (still-forming) target, not past the bound.
		w += s.AckedBytes
		if bound > 0 && w > bound {
			w = bound
		}
	}
	c.SetCwnd(w)
}
