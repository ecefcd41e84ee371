package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// BBRv1 constants per the BBR draft and Cardwell et al. (2017).
const (
	bbrCwndGain     = 2.0 // the "2×BDP inflight cap" the paper dwells on
	bbrMinRTTWindow = 10 * time.Second
	bbrGainCycleLen = 8
	// bbrProbeRTTGain 0 leaves BBRv1's ProbeRTT window at the 4-segment
	// floor (see bbrCore.probeRTTCwnd).
	bbrProbeRTTGain = 0
)

var bbrPacingGainCycle = [bbrGainCycleLen]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// bbr1 implements BBR version 1: it builds an explicit model of the path —
// windowed-max delivery rate (BtlBw) and windowed-min RTT (RTprop) — and
// paces at gain·BtlBw with inflight capped at 2·BDP. It does not reduce its
// rate on packet loss, which is why the paper sees it both dominate CUBIC
// under RED and suffer enormous retransmission counts.
type bbr1 struct {
	bbrCore

	// ProbeBW gain cycling.
	cycleIndex int
	cycleStamp sim.Time
}

// NewBBRv1 returns a fresh BBRv1 controller.
func NewBBRv1() tcp.CongestionControl {
	b := new(bbr1)
	b.reset()
	return b
}

func (b *bbr1) reset() { *b = bbr1{bbrCore: newBBRCore()} }

func (b *bbr1) Name() string { return string(BBRv1) }

// State exposes the current state name (telemetry/tests).
func (b *bbr1) State() string { return b.state.String() }

// BtlBw returns the current bottleneck-bandwidth estimate.
func (b *bbr1) BtlBw() units.Bandwidth { return units.Bandwidth(b.btlBw.Get()) }

func (b *bbr1) OnAck(c *tcp.Conn, s tcp.AckSample) {
	b.updateModel(c, s)
	if b.state == bbrProbeBW {
		b.advanceCycle(c, s)
	} else if b.advance(c, s, bbrHighGain, bbrProbeRTTGain) {
		b.enterProbeBW(c, s.Now)
	}
	b.checkProbeRTT(c, s.Now, bbrMinRTTWindow)
	b.setPacingRate(c)
	b.setCwnd(c, s, bbrProbeRTTGain, 0)
	// Every transition above funnels through here; the tracer dedupes, so
	// this records exactly one event per state change (nil-safe when off).
	c.Trace().CCAState(int64(s.Now), b.state.String())
}

func (b *bbr1) enterProbeBW(c *tcp.Conn, now sim.Time) {
	b.state = bbrProbeBW
	b.cwndGain = bbrCwndGain
	// Random initial phase, excluding the 0.75 drain phase (index 1).
	idx := c.Rand().Intn(bbrGainCycleLen - 1)
	if idx >= 1 {
		idx++
	}
	b.cycleIndex = idx
	b.cycleStamp = now
	b.pacingGain = bbrPacingGainCycle[b.cycleIndex]
}

// advanceCycle rotates through the ProbeBW pacing-gain cycle.
func (b *bbr1) advanceCycle(c *tcp.Conn, s tcp.AckSample) {
	now := s.Now
	elapsed := now-b.cycleStamp > sim.Duration(b.rtProp)
	advance := false
	switch g := bbrPacingGainCycle[b.cycleIndex]; {
	case g > 1:
		// Probing up: hold until we actually created 1.25·BDP inflight or
		// saw loss — otherwise the probe told us nothing.
		advance = elapsed && (s.LostBytes > 0 || s.Inflight >= b.bdpBytes(g))
	case g < 1:
		// Draining: leave as soon as the queue we built is gone.
		advance = elapsed || s.Inflight <= b.bdpBytes(1.0)
	default:
		advance = elapsed
	}
	if advance {
		b.cycleIndex = (b.cycleIndex + 1) % bbrGainCycleLen
		b.cycleStamp = now
		b.pacingGain = bbrPacingGainCycle[b.cycleIndex]
	}
}
