package cca

import (
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
)

// CUBIC constants per RFC 8312.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// cubic implements TCP CUBIC (Ha, Rhee & Xu 2008; RFC 8312), Linux's
// default: window growth follows a cubic function of time since the last
// congestion event, anchored at the window size where loss occurred, with a
// TCP-friendly region and fast convergence. CUBIC's willingness to keep
// occupying buffer space without an inflight cap is what lets it overtake
// the BBR family at large FIFO buffers in the paper.
type cubic struct {
	wMax       float64  // window at last congestion event, in segments
	k          float64  // time to return to wMax, seconds
	epochStart sim.Time // 0 = epoch not started
	wEst       float64  // TCP-friendly (AIMD) estimate, segments
	ackedBytes int64    // bytes acked this epoch (for wEst growth)
	fastConv   bool

	// HyStart (Ha & Rhee 2011), as shipped with Linux CUBIC: leave slow
	// start when the per-round minimum RTT rises noticeably above the
	// baseline, before the loss burst a deep buffer would otherwise absorb.
	name        Name // registry name (variants override)
	hystart     bool
	hsBaseRTT   time.Duration // lowest per-round min seen so far
	hsCurrRTT   time.Duration // min RTT in the current round
	hsSampleCnt int
}

// HyStart thresholds from the Linux implementation.
const (
	hsMinSamples = 8
	hsDelayMin   = 4 * time.Millisecond
	hsDelayMax   = 16 * time.Millisecond
)

// NewCubic returns a fresh CUBIC controller with fast convergence and
// HyStart enabled, like Linux's default.
func NewCubic() tcp.CongestionControl { return &cubic{fastConv: true, hystart: true} }

// NewCubicNoHyStart returns CUBIC with HyStart disabled (ablation).
func NewCubicNoHyStart() tcp.CongestionControl {
	return &cubic{fastConv: true, name: CubicNoHyStart}
}

// reset restores the state NewCubic (or the variant's constructor) builds;
// the variant's configuration — name, fast convergence, HyStart — is kept.
func (cu *cubic) reset() {
	*cu = cubic{fastConv: cu.fastConv, hystart: cu.hystart, name: cu.name}
}

func (cu *cubic) Name() string {
	if cu.name != "" {
		return string(cu.name)
	}
	return string(Cubic)
}
func (cu *cubic) Init(c *tcp.Conn)                      {}
func (cu *cubic) OnPacketSent(c *tcp.Conn, bytes int64) {}

func (cu *cubic) OnAck(c *tcp.Conn, s tcp.AckSample) {
	cu.growWindow(c, s)
	updateInternalPacing(c)
}

func (cu *cubic) growWindow(c *tcp.Conn, s tcp.AckSample) {
	if s.AckedBytes <= 0 || s.InRecovery {
		return
	}
	if c.InSlowStart() {
		if cu.hystart {
			cu.hystartUpdate(c, s)
		}
		c.SetCwnd(c.Cwnd() + s.AckedBytes)
		return
	}
	mss := float64(c.MSS())
	cwndSeg := float64(c.Cwnd()) / mss

	if cu.epochStart == 0 {
		cu.epochStart = s.Now
		if cu.wMax < cwndSeg {
			// We came back above the previous loss point without a new
			// loss: re-anchor so the curve keeps probing upward.
			cu.wMax = cwndSeg
			cu.k = 0
		} else {
			cu.k = math.Cbrt(cu.wMax * (1 - cubicBeta) / cubicC)
		}
		cu.ackedBytes = 0
		cu.wEst = cwndSeg
	}
	cu.ackedBytes += s.AckedBytes

	rtt := c.SRTT()
	if rtt <= 0 {
		rtt = 100 * time.Millisecond
	}
	// Target is the cubic curve evaluated one RTT ahead (RFC 8312 §4.1).
	t := (s.Now - cu.epochStart).Std() + rtt
	ts := t.Seconds() - cu.k
	target := float64(cubicC*ts*ts*ts) + cu.wMax // rounded product: never fused (Go spec)

	// TCP-friendly region (RFC 8312 §4.2): emulate AIMD with
	// alpha = 3(1-beta)/(1+beta) per RTT.
	alpha := 3 * (1 - cubicBeta) / (1 + cubicBeta)
	cu.wEst += alpha * float64(s.AckedBytes) / (float64(c.Cwnd()) / mss) / mss
	if target < cu.wEst {
		target = cu.wEst
	}

	var inc int64
	if target > cwndSeg {
		// Close the gap over roughly one RTT of ACKs.
		inc = int64((target - cwndSeg) / cwndSeg * float64(s.AckedBytes))
		if inc < 1 {
			inc = 1
		}
	} else {
		// Minimal growth in the concave plateau (1 segment per 100 RTTs).
		inc = int64(float64(s.AckedBytes) / cwndSeg / 100)
	}
	c.SetCwnd(c.Cwnd() + inc)
}

// hystartUpdate implements the delay-increase half of HyStart: collect the
// minimum RTT of the first samples of each round; once it exceeds the
// baseline by an eta in [4ms, 16ms], set ssthresh to the current window so
// slow start ends before the buffer-overflow burst.
func (cu *cubic) hystartUpdate(c *tcp.Conn, s tcp.AckSample) {
	if s.RoundStart {
		cu.hsCurrRTT = 0
		cu.hsSampleCnt = 0
	}
	if s.RTT <= 0 {
		return
	}
	if cu.hsSampleCnt < hsMinSamples {
		cu.hsSampleCnt++
		if cu.hsCurrRTT == 0 || s.RTT < cu.hsCurrRTT {
			cu.hsCurrRTT = s.RTT
		}
		return
	}
	if cu.hsBaseRTT == 0 || cu.hsCurrRTT < cu.hsBaseRTT {
		cu.hsBaseRTT = cu.hsCurrRTT
	}
	eta := cu.hsBaseRTT / 8
	if eta < hsDelayMin {
		eta = hsDelayMin
	}
	if eta > hsDelayMax {
		eta = hsDelayMax
	}
	if cu.hsCurrRTT >= cu.hsBaseRTT+eta {
		c.SetSSThresh(c.Cwnd())
	}
}

func (cu *cubic) OnCongestionEvent(c *tcp.Conn) {
	mss := float64(c.MSS())
	cwndSeg := float64(c.Cwnd()) / mss
	cu.epochStart = 0
	if cwndSeg < cu.wMax && cu.fastConv {
		// Fast convergence: release bandwidth to newer flows.
		cu.wMax = cwndSeg * (2 - cubicBeta) / 2
	} else {
		cu.wMax = cwndSeg
	}
	next := int64(float64(c.Cwnd()) * cubicBeta)
	c.SetSSThresh(next)
	c.SetCwnd(next)
}

func (cu *cubic) OnRTO(c *tcp.Conn) {
	cu.OnCongestionEvent(c)
	c.SetCwnd(c.MSS())
}
