package cca

import (
	"time"

	"repro/internal/sim"
	"repro/internal/tcp"
)

// H-TCP constants per Leith & Shorten (PFLDnet 2004).
const (
	htcpDeltaL  = time.Second // low-speed regime threshold Δ_L
	htcpBetaMin = 0.5
	htcpBetaMax = 0.8
)

// htcp implements Hamilton TCP: the additive-increase rate grows as a
// quadratic function of the time elapsed since the last congestion event, and
// the backoff factor adapts to the ratio of minimum to maximum RTT seen in
// the last congestion epoch. Because a bloated buffer inflates RTTmax, H-TCP
// backs off harder as FIFO queues grow — exactly the "interprets queuing
// delay as limited bandwidth" behaviour the paper observes.
type htcp struct {
	lastCongestion sim.Time // time of last congestion event (0 = none yet)
	rttMin, rttMax time.Duration
	beta           float64
	started        bool
	lastThroughput float64 // delivered bytes/sec at previous congestion
	lastDelivered  int64
	lastCongAt     sim.Time
}

// NewHTCP returns a fresh H-TCP controller.
func NewHTCP() tcp.CongestionControl { return &htcp{beta: htcpBetaMin} }

func (h *htcp) Name() string                          { return string(HTCP) }
func (h *htcp) Init(c *tcp.Conn)                      {}
func (h *htcp) OnPacketSent(c *tcp.Conn, bytes int64) {}

// alpha returns the per-RTT additive increase in segments for elapsed Δ.
func (h *htcp) alpha(delta time.Duration) float64 {
	if delta <= htcpDeltaL {
		return 1
	}
	d := (delta - htcpDeltaL).Seconds()
	a := 1 + float64(10*d) + float64(0.25*d*d) // rounded products: never fused
	// RTT-scaling-free variant; the paper's testbed has a fixed 62 ms RTT.
	return a
}

func (h *htcp) OnAck(c *tcp.Conn, s tcp.AckSample) {
	h.growWindow(c, s)
	updateInternalPacing(c)
}

func (h *htcp) growWindow(c *tcp.Conn, s tcp.AckSample) {
	if s.RTT > 0 {
		if h.rttMin == 0 || s.RTT < h.rttMin {
			h.rttMin = s.RTT
		}
		if s.RTT > h.rttMax {
			h.rttMax = s.RTT
		}
	}
	if s.AckedBytes <= 0 || s.InRecovery {
		return
	}
	if c.InSlowStart() {
		c.SetCwnd(c.Cwnd() + s.AckedBytes)
		return
	}
	if !h.started {
		h.started = true
		h.lastCongestion = s.Now
	}
	delta := (s.Now - h.lastCongestion).Std()
	a := h.alpha(delta)
	inc := int64(a * float64(c.MSS()) * float64(s.AckedBytes) / float64(c.Cwnd()))
	if inc < 1 {
		inc = 1
	}
	c.SetCwnd(c.Cwnd() + inc)
}

// adaptiveBeta computes the backoff factor from the RTT spread of the
// closing epoch, with the throughput-stability override from the H-TCP
// framework paper (use 0.5 when throughput shifted more than 20%).
func (h *htcp) adaptiveBeta(c *tcp.Conn, now sim.Time) float64 {
	b := htcpBetaMin
	if h.rttMax > 0 && h.rttMin > 0 {
		b = float64(h.rttMin) / float64(h.rttMax)
	}
	if b < htcpBetaMin {
		b = htcpBetaMin
	}
	if b > htcpBetaMax {
		b = htcpBetaMax
	}
	// Throughput stability check.
	if h.lastCongAt > 0 {
		elapsed := (now - h.lastCongAt).Std().Seconds()
		if elapsed > 0 {
			tp := float64(c.Delivered()-h.lastDelivered) / elapsed
			if h.lastThroughput > 0 {
				shift := (tp - h.lastThroughput) / h.lastThroughput
				if shift < -0.2 || shift > 0.2 {
					b = htcpBetaMin
				}
			}
			h.lastThroughput = tp
		}
	}
	h.lastDelivered = c.Delivered()
	h.lastCongAt = now
	return b
}

func (h *htcp) OnCongestionEvent(c *tcp.Conn) {
	now := c.Now()
	h.beta = h.adaptiveBeta(c, now)
	next := int64(float64(c.Cwnd()) * h.beta)
	c.SetSSThresh(next)
	c.SetCwnd(next)
	h.lastCongestion = now
	// Reset the per-epoch RTT envelope.
	h.rttMin, h.rttMax = 0, 0
}

func (h *htcp) OnRTO(c *tcp.Conn) {
	h.OnCongestionEvent(c)
	c.SetCwnd(c.MSS())
}
