package cca

import "repro/internal/tcp"

// reno implements TCP Reno / NewReno (RFC 5681, RFC 6582): slow start,
// additive increase of one segment per RTT in congestion avoidance, and
// multiplicative decrease by half on loss. Its conservative growth is why
// the paper finds it unable to hold its share against CUBIC in large
// buffers and unable to fill high-BDP pipes.
type reno struct{}

// NewReno returns a fresh Reno controller.
func NewReno() tcp.CongestionControl { return &reno{} }

func (r *reno) reset() { *r = reno{} }

func (r *reno) Name() string                          { return string(Reno) }
func (r *reno) Init(c *tcp.Conn)                      {}
func (r *reno) OnPacketSent(c *tcp.Conn, bytes int64) {}

func (r *reno) OnAck(c *tcp.Conn, s tcp.AckSample) {
	r.growWindow(c, s)
	updateInternalPacing(c)
}

func (r *reno) growWindow(c *tcp.Conn, s tcp.AckSample) {
	if s.AckedBytes <= 0 || s.InRecovery {
		return
	}
	if c.InSlowStart() {
		// Byte-counting slow start: grow by what was acked, not past
		// ssthresh by more than the overshoot.
		c.SetCwnd(c.Cwnd() + s.AckedBytes)
		return
	}
	// Congestion avoidance: +1 MSS per RTT, spread across ACKs.
	inc := c.MSS() * s.AckedBytes / c.Cwnd()
	if inc < 1 {
		inc = 1
	}
	c.SetCwnd(c.Cwnd() + inc)
}

func (r *reno) OnCongestionEvent(c *tcp.Conn) {
	half := c.Cwnd() / 2
	c.SetSSThresh(half)
	c.SetCwnd(half)
}

func (r *reno) OnRTO(c *tcp.Conn) {
	c.SetSSThresh(c.Cwnd() / 2)
	c.SetCwnd(c.MSS())
}
