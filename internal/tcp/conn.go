package tcp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/audit"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Config parameterizes a connection. Zero values select the paper's setup:
// 8900-byte jumbo payloads, 60-byte headers, IW10.
type Config struct {
	MSS         units.ByteSize // payload bytes per segment (default 8900)
	Header      units.ByteSize // per-packet header overhead (default 60)
	InitialCwnd int            // initial window in segments (default 10)
	ECN         bool           // negotiate ECT(0) on data packets
	// LimitBytes stops the transfer after this many payload bytes
	// (0 = unlimited elephant flow).
	LimitBytes int64
	// DelayedAck enables RFC 1122 delayed acknowledgements on the
	// receiver side (every second in-order segment or 40 ms).
	DelayedAck bool
}

func (cfg *Config) defaults() {
	if cfg.MSS <= 0 {
		cfg.MSS = 8900
	}
	if cfg.Header <= 0 {
		cfg.Header = 60
	}
	if cfg.InitialCwnd <= 0 {
		cfg.InitialCwnd = 10
	}
}

// seg tracks one outstanding segment on the sender. It is held by value in
// the connection's segDeque (32 bytes, no heap record per segment).
type seg struct {
	seq        int64
	len        int64
	lastSentAt sim.Time
	sentCount  int32
	lost       bool // marked lost, awaiting retransmission
	sacked     bool // delivered out of order (selectively acknowledged)
}

// Stats is a snapshot of a connection's counters.
type Stats struct {
	BytesSent    int64 // payload bytes transmitted, including retransmissions
	BytesAcked   int64 // payload bytes cumulatively acknowledged
	Retransmits  uint64
	RTOs         uint64
	Acks         uint64
	CongEvents   uint64 // recovery episodes entered
	MinRTT       time.Duration
	SRTT         time.Duration
	DeliveryRate units.Bandwidth // latest valid sample
}

// Conn is the sending endpoint of one bulk-transfer flow. It implements
// netem.Receiver for the returning ACK stream.
type Conn struct {
	eng  *sim.Engine
	id   packet.FlowID
	cfg  Config
	cc   CongestionControl
	inj  func(*packet.Packet) // injects data packets toward the receiver
	done func(*Conn)          // optional completion callback
	pool *packet.Pool         // the run's packets (nil: unowned packets)

	// Sender sequence state. rtxQ holds the sequence numbers of segments
	// marked lost, in marking order; an entry whose segment has since been
	// acknowledged, SACKed or retransmitted is skipped when it reaches the
	// head. Every outstanding segment below lossScan is lost or SACKed, so
	// markLost resumes there instead of at the front.
	sndUna   int64
	sndNxt   int64
	segs     segDeque
	rtxQ     seqQueue
	lossScan int64

	// Windows. cwnd and ssthresh are in bytes.
	cwnd       int64
	ssthresh   int64
	pacingRate units.Bandwidth
	inflight   int64

	// Pacing.
	nextSendAt sim.Time
	paceTimer  sim.Timer

	// Recovery episode state.
	inRecovery bool
	recoverSeq int64

	// RTT/RTO.
	rtt      rttEstimator
	rtoTimer sim.Timer

	// Delivery-rate sampling (BBR draft).
	delivered     int64
	deliveredTime sim.Time
	firstSentTime sim.Time
	appLimited    bool

	// Round counting.
	roundCount         int64
	nextRoundDelivered int64

	stats   Stats
	started bool
	stopped bool

	// aud, when non-nil, validates sequence-space sanity: it checks cheap
	// per-ACK rules inline, walks the whole segment list every
	// auditDeepCheckEvery ACKs, and re-walks it at end of run.
	aud *audit.Auditor

	// trc, when tracing is enabled on the engine, records cwnd/RTT/RTO
	// events into this flow's telemetry ring. All FlowTracer methods are
	// nil-receiver safe, so call sites need no guard.
	trc *telemetry.FlowTracer
}

// NewConn creates a sender for flow id that injects data packets via inject
// (typically the client NIC port) and is driven by cc.
func NewConn(eng *sim.Engine, id packet.FlowID, cfg Config, cc CongestionControl, inject func(*packet.Packet)) *Conn {
	c := &Conn{eng: eng}
	if a := eng.Auditor(); a != nil {
		a.OnFinish("tcp", "seq-space", c.auditSeqSpace)
	}
	c.init(id, cfg, cc, inject)
	return c
}

// Reinit re-initialises a stopped sender in place as the sender of a new
// flow: afterwards every field reads exactly as NewConn(eng, id, cfg, cc,
// inject) on the same engine would leave it, except that the segment ring
// and the retransmission queue keep their capacity. The end-of-run
// seq-space check registered at construction follows the object, so it
// checks whichever flow the sender serves last. Reinit must not run while
// the sender's Receive is on the stack; on an audited engine a pending
// timer is a violation.
func (c *Conn) Reinit(id packet.FlowID, cfg Config, cc CongestionControl, inject func(*packet.Packet)) {
	if c.aud != nil && (c.rtoTimer.Pending() || c.paceTimer.Pending()) {
		c.aud.Failf("tcp", "recycle-live",
			"conn %d: recycled as flow %d with a timer still pending (rto=%v pace=%v)",
			c.id, id, c.rtoTimer.Pending(), c.paceTimer.Pending())
	}
	c.rtoTimer.Stop()
	c.paceTimer.Stop()
	segs, rtxQ := c.segs.buf, c.rtxQ
	rtxQ.reset()
	*c = Conn{eng: c.eng}
	c.init(id, cfg, cc, inject)
	c.segs.buf, c.rtxQ = segs, rtxQ
}

// init sets every field but eng as a fresh sender of flow id.
func (c *Conn) init(id packet.FlowID, cfg Config, cc CongestionControl, inject func(*packet.Packet)) {
	cfg.defaults()
	c.id, c.cfg, c.cc, c.inj = id, cfg, cc, inject
	c.ssthresh = math.MaxInt64 / 4
	c.rtt = newRTTEstimator()
	c.cwnd = int64(cfg.InitialCwnd) * int64(cfg.MSS)
	c.rtoTimer.Init(c.eng, c, timerRTO)
	c.paceTimer.Init(c.eng, c, timerPace)
	c.aud = c.eng.Auditor()
	if t := c.eng.Tracer(); t != nil {
		c.trc = t.Flow(uint32(id), cc.Name())
	}
	cc.Init(c)
}

// UsePool makes the sender draw its data packets from pool, the run's
// packet pool; without one it sends unowned packets.
func (c *Conn) UsePool(pool *packet.Pool) { c.pool = pool }

// auditDeepCheckEvery is how many ACKs pass between O(outstanding) segment
// list walks on an audited connection.
const auditDeepCheckEvery = 64

// auditSeqSpace walks the outstanding segment list and checks the sender's
// sequence-space invariants: segments contiguous and sorted, the list
// spanning exactly [sndUna, sndNxt), and the inflight byte count derived
// from segment flags (not lost, not sacked) matching the count the
// congestion controller sees.
func (c *Conn) auditSeqSpace() error {
	n := c.segs.len()
	if n == 0 {
		if c.inflight != 0 {
			return fmt.Errorf("conn %d: no outstanding segments but inflight=%d", c.id, c.inflight)
		}
		return nil
	}
	var liveBytes int64
	for i := 0; i < n; i++ {
		s := c.segs.at(i)
		if i+1 < n {
			if next := c.segs.at(i + 1); s.seq+s.len != next.seq {
				return fmt.Errorf("conn %d: segment list not contiguous: [%d..%d) then [%d..%d)",
					c.id, s.seq, s.seq+s.len, next.seq, next.seq+next.len)
			}
		}
		if !s.lost && !s.sacked {
			liveBytes += s.len
		}
	}
	front, last := c.segs.front(), c.segs.at(n-1)
	if front.seq > c.sndUna || front.seq+front.len <= c.sndUna {
		return fmt.Errorf("conn %d: first outstanding segment [%d..%d) does not contain sndUna=%d",
			c.id, front.seq, front.seq+front.len, c.sndUna)
	}
	if end := last.seq + last.len; end != c.sndNxt {
		return fmt.Errorf("conn %d: last outstanding segment ends at %d, sndNxt=%d", c.id, end, c.sndNxt)
	}
	if liveBytes != c.inflight {
		return fmt.Errorf("conn %d: segment list implies %d bytes in flight, controller sees %d",
			c.id, liveBytes, c.inflight)
	}
	return nil
}

// timerID distinguishes the connection's persistent timers in OnEvent.
type timerID uint8

const (
	timerRTO timerID = iota
	timerPace
)

// OnEvent implements sim.Handler, dispatching the connection's timers.
func (c *Conn) OnEvent(arg any) {
	switch arg.(timerID) {
	case timerRTO:
		c.onRTO()
	case timerPace:
		c.trySend()
	}
}

// --- accessors used by congestion controllers and telemetry ---

// ID returns the flow id.
func (c *Conn) ID() packet.FlowID { return c.id }

// Now returns the current simulation time.
func (c *Conn) Now() sim.Time { return c.eng.Now() }

// Rand returns the engine's deterministic RNG.
func (c *Conn) Rand() *sim.RNG { return c.eng.RNG() }

// MSS returns the payload bytes per segment.
func (c *Conn) MSS() int64 { return int64(c.cfg.MSS) }

// Cwnd returns the congestion window in bytes.
func (c *Conn) Cwnd() int64 { return c.cwnd }

// SetCwnd sets the congestion window, clamped to at least one segment.
func (c *Conn) SetCwnd(w int64) {
	if w < c.MSS() {
		w = c.MSS()
	}
	c.cwnd = w
}

// SetSSThresh sets the slow-start threshold, clamped to two segments.
func (c *Conn) SetSSThresh(v int64) {
	if v < 2*c.MSS() {
		v = 2 * c.MSS()
	}
	c.ssthresh = v
}

// InSlowStart reports cwnd < ssthresh.
func (c *Conn) InSlowStart() bool { return c.cwnd < c.ssthresh }

// InRecovery reports whether a loss-recovery episode is in progress.
func (c *Conn) InRecovery() bool { return c.inRecovery }

// PacingRate returns the configured pacing rate (0 = unpaced, ACK-clocked).
func (c *Conn) PacingRate() units.Bandwidth { return c.pacingRate }

// SetPacingRate enables pacing at rate (0 disables).
func (c *Conn) SetPacingRate(r units.Bandwidth) {
	if r < 0 {
		r = 0
	}
	c.pacingRate = r
}

// Trace returns the flow's telemetry tracer (nil when tracing is off).
// Congestion controllers use it to record state transitions; every
// FlowTracer method is nil-receiver safe, so callers need no guard.
func (c *Conn) Trace() *telemetry.FlowTracer { return c.trc }

// Inflight returns the bytes currently considered in flight.
func (c *Conn) Inflight() int64 { return c.inflight }

// Delivered returns the total payload bytes delivered (cumulatively ACKed).
func (c *Conn) Delivered() int64 { return c.delivered }

// RoundCount returns the number of completed round trips.
func (c *Conn) RoundCount() int64 { return c.roundCount }

// SRTT returns the smoothed RTT (0 before the first sample).
func (c *Conn) SRTT() time.Duration { return c.rtt.srtt }

// MinRTT returns the minimum RTT observed.
func (c *Conn) MinRTT() time.Duration { return c.rtt.minRTT }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rtt.rto }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() Stats {
	s := c.stats
	s.MinRTT = c.rtt.minRTT
	s.SRTT = c.rtt.srtt
	return s
}

// --- lifecycle ---

// Start begins transmitting at the current simulation time.
func (c *Conn) Start() {
	if c.started {
		return
	}
	c.started = true
	c.trySend()
}

// Stop freezes the sender (no new transmissions, timers cancelled).
func (c *Conn) Stop() {
	c.stopped = true
	c.rtoTimer.Stop()
	c.paceTimer.Stop()
}

// OnDone registers a callback invoked when LimitBytes are fully acked.
func (c *Conn) OnDone(fn func(*Conn)) { c.done = fn }

// --- sending ---

// hasAppData reports whether the application still has bytes to send.
func (c *Conn) hasAppData() bool {
	return c.cfg.LimitBytes == 0 || c.sndNxt < c.cfg.LimitBytes
}

// nextSegmentLen returns the payload size of the next new segment.
func (c *Conn) nextSegmentLen() int64 {
	n := c.MSS()
	if c.cfg.LimitBytes > 0 && c.sndNxt+n > c.cfg.LimitBytes {
		n = c.cfg.LimitBytes - c.sndNxt
	}
	return n
}

// trySend transmits as much as the window and pacing gates allow.
func (c *Conn) trySend() {
	if c.stopped || !c.started {
		return
	}
	for {
		// Pick what to send: retransmissions take priority.
		var rtx *seg
		for c.rtxQ.len() > 0 {
			// Still relevant: outstanding and lost (a SACKed segment never is).
			if s := c.segs.find(c.rtxQ.front()); s != nil && s.lost {
				rtx = s
				break
			}
			c.rtxQ.pop()
		}
		var segLen int64
		if rtx != nil {
			segLen = rtx.len
		} else {
			if !c.hasAppData() {
				c.appLimited = true
				return
			}
			segLen = c.nextSegmentLen()
			if segLen <= 0 {
				return
			}
		}

		// Window gate.
		if c.inflight+segLen > c.cwnd {
			return
		}
		// Pacing gate.
		now := c.eng.Now()
		if c.pacingRate > 0 && now < c.nextSendAt {
			c.armPacing()
			return
		}

		if rtx != nil {
			c.rtxQ.pop()
			rtx.lost = false
			c.lossScan = min(c.lossScan, rtx.seq)
			c.transmit(rtx)
		} else {
			s := c.segs.push(c.sndNxt, segLen)
			c.sndNxt += segLen
			c.transmit(s)
		}
	}
}

// armPacing schedules the pacing release timer.
func (c *Conn) armPacing() {
	if c.paceTimer.Pending() {
		return
	}
	c.paceTimer.ResetAt(c.nextSendAt)
}

// transmit puts one segment on the wire.
func (c *Conn) transmit(s *seg) {
	now := c.eng.Now()
	if c.aud != nil {
		if s.sacked {
			c.aud.Failf("tcp", "retransmit-sacked",
				"conn %d: retransmitting segment [%d..%d) already selectively acknowledged",
				c.id, s.seq, s.seq+s.len)
		}
		c.aud.PacketCreated()
	}
	s.lastSentAt = now
	s.sentCount++

	if c.inflight == 0 {
		// Restarting from idle: reset the rate-sample anchors.
		c.firstSentTime = now
		c.deliveredTime = now
	}

	p := c.pool.New()
	p.Kind = packet.Data
	p.Flow = c.id
	p.Seq = s.seq
	p.DataLen = s.len
	p.Size = units.ByteSize(s.len) + c.cfg.Header
	p.SentAt = now
	p.Retrans = s.sentCount > 1
	if c.cfg.ECN {
		p.ECN = packet.ECT0
	}
	p.Delivered = c.delivered
	p.DeliveredTime = c.deliveredTime
	p.FirstSentTime = c.firstSentTime
	p.AppLimited = c.appLimited

	c.inflight += s.len
	c.stats.BytesSent += s.len
	if s.sentCount > 1 {
		c.stats.Retransmits++
	}
	if c.pacingRate > 0 {
		delta := sim.Duration(units.TransmissionTime(p.Size, c.pacingRate))
		if c.nextSendAt < now {
			c.nextSendAt = now + delta
		} else {
			c.nextSendAt += delta
		}
	}
	c.appLimited = false
	c.inj(p)
	c.armRTO()
	c.cc.OnPacketSent(c, s.len)
}

// --- receiving ACKs ---

// Receive implements netem.Receiver for the ACK return path.
func (c *Conn) Receive(now sim.Time, p *packet.Packet) {
	if c.aud != nil {
		// The sender terminally consumes every packet it receives, whether
		// or not it processes it.
		c.aud.PacketConsumed()
		if p.Kind == packet.Ack && p.CumAck > c.sndNxt {
			c.aud.Failf("tcp", "ack-beyond-sndnxt",
				"conn %d: cumulative ACK %d acknowledges bytes never sent (sndNxt=%d)",
				c.id, p.CumAck, c.sndNxt)
		}
	}
	if p.Kind != packet.Ack || c.stopped {
		packet.Release(p)
		return
	}
	c.stats.Acks++

	// RTT sample from the echoed transmit timestamp. Retransmitted
	// segments can produce ambiguous samples (Karn's rule); the echo is of
	// the transmission that actually arrived, so the sample is safe here.
	var rttSample time.Duration
	if p.EchoSent > 0 {
		rttSample = (now - p.EchoSent).Std()
		c.rtt.update(rttSample)
		c.trc.RTT(int64(now), int64(rttSample), int64(c.rtt.srtt))
	}

	// Selective delivery: the ACK names the exact segment that triggered
	// it, so that segment is known delivered even if a hole below it
	// blocks the cumulative ACK. Without this, RACK marking would declare
	// every not-yet-cum-ACKed segment above a hole lost and flood the
	// path with spurious retransmissions.
	if s := c.segs.find(p.AckedSeq); s != nil && !s.sacked {
		s.sacked = true
		if s.lost {
			s.lost = false // it arrived after all; don't retransmit
		} else {
			c.inflight -= s.len
		}
		// The rate sampler credits delivery when the evidence arrives,
		// like Linux's tcp_rate: SACKed bytes count immediately.
		c.delivered += s.len
		c.deliveredTime = now
	}

	// Cumulative ACK processing. Bytes already credited at SACK time are
	// not credited again.
	newlyAcked := int64(0)
	if p.CumAck > c.sndUna {
		newlyAcked = p.CumAck - c.sndUna
		c.sndUna = p.CumAck
		c.stats.BytesAcked += newlyAcked
		for {
			s := c.segs.front()
			if s == nil || s.seq+s.len > c.sndUna {
				break
			}
			if !s.lost && !s.sacked {
				c.inflight -= s.len
			}
			if !s.sacked {
				c.delivered += s.len
				c.deliveredTime = now
			}
			c.segs.pop()
		}
	}

	// Round accounting: the ACKed packet carried the delivered count at its
	// send time; when that catches up to the marker, a round has elapsed.
	roundStart := false
	if p.Delivered >= c.nextRoundDelivered {
		roundStart = true
		c.nextRoundDelivered = c.delivered
		c.roundCount++
	}

	// Delivery-rate sample (per the BBR delivery-rate-estimation draft).
	var rate units.Bandwidth
	rateAppLimited := p.AppLimited
	if p.DeliveredTime > 0 && c.delivered > p.Delivered {
		sendElapsed := p.EchoSent - p.FirstSentTime
		ackElapsed := c.deliveredTime - p.DeliveredTime
		interval := sendElapsed
		if ackElapsed > interval {
			interval = ackElapsed
		}
		if interval > 0 {
			rate = units.RateFromBytes(units.ByteSize(c.delivered-p.Delivered), interval.Std())
			c.stats.DeliveryRate = rate
		}
	}
	if p.EchoSent > c.firstSentTime {
		c.firstSentTime = p.EchoSent
	}

	// RACK-style loss marking: any segment whose latest transmission
	// predates the transmission that triggered this ACK must have been
	// dropped (the simulated path never reorders).
	lostBytes := c.markLost(p.EchoSent)

	// Recovery episode bookkeeping.
	if c.inRecovery && c.sndUna >= c.recoverSeq {
		c.inRecovery = false
	}
	congestion := false
	if lostBytes > 0 && !c.inRecovery {
		c.inRecovery = true
		c.recoverSeq = c.sndNxt
		c.stats.CongEvents++
		congestion = true
	}
	// An ECN echo is a congestion signal with the same once-per-episode
	// gating, but nothing to retransmit.
	if p.EchoCE && !c.inRecovery {
		c.inRecovery = true
		c.recoverSeq = c.sndNxt
		c.stats.CongEvents++
		congestion = true
	}

	sample := AckSample{
		Now:            now,
		AckedBytes:     newlyAcked,
		RTT:            rttSample,
		Delivered:      c.delivered,
		DeliveryRate:   rate,
		RateAppLimited: rateAppLimited,
		Inflight:       c.inflight,
		LostBytes:      lostBytes,
		CE:             p.EchoCE,
		RoundStart:     roundStart,
		InRecovery:     c.inRecovery,
	}
	if congestion {
		c.cc.OnCongestionEvent(c)
	}
	c.cc.OnAck(c, sample)
	c.trc.Cwnd(int64(now), c.cwnd, c.ssthresh)
	c.trc.Pacing(int64(now), int64(c.pacingRate))
	packet.Release(p)

	// Timer management. Any ACK is evidence the path is delivering (the
	// receiver only ACKs on data arrival), so the timer restarts on every
	// ACK while data is outstanding — mirroring Linux's rearm on SACK
	// progress. A true blackhole produces no ACKs and still times out.
	if c.segs.len() == 0 && c.rtxQ.len() == 0 {
		c.rtoTimer.Stop()
	} else {
		c.rearmRTO()
	}

	if c.cfg.LimitBytes > 0 && c.sndUna >= c.cfg.LimitBytes && c.done != nil {
		done := c.done
		c.done = nil
		done(c)
	}
	if c.aud != nil && c.stats.Acks%auditDeepCheckEvery == 0 {
		if err := c.auditSeqSpace(); err != nil {
			c.aud.Failf("tcp", "seq-space", "%v", err)
		}
	}
	c.trySend()
}

// markLost marks as lost every leading outstanding segment whose latest
// transmission is older than trigSentAt, returning the bytes marked. It
// skips lost and SACKed segments, so starting at lossScan marks exactly what
// a scan from the front would, without re-walking the marked prefix.
func (c *Conn) markLost(trigSentAt sim.Time) int64 {
	if trigSentAt <= 0 {
		return 0
	}
	lost := int64(0)
	for i := c.segs.search(c.lossScan); i < c.segs.len(); i++ {
		s := c.segs.at(i)
		if s.lost || s.sacked {
			continue
		}
		if s.lastSentAt >= trigSentAt {
			c.lossScan = s.seq
			return lost
		}
		s.lost = true
		c.inflight -= s.len
		lost += s.len
		c.rtxQ.push(s.seq)
	}
	c.lossScan = c.sndNxt
	return lost
}

// --- RTO ---

func (c *Conn) armRTO() {
	if c.rtoTimer.Pending() {
		return
	}
	c.rtoTimer.Reset(c.rtt.rto)
}

func (c *Conn) rearmRTO() {
	c.rtoTimer.Reset(c.rtt.rto)
}

// onRTO handles retransmission-timer expiry: exponential backoff, mark all
// outstanding data lost, and let the controller collapse the window.
func (c *Conn) onRTO() {
	if c.stopped {
		return
	}
	if c.segs.len() == 0 && c.rtxQ.len() == 0 {
		return // nothing outstanding
	}
	c.stats.RTOs++
	c.rtt.rto *= 2
	if c.rtt.rto > maxRTO {
		c.rtt.rto = maxRTO
	}
	c.trc.RTO(int64(c.eng.Now()), int64(c.rtt.rto), int64(c.stats.RTOs))

	// Everything outstanding and undelivered is presumed lost; rebuild the
	// retransmission queue in sequence order.
	c.rtxQ.reset()
	for i := 0; i < c.segs.len(); i++ {
		s := c.segs.at(i)
		if s.sacked {
			continue // already delivered; nothing to resend
		}
		if !s.lost {
			s.lost = true
			c.inflight -= s.len
		}
		c.rtxQ.push(s.seq)
	}
	c.inflight = 0
	c.inRecovery = false
	c.cc.OnRTO(c)
	c.rearmRTO()
	c.trySend()
}

// seqQueue is a FIFO of sequence numbers that keeps its buffer across
// loss episodes: pop advances a head index, a drained queue rewinds to the
// front, and a push onto a full buffer first moves the entries left over
// the popped ones.
type seqQueue struct {
	buf  []int64
	head int
}

func (q *seqQueue) len() int { return len(q.buf) - q.head }

// front returns the oldest entry; the queue must not be empty.
func (q *seqQueue) front() int64 { return q.buf[q.head] }

// pop drops the oldest entry; the queue must not be empty.
func (q *seqQueue) pop() {
	if q.head++; q.head == len(q.buf) {
		q.reset()
	}
}

func (q *seqQueue) push(seq int64) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, seq)
}

func (q *seqQueue) reset() { q.buf, q.head = q.buf[:0], 0 }

// segDeque is a growable ring of outstanding segments, held by value and
// ordered by sequence. Its length is zero or a power of two, so indices
// wrap with a mask. at, front, find and push return pointers into the ring:
// a push may move it, so no pointer may be held across one.
type segDeque struct {
	buf  []seg
	head int
	n    int
}

func (d *segDeque) len() int { return d.n }

func (d *segDeque) at(i int) *seg { return &d.buf[(d.head+i)&(len(d.buf)-1)] }

func (d *segDeque) front() *seg {
	if d.n == 0 {
		return nil
	}
	return &d.buf[d.head]
}

// push appends the segment [seq, seq+length) and returns it.
func (d *segDeque) push(seq, length int64) *seg {
	if d.n == len(d.buf) {
		nb := make([]seg, max(16, len(d.buf)*2))
		for i := 0; i < d.n; i++ {
			nb[i] = *d.at(i)
		}
		d.buf = nb
		d.head = 0
	}
	s := d.at(d.n)
	*s = seg{seq: seq, len: length}
	d.n++
	return s
}

// pop drops the front segment; the deque must not be empty.
func (d *segDeque) pop() {
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
}

// search returns the index of the first segment starting at or after seq
// (len() when there is none). Segments are contiguous, non-empty and all
// but the last are one MSS long, so seq is looked up first at index
// (seq − front.seq)/front.len; they are stored in increasing sequence
// order, so a binary search settles any miss.
func (d *segDeque) search(seq int64) int {
	if d.n == 0 {
		return 0
	}
	f := &d.buf[d.head]
	if seq <= f.seq {
		return 0
	}
	if i := (seq - f.seq) / f.len; i < int64(d.n) && d.at(int(i)).seq == seq {
		return int(i)
	}
	lo, hi := 0, d.n
	for lo < hi {
		mid := (lo + hi) / 2
		if d.at(mid).seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the outstanding segment starting at seq, or nil.
func (d *segDeque) find(seq int64) *seg {
	if i := d.search(seq); i < d.n {
		if s := d.at(i); s.seq == seq {
			return s
		}
	}
	return nil
}
