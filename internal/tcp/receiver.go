package tcp

import (
	"slices"
	"time"

	"repro/internal/audit"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Receiver is the data sink of one flow. By default it ACKs every arriving
// segment (cumulative ACK plus the echo fields the sender's loss detection
// and delivery-rate sampler need); with delayed ACKs enabled it
// acknowledges every second in-order segment or after the 40 ms timer,
// while out-of-order arrivals are ACKed immediately (RFC 5681 §4.2).
type Receiver struct {
	eng    *sim.Engine
	flow   packet.FlowID
	hdr    units.ByteSize
	inject func(*packet.Packet) // injects ACKs toward the sender
	pool   *packet.Pool         // the run's packets (nil: unowned packets)

	rcvNxt int64
	ooo    []span // out-of-order data above rcvNxt: sorted, disjoint, merged

	bytesIn     int64 // all payload bytes that arrived (incl. duplicates)
	dupSegments uint64

	// Delayed-ACK state. pendingAck is held by value (valid when
	// hasPending) so holding an ACK allocates nothing, and delTimer is a
	// persistent reusable timer.
	delayAck   bool
	pendingAck pendingEcho
	hasPending bool
	delTimer   sim.Timer
	acksSent   uint64

	// aud, when non-nil, records the endpoint's side of the conservation
	// ledger: every arriving packet is consumed here, every ACK is created.
	aud *audit.Auditor
}

// span is the byte range [start, end) of contiguous out-of-order data.
type span struct{ start, end int64 }

// pendingEcho holds the echo fields of the newest unacknowledged segment.
type pendingEcho struct {
	ackedSeq      int64
	echoSent      sim.Time
	echoCE        bool
	delivered     int64
	deliveredTime sim.Time
	firstSentTime sim.Time
	appLimited    bool
}

// delAckTimeout mirrors Linux's delayed-ACK timer.
const delAckTimeout = 40 * time.Millisecond

// NewReceiver creates the receiving endpoint for flow id; ACKs are injected
// via inject (typically the server NIC port).
func NewReceiver(eng *sim.Engine, id packet.FlowID, header units.ByteSize, inject func(*packet.Packet)) *Receiver {
	r := &Receiver{eng: eng}
	r.init(id, header, false, inject)
	return r
}

// Reinit re-initialises a closed receiver in place as the receiver of a
// new flow: afterwards every field reads exactly as NewReceiver (or, with
// delayAck, NewDelayedAckReceiver) on the same engine would leave it,
// except that the out-of-order span list keeps its capacity. Reinit must
// not run while the receiver's Receive is on the stack; on an audited
// engine a pending delayed-ACK timer or a held ACK is a violation.
func (r *Receiver) Reinit(id packet.FlowID, header units.ByteSize, delayAck bool, inject func(*packet.Packet)) {
	if r.aud != nil && (r.delTimer.Pending() || r.hasPending) {
		r.aud.Failf("tcp", "recycle-live",
			"receiver %d: recycled as flow %d with a delayed ACK still held (timer pending=%v)",
			r.flow, id, r.delTimer.Pending())
	}
	r.delTimer.Stop()
	ooo := r.ooo[:0]
	*r = Receiver{eng: r.eng}
	r.init(id, header, delayAck, inject)
	r.ooo = ooo
}

// init sets every field but eng as a fresh receiver of flow id.
func (r *Receiver) init(id packet.FlowID, header units.ByteSize, delayAck bool, inject func(*packet.Packet)) {
	if header <= 0 {
		header = 60
	}
	r.flow, r.hdr, r.inject, r.delayAck = id, header, inject, delayAck
	r.delTimer.Init(r.eng, r, nil)
	r.aud = r.eng.Auditor()
}

// OnEvent implements sim.Handler: the delayed-ACK timer expired, so flush
// the held acknowledgement.
func (r *Receiver) OnEvent(any) {
	if r.hasPending {
		e := r.pendingAck
		r.hasPending = false
		r.sendAck(e)
	}
}

// Close retires the receiver when its flow is torn down mid-run: the
// delayed-ACK timer is cancelled and any held acknowledgement is dropped
// unsent. A held ACK has not touched the conservation ledger (ACKs are
// only counted as created in sendAck), so closing leaves the ledger
// settled. Stats accessors stay valid after Close.
func (r *Receiver) Close() {
	r.hasPending = false
	r.delTimer.Stop()
}

// NewDelayedAckReceiver returns a receiver with delayed ACKs enabled.
func NewDelayedAckReceiver(eng *sim.Engine, id packet.FlowID, header units.ByteSize, inject func(*packet.Packet)) *Receiver {
	r := &Receiver{eng: eng}
	r.init(id, header, true, inject)
	return r
}

// UsePool makes the receiver draw its ACKs from pool, the run's packet
// pool; without one it sends unowned packets.
func (r *Receiver) UsePool(pool *packet.Pool) { r.pool = pool }

// AcksSent returns how many ACK packets left this receiver.
func (r *Receiver) AcksSent() uint64 { return r.acksSent }

// Goodput returns the contiguous bytes received so far.
func (r *Receiver) Goodput() int64 { return r.rcvNxt }

// BytesIn returns all payload bytes that arrived, duplicates included.
func (r *Receiver) BytesIn() int64 { return r.bytesIn }

// DupSegments returns how many duplicate segments arrived.
func (r *Receiver) DupSegments() uint64 { return r.dupSegments }

// Receive implements netem.Receiver for the data direction.
func (r *Receiver) Receive(now sim.Time, p *packet.Packet) {
	if r.aud != nil {
		r.aud.PacketConsumed()
	}
	if p.Kind != packet.Data {
		packet.Release(p)
		return
	}
	r.bytesIn += p.DataLen

	inOrder := false
	switch {
	case p.Seq == r.rcvNxt:
		inOrder = true
		r.rcvNxt += p.DataLen
		// Merge the buffered continuation, if this filled the first hole.
		// The spans behind it move down, so the list keeps its buffer.
		if len(r.ooo) > 0 && r.ooo[0].start == r.rcvNxt {
			r.rcvNxt = r.ooo[0].end
			r.ooo = slices.Delete(r.ooo, 0, 1)
		}
	case p.Seq > r.rcvNxt:
		r.addSpan(p.Seq, p.Seq+p.DataLen)
	default:
		r.dupSegments++ // already delivered
	}

	echo := pendingEcho{
		ackedSeq:      p.Seq,
		echoSent:      p.SentAt,
		echoCE:        p.ECN == packet.CE,
		delivered:     p.Delivered,
		deliveredTime: p.DeliveredTime,
		firstSentTime: p.FirstSentTime,
		appLimited:    p.AppLimited,
	}
	packet.Release(p)

	if !r.delayAck || !inOrder || echo.echoCE {
		// Immediate ACK: per-packet mode, out-of-order arrival (dupack for
		// fast loss detection), or a CE echo the sender must see promptly.
		if r.hasPending {
			r.hasPending = false
			r.delTimer.Stop()
		}
		r.sendAck(echo)
		return
	}

	if r.hasPending {
		// Second in-order segment: ACK now, covering both.
		r.hasPending = false
		r.delTimer.Stop()
		r.sendAck(echo)
		return
	}
	// First in-order segment: hold and arm the delayed-ACK timer.
	r.pendingAck = echo
	r.hasPending = true
	r.delTimer.Reset(delAckTimeout)
}

// addSpan records the out-of-order segment [start, end), or counts it as a
// duplicate when it already arrived. A segment keeps its boundaries across
// retransmissions, so it is either wholly inside a span or wholly outside
// every span. Arrivals almost always extend the last span, so the search
// runs from the back.
func (r *Receiver) addSpan(start, end int64) {
	i := len(r.ooo) // index of the first span starting above start
	for i > 0 && r.ooo[i-1].start > start {
		i--
	}
	if i > 0 && start < r.ooo[i-1].end {
		r.dupSegments++
		return
	}
	joinPrev := i > 0 && r.ooo[i-1].end == start
	joinNext := i < len(r.ooo) && r.ooo[i].start == end
	switch {
	case joinPrev && joinNext:
		r.ooo[i-1].end = r.ooo[i].end
		r.ooo = slices.Delete(r.ooo, i, i+1)
	case joinPrev:
		r.ooo[i-1].end = end
	case joinNext:
		r.ooo[i].start = start
	default:
		r.ooo = slices.Insert(r.ooo, i, span{start, end})
	}
}

// sendAck emits a cumulative ACK carrying the given echo fields.
func (r *Receiver) sendAck(e pendingEcho) {
	ack := r.pool.New()
	ack.Kind = packet.Ack
	ack.Flow = r.flow
	ack.Size = r.hdr
	ack.CumAck = r.rcvNxt
	ack.AckedSeq = e.ackedSeq
	ack.EchoSent = e.echoSent
	ack.EchoCE = e.echoCE
	ack.Delivered = e.delivered
	ack.DeliveredTime = e.deliveredTime
	ack.FirstSentTime = e.firstSentTime
	ack.AppLimited = e.appLimited
	r.acksSent++
	if r.aud != nil {
		r.aud.PacketCreated()
	}
	r.inject(ack)
}
