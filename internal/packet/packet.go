// Package packet defines the unit of traffic the simulator forwards: data
// segments and ACKs, with the ECN codepoints AQMs may mark. A small free
// list keeps high-bandwidth runs from thrashing the allocator.
package packet

import (
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/units"
)

// ECN is the two-bit Explicit Congestion Notification codepoint.
type ECN uint8

// ECN codepoints per RFC 3168.
const (
	NotECT ECN = iota // endpoint does not support ECN
	ECT0              // ECN-capable transport
	ECT1
	CE // congestion experienced (set by an AQM instead of dropping)
)

// Kind discriminates data segments from pure ACKs.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
)

// FlowID identifies one TCP flow (one iperf3 stream in the paper's terms).
type FlowID uint32

// Packet is one frame in flight. Fields are plain data; ownership passes
// along the forwarding path and back to the pool on Release. The fields
// every hop reads (queues, ports, demultiplexers) come first, so forwarding
// touches one cache line; two endpoint flags fill the padding before Flow.
type Packet struct {
	Kind      Kind
	ECN       ECN
	Retrans   bool // data: this is a retransmission
	EchoCE    bool // ACK: receiver saw CE on the acked segment
	Flow      FlowID
	Size      units.ByteSize // wire size including headers
	EnqueueAt sim.Time       // when it entered the current queue (CoDel sojourn)

	// Data segment fields.
	Seq     int64 // first byte carried
	DataLen int64 // payload bytes

	// ACK fields.
	CumAck   int64 // next byte expected by the receiver
	AckedSeq int64 // Seq of the segment that triggered this ACK
	EchoSent sim.Time

	// SentAt is when the sender transmitted it.
	SentAt sim.Time

	// Delivery-rate sampling state copied from the sender at transmit time
	// (per the BBR delivery-rate-estimation draft).
	Delivered     int64    // connection's delivered counter at send
	DeliveredTime sim.Time // when that counter was last advanced
	FirstSentTime sim.Time // send time of the first packet of this sample window
	AppLimited    bool
}

func (p *Packet) String() string {
	if p.Kind == Ack {
		return fmt.Sprintf("ack{flow=%d cum=%d}", p.Flow, p.CumAck)
	}
	return fmt.Sprintf("data{flow=%d seq=%d len=%d}", p.Flow, p.Seq, p.DataLen)
}

var pool = sync.Pool{New: func() any { return new(Packet) }}

// New fetches a zeroed packet from the free list.
func New() *Packet {
	p := pool.Get().(*Packet)
	*p = Packet{}
	return p
}

// Release returns a packet to the free list. The caller must not touch it
// afterwards.
func Release(p *Packet) {
	if p != nil {
		pool.Put(p)
	}
}

// FlowHash maps a flow ID onto nbuckets hash buckets, the way FQ-CoDel
// classifies flows. perturb decorrelates the mapping between runs.
func FlowHash(f FlowID, perturb uint64, nbuckets int) int {
	if nbuckets <= 1 {
		return 0
	}
	x := uint64(f)*0x9e3779b97f4a7c15 ^ perturb
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int(x % uint64(nbuckets))
}
