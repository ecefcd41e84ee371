// Package packet defines the unit of traffic the simulator forwards: data
// segments and ACKs, with the ECN codepoints AQMs may mark, and the Pool a
// run draws them from. Each run owns one Pool (topo.Network holds it), so
// packets are recycled through a LIFO free stack that no other run and no
// garbage collection cycle touches; a packet goes back to the pool it came
// from on Release.
package packet

import (
	"fmt"

	"repro/internal/audit"
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
// along the forwarding path and back to the owning Pool on Release. The
// fields every hop reads (queues, ports, demultiplexers) come first, so
// forwarding touches one cache line; two endpoint flags fill the padding
// before Flow. The pool's bookkeeping (the free flag in AppLimited's tail
// padding, then the owner pointer) comes last: 112 bytes, one size class.
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

	free  bool  // on its owner's free stack (a second Release is a bug)
	owner *Pool // the pool Release returns it to; nil for an unowned packet
}

func (p *Packet) String() string {
	if p.Kind == Ack {
		return fmt.Sprintf("ack{flow=%d cum=%d}", p.Flow, p.CumAck)
	}
	return fmt.Sprintf("data{flow=%d seq=%d len=%d}", p.Flow, p.Seq, p.DataLen)
}

// New returns a fresh unowned packet, for tests and tools that run outside
// a network; Release leaves it to the garbage collector.
func New() *Packet { return new(Packet) }

// Release returns a packet to the pool it was drawn from. The caller must
// not touch it afterwards. Releasing nil or an unowned packet is a no-op.
func Release(p *Packet) {
	if p != nil && p.owner != nil {
		p.owner.put(p)
	}
}

// Pool is one run's packet allocator: a LIFO free stack refilled by slabs,
// so a steady state allocates nothing and a run's packets never mix with
// another's. Like the engine that drives the run it is single-goroutine.
// A nil *Pool hands out unowned packets.
type Pool struct {
	free  []*Packet
	total int // packets in every slab: out of the pool = total - len(free)
	aud   *audit.Auditor
}

// Slab sizes: the first slab holds minSlab packets and each later one
// doubles the pool, up to maxSlab, so a short run costs a few allocations
// and a 25 Gbps run with 100k+ packets in flight a few dozen.
const (
	minSlab = 256
	maxSlab = 4096
)

// NewPool returns an empty pool. A non-nil aud makes a double release an
// audit violation (packet/double-release) instead of a plain panic.
func NewPool(aud *audit.Auditor) *Pool { return &Pool{aud: aud} }

// New pops the most recently released packet, zeroed, growing the pool by
// a slab when the free stack is empty.
func (pl *Pool) New() *Packet {
	if pl == nil {
		return new(Packet)
	}
	if len(pl.free) == 0 {
		pl.grow()
	}
	n := len(pl.free) - 1
	p := pl.free[n]
	pl.free = pl.free[:n]
	*p = Packet{owner: pl}
	return p
}

// grow adds one slab. It runs only on an empty free stack, so a stack too
// small to hold every packet the pool owns is replaced, not copied; its
// capacity at least doubles, so a run that grows to 100k+ packets in
// flight reallocates it a handful of times, not once per slab.
func (pl *Pool) grow() {
	n := min(max(pl.total, minSlab), maxSlab)
	slab := make([]Packet, n)
	pl.total += n
	if cap(pl.free) < pl.total {
		pl.free = make([]*Packet, 0, max(pl.total, 2*cap(pl.free)))
	}
	pl.free = pl.free[:n]
	for i := range slab {
		pl.free[n-1-i] = &slab[i] // slab order out: the first pop is slab[0]
	}
}

func (pl *Pool) put(p *Packet) {
	if p.free {
		if pl.aud != nil {
			pl.aud.Failf("packet", "double-release", "%v released twice", p)
		}
		panic(fmt.Sprintf("packet: %v released twice", p))
	}
	p.free = true
	pl.free = append(pl.free, p)
}

// Out returns how many packets are drawn from the pool and not yet
// released: what the network still holds.
func (pl *Pool) Out() int { return pl.total - len(pl.free) }

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
