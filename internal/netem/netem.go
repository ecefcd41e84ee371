// Package netem models the forwarding plane: ports that serialize packets
// onto links at a configured rate, drain a pluggable AQM queue, and deliver
// after a propagation delay. Chaining ports builds arbitrary paths; the
// dumbbell of the paper is four chained ports per direction (client NIC →
// router1 bottleneck port → router2 port → server NIC).
package netem

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// testHookSkipDownDropAccounting deliberately omits the downDrops increment
// when a flap drains the egress queue. It exists only so the audit test
// suite can prove the invariant auditor catches a real accounting bug (a
// drop that is destroyed but never counted); it is never set in production.
var testHookSkipDownDropAccounting bool

// Receiver consumes packets at the end of a link: another Port, or a
// protocol endpoint.
type Receiver interface {
	Receive(now sim.Time, p *packet.Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(now sim.Time, p *packet.Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(now sim.Time, p *packet.Packet) { f(now, p) }

// Port is one egress interface: a queue drained at the link rate, with each
// transmitted packet delivered to dst after the propagation delay. Port
// itself implements Receiver so ports chain into paths.
type Port struct {
	Name string

	eng   *sim.Engine
	rate  units.Bandwidth
	delay time.Duration
	queue aqm.Queue
	dst   Receiver
	busy  bool // txTimer is armed

	// Handler adapters for the two per-packet events (serialization done,
	// propagation delivery). Stable addresses inside the Port let the
	// engine dispatch them without a closure or Event allocation per
	// packet. The serializer is one port-owned timer, armed for the packet
	// in txing; deliveries wait on the port's delay line, which holds one
	// heap slot however many packets are in propagation.
	txDoneH  portTxDone
	deliverH portDeliver
	txTimer  sim.Timer
	txing    *packet.Packet
	wire     sim.Line

	// Fused serialization. On a fused port (no fault armed) a packet that
	// leaves the queue with nothing behind it is finished when it is
	// dequeued: nothing can change its fate on the serializer, so it is
	// counted and pushed onto the wire at once, and free keeps the key its
	// tx-done event would have run under instead of queueing that event.
	// freeBytes is its size, which TxPackets and TxBytes hold back until
	// free is reached. An arrival before then arms txTimer under free, so
	// the next packet starts exactly when it would have. If none arrives
	// by then, the skipped tx-done still owes the discipline the Dequeue it
	// would have made on the empty queue (owed): the next Send makes it
	// before its Enqueue, which is exact because an empty Dequeue never
	// reads its time (aqm.Queue).
	fused     bool
	owed      bool
	free      sim.Key
	freeBytes units.ByteSize

	next *Port // the folded next hop (see Fold)

	// Fault injection (the paper's "network anomalies" future work):
	// lossRate drops transmitted packets uniformly at random; ge overlays a
	// Gilbert–Elliott bursty-loss chain; down models a carrier loss (link
	// flap).
	// The RNG is derived from the engine's seeded RNG on first use, so
	// fault behaviour is bit-reproducible per engine seed.
	lossRate float64
	rng      *sim.RNG
	ge       geChain
	down     bool

	txPackets uint64
	txBytes   units.ByteSize
	lossDrops uint64
	downDrops uint64

	// Queueing-delay telemetry (sojourn from enqueue to serialization
	// start) — the direct evidence of bufferbloat the paper reasons about.
	sojournSum sim.Time
	sojournMax sim.Time

	// Occupancy high-watermark, maintained unconditionally: two compares
	// per enqueue, no events, no allocation — cheap enough to keep on so
	// every Result reports its bottleneck's peak standing queue.
	peakQBytes units.ByteSize
	peakQPkts  int

	// trc, when non-nil, is this port's telemetry ring (picked up from the
	// engine at construction, like the auditor). Enqueue/dequeue/drop/fault
	// events are gated on one nil check each.
	trc *telemetry.PortTracer

	// Invariant auditing (nil = disabled; picked up from the engine at
	// construction). The aud* counters are the auditor's independent view of
	// the port: at end of run they must reconcile with the production
	// counters (queue stats, lossDrops, downDrops) — an uncounted drop or a
	// leaked packet breaks the equation. Each hot-path touch is gated on one
	// nil check so a disabled port pays a branch, not an allocation.
	aud            *audit.Auditor
	audOffered     uint64 // packets entering Send
	audQueueOps    uint64 // queue operations since the last deep SelfCheck
	audQueueOffer  uint64 // Enqueue calls on the queue
	audInFlight    uint64 // packets serializing or propagating
	audDelivered   uint64 // packets handed to dst (or consumed at a nil dst)
	audSelfChecker aqm.SelfChecker
}

// SojournStats summarizes the queueing delay seen by transmitted packets.
type SojournStats struct {
	Mean time.Duration
	Max  time.Duration
}

// Sojourn returns the mean and maximum queueing delay so far.
func (po *Port) Sojourn() SojournStats {
	n := po.TxPackets()
	if n == 0 {
		return SojournStats{}
	}
	return SojournStats{
		Mean: (po.sojournSum / sim.Time(n)).Std(),
		Max:  po.sojournMax.Std(),
	}
}

// NewPort builds an egress port transmitting at rate with propagation delay
// toward dst, buffering in queue.
func NewPort(eng *sim.Engine, name string, rate units.Bandwidth, delay time.Duration, queue aqm.Queue, dst Receiver) *Port {
	if queue == nil {
		queue = aqm.NewFIFO(1 << 40) // effectively unbuffered-loss-free
	}
	po := &Port{Name: name, eng: eng, rate: rate, delay: delay, queue: queue, dst: dst, fused: true}
	po.txDoneH.po = po
	po.deliverH.po = po
	po.txTimer.Init(eng, &po.txDoneH, nil)
	po.wire.Init(eng, &po.deliverH)
	if a := eng.Auditor(); a != nil {
		po.aud = a
		po.audSelfChecker, _ = queue.(aqm.SelfChecker)
		a.RegisterNet(po.auditSample)
		a.OnFinish("netem", "port-conservation", po.auditFinish)
	}
	if t := eng.Tracer(); t != nil {
		po.trc = t.Port(name)
		// The discipline shares the port's ring so its drop law's verdicts
		// (RED early vs forced, CoDel control law, fat-flow eviction) land
		// in the same timeline as the port's enqueues and dequeues.
		if ts, ok := queue.(aqm.TraceSink); ok {
			ts.SetTrace(po.trc)
		}
	}
	return po
}

// auditSample reports this port's contribution to the global conservation
// ledger using its production counters: destroyed = AQM drops + injected
// loss + flap destruction; resident = queued + serializing/propagating.
func (po *Port) auditSample() audit.NetSample {
	qs := po.queue.Stats()
	return audit.NetSample{
		Name:     po.Name,
		Dropped:  int64(qs.Dropped + po.lossDrops + po.downDrops),
		Resident: int64(uint64(po.queue.Len()) + po.audInFlight),
	}
}

// auditFinish settles the per-port books at end of run: every packet
// offered to the port must be accounted by exactly one production drop
// counter, still be resident, or have been handed to the next element.
// Because the drop side is the production counters, a skipped increment
// (for example a flap drain that destroys a packet without counting it)
// shows up as an imbalance here.
func (po *Port) auditFinish() error {
	qs := po.queue.Stats()
	accounted := qs.Dropped + po.lossDrops + po.downDrops +
		uint64(po.queue.Len()) + po.audInFlight + po.audDelivered
	if po.audOffered != accounted {
		return fmt.Errorf(
			"port %s: offered=%d != aqm-dropped=%d + loss-dropped=%d + flap-dropped=%d + queued=%d + in-flight=%d + delivered=%d (off by %d)",
			po.Name, po.audOffered, qs.Dropped, po.lossDrops, po.downDrops,
			po.queue.Len(), po.audInFlight, po.audDelivered,
			int64(po.audOffered)-int64(accounted))
	}
	if po.audSelfChecker != nil {
		if err := po.audSelfChecker.SelfCheck(); err != nil {
			return fmt.Errorf("port %s: %w", po.Name, err)
		}
	}
	return nil
}

// auditSelfCheckEvery is how many queue operations pass between O(queue)
// deep SelfCheck walks on an audited port. The cheap per-op checks
// (occupancy bounds, counter balance) still run on every operation.
const auditSelfCheckEvery = 512

// auditQueueOp validates the queue after one Enqueue/Dequeue on an audited
// port: occupancy within [0, capacity], and the universal discipline
// balance offered = dequeued + dropped + queued (which holds for all four
// AQMs despite their differing Enqueued semantics). Every
// auditSelfCheckEvery ops it also runs the discipline's own deep walk.
func (po *Port) auditQueueOp() {
	q := po.queue
	if b := q.Bytes(); b < 0 || b > q.Capacity() {
		po.aud.Failf("aqm", "occupancy-bounds",
			"port %s: queue %s holds %d bytes, capacity %d", po.Name, q.Name(), b, q.Capacity())
	}
	if n := q.Len(); n < 0 {
		po.aud.Failf("aqm", "occupancy-bounds",
			"port %s: queue %s reports negative length %d", po.Name, q.Name(), n)
	}
	qs := q.Stats()
	if acc := qs.Dequeued + qs.Dropped + uint64(q.Len()); po.audQueueOffer != acc {
		po.aud.Failf("aqm", "counter-balance",
			"port %s: queue %s offered=%d != dequeued=%d + dropped=%d + queued=%d",
			po.Name, q.Name(), po.audQueueOffer, qs.Dequeued, qs.Dropped, q.Len())
	}
	po.audQueueOps++
	if po.audSelfChecker != nil && po.audQueueOps%auditSelfCheckEvery == 0 {
		if err := po.audSelfChecker.SelfCheck(); err != nil {
			po.aud.Failf("aqm", "self-check", "port %s: %v", po.Name, err)
		}
	}
}

// Queue exposes the port's queue (for telemetry and tests).
func (po *Port) Queue() aqm.Queue { return po.queue }

// PeakQueue returns the highest queue occupancy (bytes, packets) the port
// has seen. Maintained unconditionally, so it is available whether or not
// tracing or sampling is enabled.
func (po *Port) PeakQueue() (units.ByteSize, int) { return po.peakQBytes, po.peakQPkts }

// Rate returns the configured link rate.
func (po *Port) Rate() units.Bandwidth { return po.rate }

// TxPackets returns how many packets have finished serialization.
func (po *Port) TxPackets() uint64 {
	if po.eng.Reached(po.free) {
		return po.txPackets
	}
	return po.txPackets - 1
}

// TxBytes returns how many bytes have finished serialization.
func (po *Port) TxBytes() units.ByteSize {
	if po.eng.Reached(po.free) {
		return po.txBytes
	}
	return po.txBytes - po.freeBytes
}

// Unfuse puts the port on the event path for good: every packet's
// serialization ends in a tx-done event, where loss, flaps and rate and
// delay steps act. Every fault setter calls it; a caller that will change
// the port later in the run must call it before the run starts, since a
// packet already fused has been delivered under the settings of its
// dequeue.
func (po *Port) Unfuse() {
	po.fused = false
	po.payOwed()
}

// payOwed makes the empty Dequeue a fused packet's skipped tx-done owes the
// discipline, once that tx-done's key is reached.
func (po *Port) payOwed() {
	if po.owed && po.eng.Reached(po.free) {
		po.owed = false
		po.queue.Dequeue(po.eng.Now())
		if po.aud != nil {
			po.auditQueueOp()
		}
	}
}

// SetDst rewires the port's destination (used by topology builders).
func (po *Port) SetDst(dst Receiver) { po.dst = dst }

// Fold makes next the port's destination and lets it take packets onto
// its wire at once (see fold). The caller guarantees that next has a
// destination and no other upstream, that nothing injects into it, that
// its queue is a FIFO that never fills, and that no result reads next's
// counters or its Queue(): a folded packet bypasses next's queue, waiting
// or not, and is counted from its fold.
func (po *Port) Fold(next *Port) { po.dst, po.next = next, next }

// ensureRNG lazily derives the port's private random stream from the
// engine's seeded RNG. Deriving (rather than sharing) keeps per-packet
// draws from perturbing other consumers of the engine RNG, while still
// making every fault decision a pure function of the engine seed and the
// deterministic construction order.
func (po *Port) ensureRNG() {
	if po.rng == nil {
		po.rng = sim.NewRNG(po.eng.RNG().Uint64())
	}
}

// SetLoss makes the port drop transmitted packets uniformly at random with
// the given probability — corruption/anomaly injection on the wire, after
// the queue (so AQM statistics stay clean).
func (po *Port) SetLoss(rate float64) {
	po.lossRate = min(max(rate, 0), 1)
	po.ensureRNG()
	po.Unfuse()
}

// geChain is a two-state Gilbert–Elliott loss process: per transmitted
// packet the chain drops with the current state's loss probability, then
// transitions good→bad with pGB or bad→good with pBG. Mean burst length is
// 1/pBG packets; the stationary bad fraction is pGB/(pGB+pBG).
type geChain struct {
	enabled                bool
	bad                    bool
	pGB, pBG, lossG, lossB float64
}

// step advances the chain one packet and reports whether to drop it.
func (g *geChain) step(rng *sim.RNG) bool {
	p := g.lossG
	if g.bad {
		p = g.lossB
	}
	drop := p > 0 && rng.Float64() < p
	if g.bad {
		if rng.Float64() < g.pBG {
			g.bad = false
		}
	} else if rng.Float64() < g.pGB {
		g.bad = true
	}
	return drop
}

// SetGELoss arms a Gilbert–Elliott bursty-loss chain on the port (the
// fault-injection layer's burst-loss model). Probabilities are clamped to
// [0, 1]; all-zero loss probabilities disable the chain. The chain starts
// in the good state and evolves once per transmitted packet on the port's
// deterministic RNG, independently of the uniform SetLoss rate.
func (po *Port) SetGELoss(pGB, pBG, lossGood, lossBad float64) {
	clamp := func(v float64) float64 { return min(max(v, 0), 1) }
	po.ge = geChain{
		pGB:   clamp(pGB),
		pBG:   clamp(pBG),
		lossG: clamp(lossGood),
		lossB: clamp(lossBad),
	}
	po.ge.enabled = po.ge.lossG > 0 || po.ge.lossB > 0
	if po.ge.enabled {
		po.ensureRNG()
	}
	po.Unfuse()
}

// SetRate changes the link rate mid-run (a fault-injection bandwidth
// step). The packet currently being serialized finishes at the old rate;
// subsequent packets use the new one. Non-positive rates are ignored —
// model an outage with SetDown instead.
func (po *Port) SetRate(rate units.Bandwidth) {
	po.Unfuse()
	if rate > 0 {
		po.rate = rate
		if po.trc != nil {
			po.trc.Fault(int64(po.eng.Now()), telemetry.FaultRate, int64(rate), 0)
		}
	}
}

// Delay returns the configured propagation delay.
func (po *Port) Delay() time.Duration { return po.delay }

// SetDelay changes the propagation delay mid-run (a fault-injection RTT
// step). Negative delays clamp to zero. A shrinking delay cannot reorder
// packets already in flight: the wire holds new deliveries behind the
// latest scheduled one.
func (po *Port) SetDelay(d time.Duration) {
	po.Unfuse()
	if d < 0 {
		d = 0
	}
	po.delay = d
	if po.trc != nil {
		po.trc.Fault(int64(po.eng.Now()), telemetry.FaultDelay, d.Nanoseconds(), 0)
	}
}

// SetDown flaps the link carrier. Taking the port down drains and drops
// the entire egress queue (the router flushes buffers on carrier loss) and
// destroys every packet offered or serialized while down; bringing it back
// up restarts the transmitter. Packets already past serialization (in
// propagation) still arrive — they are on the wire ahead of the failure.
func (po *Port) SetDown(down bool) {
	po.Unfuse()
	if po.down == down {
		return
	}
	po.down = down
	if down {
		now := po.eng.Now()
		var drained int64
		for {
			p := po.queue.Dequeue(now)
			if p == nil {
				break
			}
			if !testHookSkipDownDropAccounting {
				po.downDrops++
			}
			drained++
			if po.trc != nil {
				po.trc.Drop(int64(now), uint32(p.Flow), telemetry.DropLinkDown,
					int64(p.Size), int64(po.queue.Bytes()))
			}
			packet.Release(p)
		}
		if po.trc != nil {
			po.trc.Fault(int64(now), telemetry.FaultDown, 0, drained)
		}
		if po.aud != nil {
			po.auditQueueOp()
		}
		return
	}
	if po.trc != nil {
		po.trc.Fault(int64(po.eng.Now()), telemetry.FaultUp, 0, 0)
	}
	po.kick()
}

// Down reports whether the link is currently flapped down.
func (po *Port) Down() bool { return po.down }

// LossDrops returns how many packets were destroyed by injected loss
// (uniform and Gilbert–Elliott).
func (po *Port) LossDrops() uint64 { return po.lossDrops }

// DownDrops returns how many packets were destroyed by link flaps.
func (po *Port) DownDrops() uint64 { return po.downDrops }

// Receive implements Receiver: forward the packet out this port.
func (po *Port) Receive(now sim.Time, p *packet.Packet) { po.Send(p) }

// Send offers a packet to the egress queue and kicks the transmitter.
func (po *Port) Send(p *packet.Packet) {
	if po.aud != nil {
		po.audOffered++
	}
	if po.down {
		po.downDrops++
		if po.trc != nil {
			po.trc.Drop(int64(po.eng.Now()), uint32(p.Flow), telemetry.DropLinkDown,
				int64(p.Size), int64(po.queue.Bytes()))
		}
		packet.Release(p)
		return
	}
	now := po.eng.Now()
	if po.owed {
		po.payOwed()
	}
	if po.aud != nil {
		po.audQueueOffer++
	}
	if !po.queue.Enqueue(now, p) {
		if po.aud != nil {
			po.auditQueueOp()
		}
		return // queue dropped (and released) it; the discipline traced it
	}
	if qb := po.queue.Bytes(); qb > po.peakQBytes {
		po.peakQBytes = qb
	}
	if n := po.queue.Len(); n > po.peakQPkts {
		po.peakQPkts = n
	}
	if po.trc != nil {
		po.trc.Enqueue(int64(now), uint32(p.Flow), int64(po.queue.Bytes()), int64(po.queue.Len()))
	}
	if po.aud != nil {
		po.auditQueueOp()
	}
	po.kick()
}

// kick starts the transmitter unless it is serializing. While a fused
// packet is still on the serializer it arms txTimer under the key that
// packet's tx-done would have run under.
func (po *Port) kick() {
	switch {
	case po.busy:
	case !po.eng.Reached(po.free):
		po.busy, po.owed = true, false
		po.txTimer.ResetKey(po.free)
	default:
		po.transmitNext()
	}
}

// transmitNext pulls the next packet from the queue and models its
// serialization time; delivery happens a propagation delay after the last
// bit leaves.
func (po *Port) transmitNext() {
	now := po.eng.Now()
	p := po.queue.Dequeue(now)
	if po.aud != nil {
		po.auditQueueOp()
		if p != nil {
			po.audInFlight++
		}
	}
	if p == nil {
		po.busy = false
		return
	}
	// Every packet passes Enqueue before reaching here, so EnqueueAt is
	// always stamped (possibly 0 at simulation start).
	sojourn := now - p.EnqueueAt
	if sojourn > 0 {
		po.sojournSum += sojourn
		if sojourn > po.sojournMax {
			po.sojournMax = sojourn
		}
	}
	if po.trc != nil {
		po.trc.Dequeue(int64(now), uint32(p.Flow), int64(po.queue.Bytes()), int64(sojourn))
	}
	tx := units.TransmissionTime(p.Size, po.rate)
	// tx > 0 and a destination put a fused packet on the wire, behind its
	// tx-done key: it is never handed on inside Send, and the run cannot
	// end before that key is reached.
	if po.fused && tx > 0 && po.dst != nil && po.queue.Len() == 0 {
		po.busy, po.owed = false, true
		po.free = po.eng.Reserve(now + sim.Duration(tx))
		po.freeBytes = p.Size
		po.complete(p, po.free.At)
		return
	}
	po.busy = true
	po.txing = p
	po.txTimer.Reset(tx)
}

// portTxDone fires when the last bit of the packet in txing leaves the
// serializer, or when a fused packet's serialization ends with an arrival
// waiting behind it (txing is then nil).
type portTxDone struct{ po *Port }

// OnEvent implements sim.Handler.
func (h *portTxDone) OnEvent(any) {
	po := h.po
	if p := po.txing; p != nil {
		po.txing = nil
		po.complete(p, po.eng.Now())
	}
	po.transmitNext()
}

// complete counts p as transmitted with its last bit leaving at done, then
// destroys it (a flap, injected loss) or starts its propagation. The tx-done
// event calls it at done; a fused port calls it at dequeue, with done ahead
// of the clock.
func (po *Port) complete(p *packet.Packet, done sim.Time) {
	po.txPackets++
	po.txBytes += p.Size
	switch {
	case po.dst == nil:
		// No next element: the port itself is the packet's terminus, so it
		// reports the consumption to keep the global ledger balanced.
		if po.aud != nil {
			po.audInFlight--
			po.audDelivered++
			po.aud.PacketConsumed()
		}
		packet.Release(p)
	case po.down: // carrier dropped while the packet was serializing
		po.downDrops++
		po.lose(p, done, telemetry.DropLinkDown)
	case po.ge.enabled && po.ge.step(po.rng), po.lossRate > 0 && po.rng.Float64() < po.lossRate:
		po.lossDrops++
		po.lose(p, done, telemetry.DropLoss)
	default:
		at := done + sim.Duration(po.delay)
		now := po.eng.Now()
		switch {
		case po.wire.Len() > 0: // FIFO link: p queues behind the wire
			po.wire.PushAt(at, p)
		case at > now:
			// With this port's wire empty, nothing reaches next before p.
			if po.next == nil || !po.next.fold(po, at, p) {
				po.wire.PushAt(at, p)
			}
		default:
			if po.aud != nil {
				po.audInFlight--
				po.audDelivered++
			}
			po.dst.Receive(now, p)
		}
	}
}

// fold takes p, which arrives from the port's only upstream, up, at t1
// with nothing ahead of it on up's wire. If the port is fused and its
// transmitter idle, p would enter a FIFO that holds only folded packets and
// start once the serializer is free at t1 or later, on the fused path; fold
// takes that path now, and the port's trace holds p's arrival and start
// back until the clock reaches them. Otherwise it reports false. Only the
// books something reads move: the audit ledger, the trace, the
// serializer's free key and the counters, which count p from now.
func (po *Port) fold(up *Port, t1 sim.Time, p *packet.Packet) bool {
	tx := units.TransmissionTime(p.Size, po.rate)
	if !po.fused || po.busy || tx <= 0 || p.Size > po.queue.Capacity() {
		return false
	}
	if po.aud != nil { // up and the port share the engine's auditor
		up.audInFlight--
		up.audDelivered++
		po.audOffered++
		po.audInFlight++
	}
	start := max(t1, po.free.At)
	if po.trc != nil {
		po.trc.Pass(int64(t1), int64(start), uint32(p.Flow), int64(p.Size))
	}
	po.free = po.eng.Reserve(start + sim.Duration(tx))
	po.freeBytes = p.Size
	po.txPackets++
	po.txBytes += p.Size
	po.wire.PushAt(po.free.At+sim.Duration(po.delay), p)
	return true
}

// lose destroys p, whose serialization ended at done, on the wire.
func (po *Port) lose(p *packet.Packet, done sim.Time, reason telemetry.Aux) {
	if po.aud != nil {
		po.audInFlight--
	}
	if po.trc != nil {
		po.trc.Drop(int64(done), uint32(p.Flow), reason, int64(p.Size), int64(po.queue.Bytes()))
	}
	packet.Release(p)
}

// portDeliver fires when a packet's propagation delay elapses.
type portDeliver struct{ po *Port }

// OnEvent implements sim.Handler; arg is the delivered *packet.Packet.
func (h *portDeliver) OnEvent(arg any) {
	po := h.po
	p := arg.(*packet.Packet)
	// The next delivery's packet left this port a propagation delay ago and
	// is long out of cache: start loading it while this one is received.
	if nx, ok := po.wire.Head().(*packet.Packet); ok {
		sim.Prefetch(nx)
	}
	if po.aud != nil {
		po.audInFlight--
		po.audDelivered++
	}
	po.dst.Receive(po.eng.Now(), p)
}

// Path is a convenience wrapper: a sequence of ports ending at an endpoint.
type Path struct {
	first Receiver
}

// NewPath chains hops so that packets injected at the head traverse each
// port in order. The last hop must already point at the final endpoint.
func NewPath(hops ...*Port) *Path {
	if len(hops) == 0 {
		return &Path{}
	}
	for i := 0; i < len(hops)-1; i++ {
		hops[i].SetDst(hops[i+1])
	}
	return &Path{first: hops[0]}
}

// Inject starts a packet down the path.
func (pa *Path) Inject(now sim.Time, p *packet.Packet) {
	if pa.first == nil {
		packet.Release(p)
		return
	}
	pa.first.Receive(now, p)
}

// Sink counts and releases everything it receives; useful in tests and as a
// drop target. When Auditor is set, each received packet is reported as
// terminally consumed for the conservation ledger.
type Sink struct {
	Packets uint64
	Bytes   units.ByteSize
	LastAt  sim.Time
	Auditor *audit.Auditor
}

// Receive implements Receiver.
func (s *Sink) Receive(now sim.Time, p *packet.Packet) {
	s.Packets++
	s.Bytes += p.Size
	s.LastAt = now
	if s.Auditor != nil {
		s.Auditor.PacketConsumed()
	}
	packet.Release(p)
}
