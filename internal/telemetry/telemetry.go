// Package telemetry is the simulator's flight recorder: a ring-buffer
// event tracer threaded through sim, tcp, cca, netem, and aqm.
//
// Design constraints, in priority order:
//
//  1. Free when disabled. Every producer holds a *FlowTracer / *PortTracer
//     that is nil when tracing is off, and every emission site is gated on
//     that one nil check — no allocation, no branch beyond the check, and
//     (proven by the alloc guard) no change to the simulation's allocation
//     profile or results.
//  2. Bounded when enabled. All storage is preallocated at attach time:
//     each flow and each port writes typed 32-byte events into its own
//     fixed-capacity ring, overwriting the oldest once full. Steady-state
//     tracing therefore allocates nothing per packet; memory is
//     rings × capacity × 32 bytes, chosen up front.
//  3. Diagnosable after the fact. Rings carry enough (total count, dropped
//     count, sampling factor) to interpret a partial window, and the whole
//     tracer serializes to NDJSON (codec.go) for
//     cmd/timeline and the sweepd trace endpoint. When the invariant
//     auditor raises a Violation, the last FlightTail events of every ring
//     are dumped alongside the structured report.
//
// The package is a leaf: it imports nothing from the repo (times are int64
// nanoseconds mirroring sim.Time, flow IDs are uint32 mirroring
// packet.FlowID), so any layer may depend on it without cycles.
package telemetry

import (
	"sort"
	"strconv"
)

// Kind is the event type. A and B are kind-specific payloads; Aux refines
// drop/mark/fault events with a per-discipline reason.
type Kind uint8

const (
	KindNone       Kind = iota
	KindCwnd            // A=cwnd bytes, B=ssthresh bytes
	KindPacing          // A=pacing rate, bits/s
	KindCCAState        // A=previous state code, B=new state code (index into Dump.States)
	KindInflightHi      // A=new inflight_hi bytes, B=previous inflight_hi bytes
	KindRTT             // A=sample ns, B=smoothed RTT ns
	KindRTO             // A=RTO interval ns, B=consecutive backoff count
	KindEnqueue         // A=queue bytes after, B=queue packets after
	KindDequeue         // A=queue bytes after, B=sojourn ns
	KindDrop            // Aux=reason, A=packet bytes, B=queue bytes at drop
	KindMark            // Aux=reason (ECN), A=packet bytes, B=queue bytes at mark
	KindHiWater         // A=queue bytes high-watermark, B=queue packets high-watermark
	KindFault           // Aux=fault kind, A=value (rate bps, delay ns), B=packets drained
	KindFlowOpen        // A=flow size bytes (open-loop workload arrival)
	KindFlowDone        // A=completion time ns, B=flow size bytes
	kindCount
)

var kindNames = [kindCount]string{
	KindNone:       "none",
	KindCwnd:       "cwnd",
	KindPacing:     "pacing",
	KindCCAState:   "cca_state",
	KindInflightHi: "inflight_hi",
	KindRTT:        "rtt",
	KindRTO:        "rto",
	KindEnqueue:    "enq",
	KindDequeue:    "deq",
	KindDrop:       "drop",
	KindMark:       "mark",
	KindHiWater:    "hiwater",
	KindFault:      "fault",
	KindFlowOpen:   "flow_open",
	KindFlowDone:   "flow_done",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Aux is the reason taxonomy for drop, mark, and fault events. Drop reasons
// are per-discipline: a FIFO tail drop, a RED probabilistic early drop, and
// a CoDel control-law drop are different mechanisms in the paper's fairness
// story and must stay distinguishable in the trace.
type Aux uint8

const (
	AuxNone       Aux = iota
	DropTail          // FIFO (and RED hard-limit) buffer overflow
	DropREDEarly      // RED probabilistic early drop (pa lottery)
	DropREDForced     // RED forced drop (avg above max threshold)
	DropCoDel         // CoDel control-law drop at dequeue
	DropOverlimit     // FQ-CoDel fat-flow eviction / CoDel door drop
	DropLinkDown      // carrier down: arrival or drain during a flap
	DropLoss          // injected stochastic loss (GE chain or uniform)
	MarkRED           // RED ECN mark instead of early drop
	MarkCoDel         // CoDel/FQ-CoDel ECN mark instead of drop
	FaultDown         // carrier went down
	FaultUp           // carrier restored
	FaultRate         // bottleneck rate step (A = new bps)
	FaultDelay        // one-way delay step (A = new ns)
	auxCount
)

var auxNames = [auxCount]string{
	AuxNone:       "",
	DropTail:      "tail",
	DropREDEarly:  "red_early",
	DropREDForced: "red_forced",
	DropCoDel:     "codel",
	DropOverlimit: "overlimit",
	DropLinkDown:  "link_down",
	DropLoss:      "loss",
	MarkRED:       "red_mark",
	MarkCoDel:     "codel_mark",
	FaultDown:     "down",
	FaultUp:       "up",
	FaultRate:     "rate",
	FaultDelay:    "delay",
}

func (a Aux) String() string {
	if int(a) < len(auxNames) {
		return auxNames[a]
	}
	return "invalid"
}

// Event is one trace record: 32 bytes, fixed layout, no pointers — a ring
// of them is a single allocation the GC never scans.
type Event struct {
	At   int64 // simulation time, nanoseconds
	A, B int64 // kind-specific payload
	Flow uint32
	Kind Kind
	Aux  Aux
}

// ring is a fixed-capacity overwrite-oldest event buffer.
type ring struct {
	ev    []Event
	total uint64 // events ever written; ev[total%cap] is the next slot
}

func (r *ring) put(e Event) {
	r.ev[r.total%uint64(len(r.ev))] = e
	r.total++
}

// snapshot appends the ring's contents, oldest first, to buf.
func (r *ring) snapshot(buf []Event) []Event {
	n := uint64(len(r.ev))
	if r.total < n {
		n = r.total
	}
	for i := r.total - n; i < r.total; i++ {
		buf = append(buf, r.ev[i%uint64(len(r.ev))])
	}
	return buf
}

// Options size the tracer. The zero value is usable: defaults are applied
// by New.
type Options struct {
	// RingCap is the per-flow and per-port ring capacity in events
	// (default 4096; 32 bytes each, so the default ring is 128 KiB).
	RingCap int
	// SampleN records 1 in N high-rate events (cwnd/pacing/RTT updates,
	// enqueues, dequeues). Default 1 = full fidelity. Drops, marks, CCA
	// state transitions, inflight_hi moves, RTOs, high-watermarks, and
	// fault transitions are always recorded regardless of SampleN.
	SampleN int
	// FlightTail is how many trailing events per ring a flight-recorder
	// dump (TailNDJSON) includes when the auditor raises a Violation
	// (default 64).
	FlightTail int
}

func (o Options) withDefaults() Options {
	if o.RingCap <= 0 {
		o.RingCap = 4096
	}
	if o.SampleN <= 0 {
		o.SampleN = 1
	}
	if o.FlightTail <= 0 {
		o.FlightTail = 64
	}
	return o
}

// Tracer owns the per-flow and per-port rings for one simulation run. It is
// attached to the engine before topology construction (mirroring the
// auditor); components discover it at construction time and hold their own
// FlowTracer/PortTracer, so the per-event path never touches the Tracer.
// Not safe for concurrent use — the simulator is single-threaded by design.
type Tracer struct {
	opt   Options
	flows []*FlowTracer
	ports []*PortTracer

	// CCA state names are interned once per distinct string; events carry
	// the small integer code so recording a state transition is two integer
	// stores, not a string.
	states     []string
	stateCodes map[string]int64

	clock func() int64 // the simulation time (see SetClock)
}

// New returns a Tracer with the given options (zero values take defaults).
func New(opt Options) *Tracer {
	return &Tracer{
		opt:        opt.withDefaults(),
		stateCodes: make(map[string]int64),
	}
}

// SetClock installs the simulation clock passes wait for (see Pass).
func (t *Tracer) SetClock(fn func() int64) { t.clock = fn }

// Flow allocates the ring for one flow and returns its tracer. label is the
// flow's congestion-control name, carried into the dump for rendering.
func (t *Tracer) Flow(id uint32, label string) *FlowTracer {
	f := &FlowTracer{
		t:         t,
		id:        id,
		label:     label,
		sampleN:   uint32(t.opt.SampleN),
		lastState: -1,
	}
	f.ring.ev = make([]Event, t.opt.RingCap)
	t.flows = append(t.flows, f)
	return f
}

// Port allocates the ring for one netem port and returns its tracer.
func (t *Tracer) Port(name string) *PortTracer {
	p := &PortTracer{t: t, name: name, sampleN: uint32(t.opt.SampleN)}
	p.ring.ev = make([]Event, t.opt.RingCap)
	t.ports = append(t.ports, p)
	return p
}

func (t *Tracer) stateCode(name string) int64 {
	if c, ok := t.stateCodes[name]; ok {
		return c
	}
	c := int64(len(t.states))
	t.states = append(t.states, name)
	t.stateCodes[name] = c
	return c
}

// StateName resolves a CCA state code from a trace back to its name.
func (t *Tracer) StateName(code int64) string {
	if code >= 0 && code < int64(len(t.states)) {
		return t.states[code]
	}
	return "?"
}

// FlowTracer records one flow's congestion-control dynamics into its ring.
// All methods are nil-receiver-safe, so a disabled run (nil tracer) costs
// exactly the nil check at each gated call site.
type FlowTracer struct {
	t     *Tracer
	id    uint32
	label string
	ring  ring

	sampleN uint32
	nth     uint32 // shared 1-in-N counter for the sampled kinds

	lastCwnd   int64
	lastSS     int64
	lastPacing int64
	lastState  int64
}

// sample implements the 1-in-N decimation for high-rate kinds.
func (f *FlowTracer) sample() bool {
	f.nth++
	return f.nth%f.sampleN == 0
}

// Cwnd records a congestion-window / ssthresh update. Unchanged values are
// deduplicated before the sampling counter advances.
func (f *FlowTracer) Cwnd(at int64, cwnd, ssthresh int64) {
	if f == nil || (cwnd == f.lastCwnd && ssthresh == f.lastSS) {
		return
	}
	f.lastCwnd, f.lastSS = cwnd, ssthresh
	if !f.sample() {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindCwnd, A: cwnd, B: ssthresh})
}

// Pacing records a pacing-rate update in bits/s, deduplicated and sampled.
func (f *FlowTracer) Pacing(at int64, rateBps int64) {
	if f == nil || rateBps == f.lastPacing {
		return
	}
	f.lastPacing = rateBps
	if !f.sample() {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindPacing, A: rateBps})
}

// CCAState records a congestion-control state transition (e.g. BBR
// startup→drain, probe_bw:down→probe_bw:cruise). The name is interned;
// repeat calls with the unchanged state are free after the nil check and
// one map lookup is avoided entirely for them only when the caller
// deduplicates — callers may instead call unconditionally per ACK, since
// the intern table lookup does not allocate and unchanged states return
// before touching the ring.
func (f *FlowTracer) CCAState(at int64, state string) {
	if f == nil {
		return
	}
	code := f.t.stateCode(state)
	if code == f.lastState {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindCCAState, A: f.lastState, B: code})
	f.lastState = code
}

// InflightHi records a BBRv2 inflight_hi move (loss-driven cut, probe
// raise, or RTO collapse). Always recorded.
func (f *FlowTracer) InflightHi(at int64, hi, prev int64) {
	if f == nil || hi == prev {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindInflightHi, A: hi, B: prev})
}

// RTT records a round-trip sample and the resulting smoothed RTT, sampled.
func (f *FlowTracer) RTT(at int64, sampleNS, srttNS int64) {
	if f == nil || !f.sample() {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindRTT, A: sampleNS, B: srttNS})
}

// RTO records a retransmission-timeout fire. Always recorded — RTOs are
// rare and carry most of the diagnosis weight in a stall.
func (f *FlowTracer) RTO(at int64, rtoNS int64, backoff int64) {
	if f == nil {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindRTO, A: rtoNS, B: backoff})
}

// FlowOpen records an open-loop flow arrival with its transfer size.
// Always recorded — arrivals are rare relative to packets and define the
// workload timeline.
func (f *FlowTracer) FlowOpen(at int64, sizeBytes int64) {
	if f == nil {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindFlowOpen, A: sizeBytes})
}

// FlowComplete records an open-loop flow finishing its transfer: the
// completion time and the bytes moved. Always recorded.
func (f *FlowTracer) FlowComplete(at int64, fctNS, sizeBytes int64) {
	if f == nil {
		return
	}
	f.ring.put(Event{At: at, Flow: f.id, Kind: KindFlowDone, A: fctNS, B: sizeBytes})
}

// PortTracer records one port's queue dynamics into its ring. Methods are
// nil-receiver-safe. The high-watermark is folded into Enqueue: a new
// maximum emits a KindHiWater event (monotone, so bounded by the maximum
// occupancy ever reached, not by traffic volume).
type PortTracer struct {
	t    *Tracer
	name string
	ring ring

	sampleN uint32
	nth     uint32

	hiBytes int64
	hiPkts  int64

	// passes[deq:] have not started and passes[enq:] have not arrived by
	// the clock (see Pass); passes[deq:enq] is the backlog they form,
	// holding qBytes. lastStart is the start of the latest pass.
	passes    []pass
	deq, enq  int
	qBytes    int64
	lastStart int64
}

// pass is one packet crossing a port's queue ahead of the clock.
type pass struct {
	at, start int64 // arrival and serialization start
	flow      uint32
	bytes     int64
	recorded  int64 // the clock when Pass recorded it, which schedules its arrival
	// keyed is when the event it starts in was scheduled: at the start of
	// the packet ahead if it waited, else -1 (it starts on its own
	// arrival, scheduled before any later pass's).
	keyed int64
}

func (p *PortTracer) sample() bool {
	p.nth++
	return p.nth%p.sampleN == 0
}

// Enqueue records a packet accepted into the queue, with the post-enqueue
// occupancy; sampled, except that a new occupancy high-watermark is always
// recorded (as its own event) even when the enqueue itself is decimated.
func (p *PortTracer) Enqueue(at int64, flow uint32, qBytes, qPkts int64) {
	if p == nil {
		return
	}
	p.settle(at)
	p.enqueue(at, flow, qBytes, qPkts)
}

func (p *PortTracer) enqueue(at int64, flow uint32, qBytes, qPkts int64) {
	if qBytes > p.hiBytes {
		p.hiBytes = qBytes
		if qPkts > p.hiPkts {
			p.hiPkts = qPkts
		}
		p.ring.put(Event{At: at, Flow: flow, Kind: KindHiWater, A: p.hiBytes, B: p.hiPkts})
	} else if qPkts > p.hiPkts {
		p.hiPkts = qPkts
	}
	if !p.sample() {
		return
	}
	p.ring.put(Event{At: at, Flow: flow, Kind: KindEnqueue, A: qBytes, B: qPkts})
}

// Dequeue records a packet leaving the queue for transmission, with the
// post-dequeue occupancy and the packet's sojourn time; sampled.
func (p *PortTracer) Dequeue(at int64, flow uint32, qBytes, sojournNS int64) {
	if p == nil {
		return
	}
	p.settle(at)
	p.dequeue(at, flow, qBytes, sojournNS)
}

func (p *PortTracer) dequeue(at int64, flow uint32, qBytes, sojournNS int64) {
	if p.sample() {
		p.ring.put(Event{At: at, Flow: flow, Kind: KindDequeue, A: qBytes, B: sojournNS})
	}
}

// Pass records, ahead of the clock, a packet that reaches the port's
// queue at at and leaves it at start, behind only earlier passes: its
// Enqueue at at and its Dequeue at start each enter the ring once the
// clock reaches them, as if they had been recorded then, with the backlog
// the passes form. Of an arrival and a start at one instant, the one whose
// event was scheduled first is recorded first, as the engine would have
// run them.
func (p *PortTracer) Pass(at, start int64, flow uint32, pktBytes int64) {
	if p == nil {
		return
	}
	now := p.t.clock()
	p.settle(now)
	keyed := int64(-1)
	if start > at {
		keyed = p.lastStart
	}
	p.lastStart = start
	p.passes = append(p.passes, pass{at: at, start: start, flow: flow, bytes: pktBytes, recorded: now, keyed: keyed})
}

// settleNow records every pass event the clock has reached.
func (p *PortTracer) settleNow() {
	if p.deq < len(p.passes) {
		p.settle(p.t.clock())
	}
}

// settle records every pass event due by at, in the order the queue would
// have seen them.
func (p *PortTracer) settle(at int64) {
	for p.deq < len(p.passes) {
		d := &p.passes[p.deq]
		if p.enq < len(p.passes) {
			if e := &p.passes[p.enq]; p.enq == p.deq || e.at < d.start || e.at == d.start && d.keyed > e.recorded {
				if e.at > at {
					break
				}
				p.enq++
				p.qBytes += e.bytes
				p.enqueue(e.at, e.flow, p.qBytes, int64(p.enq-p.deq))
				continue
			}
		}
		if d.start > at {
			break
		}
		p.deq++
		p.qBytes -= d.bytes
		p.dequeue(d.start, d.flow, p.qBytes, d.start-d.at)
	}
	if p.deq > len(p.passes)/2 {
		n := copy(p.passes, p.passes[p.deq:])
		p.passes, p.deq, p.enq = p.passes[:n], 0, p.enq-p.deq
	}
}

// Drop records a packet drop with its per-discipline reason. Always
// recorded.
func (p *PortTracer) Drop(at int64, flow uint32, reason Aux, pktBytes, qBytes int64) {
	if p == nil {
		return
	}
	p.settle(at)
	p.ring.put(Event{At: at, Flow: flow, Kind: KindDrop, Aux: reason, A: pktBytes, B: qBytes})
}

// Mark records an ECN mark with its discipline. Always recorded.
func (p *PortTracer) Mark(at int64, flow uint32, reason Aux, pktBytes, qBytes int64) {
	if p == nil {
		return
	}
	p.settle(at)
	p.ring.put(Event{At: at, Flow: flow, Kind: KindMark, Aux: reason, A: pktBytes, B: qBytes})
}

// Fault records a link fault transition (carrier down/up, rate step, delay
// step). Always recorded.
func (p *PortTracer) Fault(at int64, kind Aux, a, b int64) {
	if p == nil {
		return
	}
	p.settle(at)
	p.ring.put(Event{At: at, Kind: KindFault, Aux: kind, A: a, B: b})
}

// Peak returns the port's occupancy high-watermark seen by the tracer.
func (p *PortTracer) Peak() (bytes, pkts int64) {
	if p == nil {
		return 0, 0
	}
	p.settleNow()
	return p.hiBytes, p.hiPkts
}

// Dump is the serializable snapshot of a tracer: the interned CCA state
// table plus every ring's metadata and surviving events (oldest first).
// It is what the codecs encode and what cmd/timeline renders.
type Dump struct {
	V      int        `json:"v"`
	States []string   `json:"states"`
	Rings  []RingDump `json:"rings,omitempty"`
}

// RingDump is one ring's snapshot. Total counts events ever written;
// Dropped = Total - len(Events) is how many the ring overwrote, so a reader
// knows whether it is looking at the whole run or a trailing window.
type RingDump struct {
	Name    string  `json:"ring"`
	Kind    string  `json:"kind"` // "flow" or "port"
	Label   string  `json:"label,omitempty"`
	Cap     int     `json:"cap"`
	SampleN int     `json:"sample_n"`
	Total   uint64  `json:"total"`
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"-"` // serialized as individual NDJSON lines
}

// Dump snapshots every ring, flows first (by attach order, which is flow-ID
// order under the dumbbell topology), then ports.
func (t *Tracer) Dump() *Dump { return t.dump(0) }

// dump snapshots the tracer; tail > 0 limits each ring to its trailing
// tail events (the flight-recorder window).
func (t *Tracer) dump(tail int) *Dump {
	d := &Dump{V: 1, States: t.states}
	if d.States == nil {
		d.States = []string{}
	}
	for _, f := range t.flows {
		d.Rings = append(d.Rings, snapshotRing(
			"flow:"+strconv.FormatUint(uint64(f.id), 10), "flow", f.label, &f.ring, t.opt.SampleN, tail))
	}
	// Attach order for ports follows topology construction; sort by name so
	// dumps are stable even if construction order changes.
	ports := make([]*PortTracer, len(t.ports))
	copy(ports, t.ports)
	sort.Slice(ports, func(i, j int) bool { return ports[i].name < ports[j].name })
	for _, p := range ports {
		p.settleNow()
		d.Rings = append(d.Rings, snapshotRing(
			"port:"+p.name, "port", "", &p.ring, t.opt.SampleN, tail))
	}
	return d
}

func snapshotRing(name, kind, label string, r *ring, sampleN, tail int) RingDump {
	rd := RingDump{
		Name:    name,
		Kind:    kind,
		Label:   label,
		Cap:     len(r.ev),
		SampleN: sampleN,
		Total:   r.total,
	}
	rd.Events = r.snapshot(nil)
	rd.Dropped = rd.Total - uint64(len(rd.Events))
	if tail > 0 && len(rd.Events) > tail {
		rd.Events = rd.Events[len(rd.Events)-tail:]
	}
	if rd.Events == nil {
		rd.Events = []Event{}
	}
	return rd
}
