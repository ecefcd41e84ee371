package topo

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Params are the grid-swept quantities a Spec's role defaults resolve
// against: the bottleneck rate and AQM under test, the end-to-end RTT the
// per-link delay fractions scale, and the shared edge/core rates. Zero
// values select the paper's setup (25 Gbps edges, 100 Gbps core, 62 ms).
type Params struct {
	Bottleneck units.Bandwidth
	RTT        time.Duration
	// Queue configures every bottleneck-role link without an explicit queue
	// override — the grid's AQM axis.
	Queue  aqm.Config
	EdgeBW units.Bandwidth
	CoreBW units.Bandwidth
	// PathLoss arms uniform loss on links marked ConfigLoss.
	PathLoss float64
	// Faults is armed on the monitor link after construction, exactly where
	// the hand-wired dumbbell applied its fault profile.
	Faults *faults.Profile
}

func (p *Params) defaults() error {
	if p.Bottleneck <= 0 {
		return fmt.Errorf("topo: Bottleneck must be positive")
	}
	if p.EdgeBW <= 0 {
		p.EdgeBW = 25 * units.GigabitPerSec
	}
	if p.CoreBW <= 0 {
		p.CoreBW = 100 * units.GigabitPerSec
	}
	if p.RTT <= 0 {
		p.RTT = 62 * time.Millisecond
	}
	if p.Queue.Capacity <= 0 {
		p.Queue.Capacity = units.QueueBytes(p.Bottleneck, p.RTT, 1, 8960)
	}
	return nil
}

// hop is one demultiplexing point along a class's route: at flow-attach
// time the flow registers itself in d, bound to next (or to its terminal
// endpoint when next is nil).
type hop struct {
	d    *Demux
	next netem.Receiver // nil = route ends past this link
}

// class is one instantiated sender class.
type class struct {
	spec    SenderSpec
	fwd     *netem.Port          // injection port for data (Path[0])
	ret     *netem.Port          // injection port for ACKs (Return[0])
	sendFwd func(*packet.Packet) // fwd.Send, bound once for every flow's sender
	sendRet func(*packet.Packet) // ret.Send, bound once for every flow's receiver
	fwdHops []hop
	retHops []hop
	flows   []*Flow
}

// Network is a Spec instantiated on an engine: one netem port per link
// (wired with audit conservation probes and telemetry rings exactly as the
// legacy dumbbell was), static per-class routing, and named attachment
// points for tcp endpoints via AddFlow.
type Network struct {
	Eng  *sim.Engine
	Spec Spec   // normalized
	Par  Params // resolved (defaults filled)

	ports   []*netem.Port // in Spec.Links order
	rates   []units.Bandwidth
	portIdx map[string]int
	monitor *netem.Port

	classes []*class
	flows   []*Flow
	nextID  packet.FlowID

	// pool is the run's packet allocator: every endpoint attach builds
	// draws from it, and every release site returns to it.
	pool *packet.Pool
	// ccs is the run's controller factory (see Controllers).
	ccs cca.Factory
	// free holds released ephemeral flows, most recent last, whose Flow,
	// Conn and Receiver AddEphemeralFlow re-initialises in place.
	free []*Flow
}

// Build instantiates spec on eng. Routing is resolved statically per link:
// when every class crossing a link continues to the same next link, the
// port chains to it directly (the zero-overhead fast path — the dumbbell
// resolves entirely to direct chains plus its two terminal demuxes);
// otherwise the link gets a per-flow demux filled in by AddFlow. Ports are
// created in Spec.Links order, which fixes per-port RNG derivation and
// telemetry ring order — the spec's link order is part of reproducibility.
func Build(eng *sim.Engine, spec Spec, par Params) (*Network, error) {
	if err := par.defaults(); err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Eng:     eng,
		Spec:    spec,
		Par:     par,
		ports:   make([]*netem.Port, len(spec.Links)),
		rates:   make([]units.Bandwidth, len(spec.Links)),
		portIdx: make(map[string]int, len(spec.Links)),
		pool:    packet.NewPool(eng.Auditor()),
	}
	for i, l := range spec.Links {
		n.portIdx[l.Name] = i
	}
	if aud := eng.Auditor(); aud != nil {
		// Every packet out of the pool is still inside a network element:
		// endpoints hold none between events, so one released nowhere leaked.
		aud.OnFinish("packet", "pool-balance", func() error {
			if out, res := int64(n.pool.Out()), aud.Resident(); out != res {
				return fmt.Errorf("%d packets out of the pool, %d resident in the network", out, res)
			}
			return nil
		})
	}

	// Continuation analysis: the set of next links (or terminal, "") each
	// link feeds across every class route.
	nexts := make([]map[string]bool, len(spec.Links))
	for i := range nexts {
		nexts[i] = map[string]bool{}
	}
	noteRoute := func(route []string) {
		for i, name := range route {
			next := ""
			if i+1 < len(route) {
				next = route[i+1]
			}
			nexts[n.portIdx[name]][next] = true
		}
	}
	for _, sd := range spec.Senders {
		noteRoute(sd.Path)
		noteRoute(sd.Return)
	}

	for i, l := range spec.Links {
		rate := n.linkRate(l)
		queue, err := n.linkQueue(l, rate)
		if err != nil {
			return nil, fmt.Errorf("topo: link %q: %w", l.Name, err)
		}
		po := netem.NewPort(eng, l.Name, rate, n.linkDelay(l), queue, nil)
		if loss := combinedLoss(l, par); loss > 0 {
			po.SetLoss(loss)
		}
		n.ports[i] = po
		n.rates[i] = rate
	}

	// Wire destinations; links with a terminal or divergent continuation
	// set get a per-flow demux.
	demuxes := make([]*Demux, len(spec.Links))
	for i := range spec.Links {
		nx := nexts[i]
		if len(nx) == 0 {
			continue // unused by any route: never carries traffic
		}
		if len(nx) == 1 {
			var only string
			for k := range nx {
				only = k
			}
			if only != "" {
				n.ports[i].SetDst(n.ports[n.portIdx[only]])
				continue
			}
		}
		d := NewDemux()
		d.aud = eng.Auditor()
		demuxes[i] = d
		n.ports[i].SetDst(d)
	}

	// Resolve each class's attachment ports and demux registration points.
	for _, sd := range spec.Senders {
		cl := &class{
			spec: sd,
			fwd:  n.ports[n.portIdx[sd.Path[0]]],
			ret:  n.ports[n.portIdx[sd.Return[0]]],
		}
		collect := func(route []string) []hop {
			var hops []hop
			for i, name := range route {
				d := demuxes[n.portIdx[name]]
				if d == nil {
					continue
				}
				var next netem.Receiver
				if i+1 < len(route) {
					next = n.ports[n.portIdx[route[i+1]]]
				}
				hops = append(hops, hop{d: d, next: next})
			}
			return hops
		}
		cl.sendFwd, cl.sendRet = cl.fwd.Send, cl.ret.Send
		cl.fwdHops = collect(sd.Path)
		cl.retHops = collect(sd.Return)
		n.classes = append(n.classes, cl)
	}

	n.monitor = n.ports[n.portIdx[spec.monitorLink()]]

	// Per-link fault timelines, then the grid profile on the monitor link —
	// the same position in construction order where the hand-wired dumbbell
	// applied its fault profile.
	for i, l := range spec.Links {
		faults.Apply(eng, n.ports[i], l.Faults)
	}
	faults.Apply(eng, n.monitor, par.Faults)
	return n, nil
}

// linkRate resolves a link's rate: explicit, factor × bottleneck, or the
// role default.
func (n *Network) linkRate(l LinkSpec) units.Bandwidth {
	if l.Rate > 0 {
		return l.Rate
	}
	if l.RateFactor > 0 {
		r := units.Bandwidth(float64(n.Par.Bottleneck) * l.RateFactor)
		if r < 1 {
			r = 1
		}
		return r
	}
	switch l.Role {
	case RoleBottleneck:
		return n.Par.Bottleneck
	case RoleEdge:
		return n.Par.EdgeBW
	default:
		return n.Par.CoreBW
	}
}

// linkDelay resolves a link's one-way propagation delay.
func (n *Network) linkDelay(l LinkSpec) time.Duration {
	if l.Delay > 0 {
		return l.Delay
	}
	if l.DelayRTTFrac > 0 {
		return time.Duration(float64(n.Par.RTT) * l.DelayRTTFrac)
	}
	return 0
}

// linkQueue resolves a link's queue discipline. Bottleneck-role links
// without an override carry the grid AQM under test (with the calibration
// the hand-wired dumbbell historically applied); edge links get the deep
// injection FIFO; core links return nil and let netem substitute its
// effectively unbounded default.
func (n *Network) linkQueue(l LinkSpec, rate units.Bandwidth) (aqm.Queue, error) {
	if l.Queue == nil {
		switch l.Role {
		case RoleBottleneck:
			return aqm.New(calibrate(n.Par.Queue, rate, n.Par.RTT))
		case RoleEdge:
			return aqm.NewFIFO(1 << 34), nil
		default:
			return nil, nil
		}
	}
	qs := l.Queue
	kind := aqm.Kind(qs.Kind)
	if qs.Kind != "" {
		var err error
		if kind, err = aqm.ParseKind(qs.Kind); err != nil {
			return nil, err
		}
	}
	capacity := qs.Capacity
	if capacity <= 0 {
		mult := qs.BDP
		if mult <= 0 {
			mult = 1
		}
		capacity = units.QueueBytes(rate, n.Par.RTT, mult, 8960)
	}
	cfg := aqm.Config{
		Kind:     kind,
		Capacity: capacity,
		ECN:      qs.ECN || n.Par.Queue.ECN,
		RED:      aqm.REDParams{Seed: n.Par.Queue.RED.Seed},
		FQCoDel:  aqm.FQCoDelParams{Perturb: n.Par.Queue.FQCoDel.Perturb},
	}
	return aqm.New(calibrate(cfg, rate, n.Par.RTT))
}

// calibrate applies the paper-deliberate queue calibration to a resolved
// link: RED thresholds fixed at half the link BDP capped at 400 KB (the
// "never rescaled for high-BW links" behaviour the paper observes), RED's
// idle-decay packet time from the link's own egress rate, max_p 1%, and
// fq_codel's Linux 32 MB memory_limit clamp.
func calibrate(q aqm.Config, rate units.Bandwidth, rtt time.Duration) aqm.Config {
	if q.Kind == aqm.KindRED {
		if q.RED.MaxTh <= 0 {
			q.RED.MaxTh = units.BDP(rate, rtt) / 2
			if q.RED.MaxTh > 400_000 {
				q.RED.MaxTh = 400_000
			}
		}
		if q.RED.MinTh <= 0 {
			q.RED.MinTh = q.RED.MaxTh / 3
		}
		if q.RED.MeanPktTime <= 0 {
			q.RED.MeanPktTime = units.TransmissionTime(8960, rate)
		}
		if q.RED.MaxP <= 0 {
			q.RED.MaxP = 0.01
		}
	}
	if q.Kind == aqm.KindFQCoDel && q.Capacity > 32*units.Megabyte {
		q.Capacity = 32 * units.Megabyte
	}
	return q
}

// combinedLoss merges a link's own loss rate with the grid PathLoss on the
// ConfigLoss-marked link (independent processes compose as complements).
func combinedLoss(l LinkSpec, par Params) float64 {
	loss := l.PathLoss
	if l.ConfigLoss && par.PathLoss > 0 {
		loss = 1 - float64((1-loss)*(1-par.PathLoss)) // rounded product: never fused
	}
	return loss
}

// AddFlow attaches a flow to sender class ci: a tcp.Conn injecting into
// the class's first forward link, a receiver past its last, and per-flow
// demux registrations at every divergence point along both routes. The
// flow is not started; call Flow.Conn.Start (or schedule it).
func (n *Network) AddFlow(ci int, tcpCfg tcp.Config, cc tcp.CongestionControl) *Flow {
	f := n.attach(ci, tcpCfg, cc, nil)
	n.classes[ci].flows = append(n.classes[ci].flows, f)
	n.flows = append(n.flows, f)
	return f
}

// AddEphemeralFlow attaches a short-lived flow to class ci — same wiring
// and flow-ID sequence as AddFlow, but the flow is not recorded in the
// class or network flow lists: class goodput, retransmit totals, and
// fairness indices stay scoped to the long-running flows, and the caller
// (the open-loop workload runner) owns the flow's lifecycle and must
// ReleaseFlow it when done. The Flow, its Conn and its Receiver are those
// of a flow released at an earlier event when there is one, re-initialised
// in place to read exactly as freshly built ones; the flow ID is always
// fresh.
func (n *Network) AddEphemeralFlow(ci int, tcpCfg tcp.Config, cc tcp.CongestionControl) *Flow {
	return n.attach(ci, tcpCfg, cc, n.reusable())
}

// ReleaseFlow detaches a flow attached by AddEphemeralFlow: its demux
// registrations along both routes are removed, the sender's timers are
// cancelled, and the receiver is closed. Packets of the flow still in
// flight drain to the demux unknown-flow path (consumed + released), so
// the audit ledger settles no matter when in the transfer this is called.
// The caller must not touch f afterwards: a later AddEphemeralFlow may
// recycle it. ReleaseFlow may run inside the flow's own completion
// callback; the flow is not recycled before a later event.
func (n *Network) ReleaseFlow(f *Flow) {
	if f.free {
		panic(fmt.Sprintf("topo: flow %d released twice", f.ID))
	}
	cl := n.classes[f.Sender]
	for _, h := range cl.fwdHops {
		h.d.Unregister(f.ID)
	}
	for _, h := range cl.retHops {
		h.d.Unregister(f.ID)
	}
	f.Conn.Stop()
	f.Rcv.Close()
	f.free, f.released = true, n.Eng.Executed()
	n.free = append(n.free, f)
}

// reusable takes the most recently released flow that was released at an
// earlier event than the current one (so its Conn.Receive, which runs the
// completion callback that released it, has returned), or returns nil.
func (n *Network) reusable() *Flow {
	now := n.Eng.Executed()
	for i := len(n.free) - 1; i >= 0; i-- {
		if f := n.free[i]; f.released != now {
			n.free = append(n.free[:i], n.free[i+1:]...)
			return f
		}
	}
	return nil
}

// attach wires a flow with a fresh ID into class ci, re-initialising slot
// in place when it is non-nil.
func (n *Network) attach(ci int, tcpCfg tcp.Config, cc tcp.CongestionControl, slot *Flow) *Flow {
	if ci < 0 || ci >= len(n.classes) {
		panic(fmt.Sprintf("topo: sender class must be 0..%d, got %d", len(n.classes)-1, ci))
	}
	cl := n.classes[ci]
	n.nextID++
	id := n.nextID

	var conn *tcp.Conn
	var rcv *tcp.Receiver
	if slot != nil {
		conn, rcv = slot.Conn, slot.Rcv
		conn.Reinit(id, tcpCfg, cc, cl.sendFwd)
		rcv.Reinit(id, tcpCfg.Header, tcpCfg.DelayedAck, cl.sendRet)
	} else {
		slot = new(Flow)
		conn = tcp.NewConn(n.Eng, id, tcpCfg, cc, cl.sendFwd)
		mkRcv := tcp.NewReceiver
		if tcpCfg.DelayedAck {
			mkRcv = tcp.NewDelayedAckReceiver
		}
		rcv = mkRcv(n.Eng, id, tcpCfg.Header, cl.sendRet)
	}
	conn.UsePool(n.pool)
	rcv.UsePool(n.pool)
	for _, h := range cl.fwdHops {
		if h.next != nil {
			h.d.Register(id, h.next)
		} else {
			h.d.Register(id, rcv)
		}
	}
	for _, h := range cl.retHops {
		if h.next != nil {
			h.d.Register(id, h.next)
		} else {
			h.d.Register(id, conn)
		}
	}

	*slot = Flow{ID: id, Sender: ci, Conn: conn, Rcv: rcv, CCName: cc.Name()}
	return slot
}

// Controllers returns the run's controller factory: the long-running flows
// and the open-loop runner build their controllers through it, and the
// runner hands each finished flow's controller back.
func (n *Network) Controllers() *cca.Factory { return &n.ccs }

// NumClasses returns how many sender classes the spec declares.
func (n *Network) NumClasses() int { return len(n.classes) }

// ClassSpec returns the declaration of class ci.
func (n *Network) ClassSpec(ci int) SenderSpec { return n.classes[ci].spec }

// Flows returns all attached flows.
func (n *Network) Flows() []*Flow { return n.flows }

// ClassFlows returns the flows attached to class ci.
func (n *Network) ClassFlows(ci int) []*Flow { return n.classes[ci].flows }

// ClassGoodput returns the cumulative contiguous bytes received across a
// class's flows — the per-sender throughput numerator.
func (n *Network) ClassGoodput(ci int) int64 {
	var total int64
	for _, f := range n.classes[ci].flows {
		total += f.Rcv.Goodput()
	}
	return total
}

// ClassRetransmits returns total retransmitted segments for one class.
func (n *Network) ClassRetransmits(ci int) uint64 {
	var total uint64
	for _, f := range n.classes[ci].flows {
		total += f.Conn.Stats().Retransmits
	}
	return total
}

// TotalRetransmits sums retransmissions across all flows.
func (n *Network) TotalRetransmits() uint64 {
	var total uint64
	for _, f := range n.flows {
		total += f.Conn.Stats().Retransmits
	}
	return total
}

// Monitor returns the monitor link's port — the "bottleneck" of the
// legacy single-bottleneck result fields.
func (n *Network) Monitor() *netem.Port { return n.monitor }

// MonitorName returns the monitor link's name.
func (n *Network) MonitorName() string { return n.Spec.monitorLink() }

// MonitorClasses returns the indices of non-background classes whose
// forward path crosses the monitor link — the classes the legacy
// utilization figure aggregates.
func (n *Network) MonitorClasses() []int {
	mon := n.Spec.monitorLink()
	var out []int
	for i, cl := range n.classes {
		for _, name := range cl.spec.Path {
			if name == mon {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Port returns the named link's port, or nil.
func (n *Network) Port(name string) *netem.Port {
	if i, ok := n.portIdx[name]; ok {
		return n.ports[i]
	}
	return nil
}

// Ports returns every port in spec link order.
func (n *Network) Ports() []*netem.Port { return n.ports }

// PortRate returns the resolved construction-time rate of port i — the
// utilization denominator even after BW-step faults mutate the live rate.
func (n *Network) PortRate(i int) units.Bandwidth { return n.rates[i] }

// ReportPorts returns the indices of links worth reporting per-port
// results for: bottleneck-role links, links with an explicit queue
// override, and the monitor link.
func (n *Network) ReportPorts() []int {
	mon := n.Spec.monitorLink()
	var out []int
	for i, l := range n.Spec.Links {
		if l.Role == RoleBottleneck || l.Queue != nil || l.Name == mon {
			out = append(out, i)
		}
	}
	return out
}
