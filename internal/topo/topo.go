// Package topo models experimental network topologies as declarative
// graphs. A Spec describes nodes, unidirectional links (rate, delay, queue
// discipline, loss, faults) and static per-class routes; Build instantiates
// it on a sim.Engine as netem ports wired with audit conservation probes
// and telemetry rings, returning named attachment points for tcp endpoints.
//
// The paper's own setup (Fig. 1) — a dumbbell of two traffic-generating
// client nodes (Clemson), two routers (Washington, NCSA) whose interconnect
// is the bottleneck carrying the AQM under test, and two server nodes
// (TACC) at a 62 ms end-to-end RTT — is the DumbbellSpec preset, and
// NewDumbbell remains as a thin compatibility wrapper that builds it.
// ParkingLotSpec, ReversePathSpec and CrossTrafficSpec extend the family to
// the multi-bottleneck scenarios where fairness conclusions change.
package topo

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Config describes the dumbbell. Zero values select the paper's setup.
type Config struct {
	BottleneckBW units.Bandwidth // router1→router2 rate (the tc-limited link)
	EdgeBW       units.Bandwidth // client/server NIC rate (default 25 Gbps)
	CoreBW       units.Bandwidth // router2→servers and reverse core (default 100 Gbps)
	RTT          time.Duration   // end-to-end round trip (default 62 ms)
	Queue        aqm.Config      // bottleneck queue discipline + capacity

	// PathLoss injects uniform random loss on the forward core segment
	// (router2→servers), after the bottleneck queue — the "variable rates
	// of packet loss" anomaly from the paper's future-work section.
	PathLoss float64

	// Faults, when non-nil, arms a deterministic fault timeline (bursty
	// loss, link flaps, bandwidth/RTT steps) on the bottleneck port.
	Faults *faults.Profile
}

func (cfg *Config) defaults() error {
	if cfg.BottleneckBW <= 0 {
		return fmt.Errorf("topo: BottleneckBW must be positive")
	}
	if cfg.EdgeBW <= 0 {
		cfg.EdgeBW = 25 * units.GigabitPerSec
	}
	if cfg.CoreBW <= 0 {
		cfg.CoreBW = 100 * units.GigabitPerSec
	}
	if cfg.RTT <= 0 {
		cfg.RTT = 62 * time.Millisecond
	}
	if cfg.Queue.Capacity <= 0 {
		cfg.Queue.Capacity = units.QueueBytes(cfg.BottleneckBW, cfg.RTT, 1, 8960)
	}
	return nil
}

// Demux routes packets to per-flow endpoints at divergence points of the
// graph (route forks and network edges).
type Demux struct {
	m map[packet.FlowID]netem.Receiver

	// aud, when non-nil, reports packets released for an unknown flow as
	// terminally consumed, keeping the conservation ledger balanced (matched
	// packets are consumed by the endpoint they are handed to).
	aud *audit.Auditor
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux { return &Demux{m: make(map[packet.FlowID]netem.Receiver)} }

// Register binds a flow to an endpoint.
func (d *Demux) Register(id packet.FlowID, r netem.Receiver) { d.m[id] = r }

// Unregister removes a flow's binding. Packets for the flow still in
// flight fall to the unknown-flow path in Receive (consumed + released),
// so tearing a flow down mid-run keeps the conservation ledger settled.
func (d *Demux) Unregister(id packet.FlowID) { delete(d.m, id) }

// Receive implements netem.Receiver.
func (d *Demux) Receive(now sim.Time, p *packet.Packet) {
	if r, ok := d.m[p.Flow]; ok {
		r.Receive(now, p)
		return
	}
	if d.aud != nil {
		d.aud.PacketConsumed()
	}
	packet.Release(p)
}

// Flow is one sender/receiver pair attached to the network.
type Flow struct {
	ID     packet.FlowID
	Sender int // sender class index (0 or 1 on the dumbbell)
	Conn   *tcp.Conn
	Rcv    *tcp.Receiver
	CCName string
	// Start is the offset at which the run starts the sender, recorded by
	// whoever schedules Conn.Start (zero for open-loop flows).
	Start time.Duration
}

// Dumbbell is the classic two-sender topology, kept as a named wrapper
// over the generic Network built from DumbbellSpec.
type Dumbbell struct {
	*Network
	Cfg Config

	// Bottleneck is router1's egress toward router2 — the port carrying
	// the AQM and rate limit under test.
	Bottleneck *netem.Port
}

// NewDumbbell wires the paper topology on eng by building DumbbellSpec —
// proven byte-identical to the historical hand-wired construction.
func NewDumbbell(eng *sim.Engine, cfg Config) (*Dumbbell, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n, err := Build(eng, DumbbellSpec(), Params{
		Bottleneck: cfg.BottleneckBW,
		RTT:        cfg.RTT,
		Queue:      cfg.Queue,
		EdgeBW:     cfg.EdgeBW,
		CoreBW:     cfg.CoreBW,
		PathLoss:   cfg.PathLoss,
		Faults:     cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &Dumbbell{Network: n, Cfg: cfg, Bottleneck: n.Monitor()}, nil
}

// AddFlow attaches a new flow originating at client node sender (0 or 1),
// with congestion controller cc. The flow is not started; call
// Flow.Conn.Start (or schedule it) to begin transmitting.
func (d *Dumbbell) AddFlow(sender int, tcpCfg tcp.Config, cc tcp.CongestionControl) *Flow {
	if sender != 0 && sender != 1 {
		panic(fmt.Sprintf("topo: sender must be 0 or 1, got %d", sender))
	}
	return d.Network.AddFlow(sender, tcpCfg, cc)
}

// SenderFlows returns the flows originating at client node sender.
func (d *Dumbbell) SenderFlows(sender int) []*Flow { return d.ClassFlows(sender) }

// SenderGoodput returns the cumulative contiguous bytes received across all
// flows of one sender — the paper's per-sender throughput numerator.
func (d *Dumbbell) SenderGoodput(sender int) int64 { return d.ClassGoodput(sender) }

// SenderRetransmits returns total retransmitted segments for one sender.
func (d *Dumbbell) SenderRetransmits(sender int) uint64 { return d.ClassRetransmits(sender) }
