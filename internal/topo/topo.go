// Package topo models experimental network topologies as declarative
// graphs. A Spec describes nodes, unidirectional links (rate, delay, queue
// discipline, loss, faults) and static per-class routes; Build instantiates
// it on a sim.Engine as netem ports wired with audit conservation probes
// and telemetry rings, returning named attachment points for tcp endpoints.
//
// The paper's own setup (Fig. 1) — a dumbbell of two traffic-generating
// client nodes (Clemson), two routers (Washington, NCSA) whose interconnect
// is the bottleneck carrying the AQM under test, and two server nodes
// (TACC) at a 62 ms end-to-end RTT — is the DumbbellSpec preset.
// ParkingLotSpec, ReversePathSpec and CrossTrafficSpec extend the family to
// the multi-bottleneck scenarios where fairness conclusions change.
package topo

import (
	"slices"
	"time"

	"repro/internal/audit"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Demux routes packets to per-flow endpoints at divergence points of the
// graph (route forks and network edges). Flow IDs come from one counter per
// network and are never reused, so the table is a slice indexed by ID that
// grows to the highest ID registered here.
type Demux struct {
	rs []netem.Receiver

	// aud, when non-nil, reports packets released for an unknown flow as
	// terminally consumed, keeping the conservation ledger balanced (matched
	// packets are consumed by the endpoint they are handed to).
	aud *audit.Auditor
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux { return &Demux{} }

// Register binds a flow to an endpoint.
func (d *Demux) Register(id packet.FlowID, r netem.Receiver) {
	if n := int(id) + 1; n > len(d.rs) {
		d.rs = slices.Grow(d.rs, n-len(d.rs))[:n]
	}
	d.rs[id] = r
}

// Unregister removes a flow's binding. Packets for the flow still in
// flight fall to the unknown-flow path in Receive (consumed + released),
// so tearing a flow down mid-run keeps the conservation ledger settled.
func (d *Demux) Unregister(id packet.FlowID) {
	if int(id) < len(d.rs) {
		d.rs[id] = nil
	}
}

// Receive implements netem.Receiver.
func (d *Demux) Receive(now sim.Time, p *packet.Packet) {
	if int(p.Flow) < len(d.rs) {
		if r := d.rs[p.Flow]; r != nil {
			r.Receive(now, p)
			return
		}
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
