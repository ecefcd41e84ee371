// Package experiment drives the paper's measurement campaign over the
// simulator: the 810-point configuration grid of Table 1 (9 CCA pairings ×
// 3 AQMs × 6 queue lengths × 5 bottleneck bandwidths), a parallel sweep
// runner, per-metric aggregation, and renderers for every figure and table
// in the evaluation section.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// Pairing is one row of Table 1's CCA column: sender 1 runs CCA1, sender 2
// runs CCA2. Intra-CCA experiments have CCA1 == CCA2.
type Pairing struct {
	CCA1 cca.Name `json:"cca1"`
	CCA2 cca.Name `json:"cca2"`
}

// Intra reports whether both senders run the same algorithm.
func (p Pairing) Intra() bool { return p.CCA1 == p.CCA2 }

// String renders "bbr1-vs-cubic".
func (p Pairing) String() string { return fmt.Sprintf("%s-vs-%s", p.CCA1, p.CCA2) }

// PaperPairings returns Table 1's nine pairings in presentation order.
func PaperPairings() []Pairing {
	return []Pairing{
		{cca.BBRv1, cca.Cubic},
		{cca.BBRv2, cca.Cubic},
		{cca.HTCP, cca.Cubic},
		{cca.Reno, cca.Cubic},
		{cca.Cubic, cca.Cubic},
		{cca.BBRv1, cca.BBRv1},
		{cca.BBRv2, cca.BBRv2},
		{cca.HTCP, cca.HTCP},
		{cca.Reno, cca.Reno},
	}
}

// InterPairings returns the four X-vs-CUBIC pairings (Figures 2–6).
func InterPairings() []Pairing {
	return []Pairing{
		{cca.BBRv1, cca.Cubic},
		{cca.BBRv2, cca.Cubic},
		{cca.HTCP, cca.Cubic},
		{cca.Reno, cca.Cubic},
	}
}

// IntraPairings returns the five same-CCA pairings (Figures 7–8).
func IntraPairings() []Pairing {
	return []Pairing{
		{cca.BBRv1, cca.BBRv1},
		{cca.BBRv2, cca.BBRv2},
		{cca.HTCP, cca.HTCP},
		{cca.Reno, cca.Reno},
		{cca.Cubic, cca.Cubic},
	}
}

// PaperQueueMults returns the buffer sizes of Table 1 in BDP multiples.
// (Table 1 lists 0.5–8; the figures and conclusion extend to 16 BDP, and
// 6 sizes × 9 pairings × 3 AQMs × 5 BWs = the 810 configurations the paper
// reports collecting.)
func PaperQueueMults() []float64 { return []float64{0.5, 1, 2, 4, 8, 16} }

// Config is one experiment configuration (one cell of the grid, one seed).
type Config struct {
	Pairing    Pairing         `json:"pairing"`
	AQM        aqm.Kind        `json:"aqm"`
	QueueBDP   float64         `json:"queue_bdp"` // buffer size in BDP multiples
	Bottleneck units.Bandwidth `json:"bottleneck_bps"`

	RTT            time.Duration `json:"rtt_ns"`             // default 62 ms
	Duration       time.Duration `json:"duration_ns"`        // default: workload.DefaultDuration
	FlowsPerSender int           `json:"flows_per_sender"`   // default: Table 2 plan (scaled)
	Seed           uint64        `json:"seed"`               // replica seed
	PaperScale     bool          `json:"paper_scale"`        // full 200 s, uncapped flows
	ECN            bool          `json:"ecn"`                // enable ECN end to end
	SampleInterval time.Duration `json:"sample_interval_ns"` // throughput series step
	StartSpread    time.Duration `json:"start_spread_ns"`    // flow start jitter window
	// PathLoss injects random loss on the forward core segment (the
	// paper's future-work "network anomalies" scenario).
	PathLoss float64 `json:"path_loss,omitempty"`
	// DelayedAck enables RFC 1122 delayed acknowledgements on receivers.
	DelayedAck bool `json:"delayed_ack,omitempty"`
	// Faults arms a deterministic fault timeline (Gilbert–Elliott bursty
	// loss, link flaps, bandwidth/RTT steps) on the bottleneck port. The
	// profile is part of result identity: it lands in ID and JSON.
	Faults *faults.Profile `json:"faults,omitempty"`
	// Topology selects the network graph the run builds. Nil (and the
	// canonical dumbbell, which Normalize folds to nil) is the paper's
	// dumbbell — so legacy configs keep their exact Key and the sweepd
	// cache and checkpoint journals stay valid. Non-dumbbell specs are
	// science: they land in the JSON identity and in ID.
	Topology *topo.Spec `json:"topology,omitempty"`
	// Flows arms an open-loop background workload: populations of short
	// transfers arriving by seeded Poisson processes while the pairing's
	// long-running flows hold the link. Like faults and topologies it is
	// science and part of the identity (Key via JSON, ID via its compact
	// form); nil keeps the legacy elephant-only run and its exact Key.
	Flows *flows.Spec `json:"flows,omitempty"`
	// SoloFCT runs the open-loop workload alone — no long-running flows —
	// as the Ware harm-to-FCT baseline. Normalize pins the pairing of a
	// solo run to cubic:cubic so one baseline per (AQM, queue, bandwidth,
	// seed) cell is shared by every pairing in the grid (identical Key →
	// one simulation, cached for all).
	SoloFCT bool `json:"solo_fct,omitempty"`
	// MaxEvents aborts the run after this many simulator events (0 =
	// unlimited) — the sweep watchdog against runaway configurations. The
	// abort is deterministic.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MaxWall aborts the run after this much real time (0 = unlimited), a
	// machine-dependent safety net; aborted runs come back as errors.
	MaxWall time.Duration `json:"max_wall_ns,omitempty"`
	// Audit arms the runtime invariant auditor for the run: packet
	// conservation, queue accounting, TCP sequence-space sanity and engine
	// checks, with violations surfacing as errored results. Auditing
	// observes but never alters the simulation, so — like the watchdog
	// budgets — it is not part of the configuration's identity (ID).
	Audit bool `json:"audit,omitempty"`
	// Trace arms the flight-recorder telemetry tracer: cwnd/RTT/CCA-state
	// events per flow and enqueue/dequeue/drop events per port, recorded
	// into bounded rings and returned in Result.Trace. Like Audit it
	// observes without altering the simulation, so it is excluded from Key.
	Trace bool `json:"trace,omitempty"`
	// TraceRingCap overrides the per-ring event capacity (0 = default).
	TraceRingCap int `json:"trace_ring_cap,omitempty"`
	// TraceSampleN keeps only every Nth high-rate event (cwnd updates,
	// enqueues/dequeues, RTT samples); 0 or 1 records them all. Drops,
	// marks, state transitions, RTOs and faults are never sampled away.
	TraceSampleN int `json:"trace_sample_n,omitempty"`
	// Fairness arms the fairness observatory: fixed-cadence per-flow
	// goodput windows feeding a windowed Jain(t) series, per-flow
	// share-of-bottleneck series, windowed retransmit rate, and the
	// convergence/starvation detectors reported in Result.Fairness. Like
	// Audit and Trace it observes without altering the simulation, so it
	// is excluded from Key.
	Fairness bool `json:"fairness,omitempty"`
	// FairnessWindow overrides the observatory's sampling window
	// (0 = metrics.DefaultFairnessWindow, 100 ms). Observation-only,
	// excluded from Key like the trace knobs.
	FairnessWindow time.Duration `json:"fairness_window_ns,omitempty"`
}

// Normalize fills defaults, returning the effective configuration.
func (c Config) Normalize() Config {
	if c.RTT <= 0 {
		c.RTT = 62 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = workload.DefaultDuration(c.Bottleneck, c.PaperScale)
	}
	if c.FlowsPerSender <= 0 {
		plan := workload.ScaledPlan(c.Bottleneck, workload.DefaultMaxFlows(c.Bottleneck, c.PaperScale))
		c.FlowsPerSender = plan.FlowsPerNode()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	if c.StartSpread <= 0 {
		c.StartSpread = 100 * time.Millisecond
	}
	if c.AQM == "" {
		c.AQM = aqm.KindFIFO
	}
	if c.Faults != nil {
		n := c.Faults.Normalize()
		if n.Empty() {
			c.Faults = nil
		} else {
			c.Faults = &n
		}
	}
	if c.Topology != nil {
		if topo.IsDumbbell(c.Topology) {
			c.Topology = nil
		} else {
			n := c.Topology.Normalize()
			c.Topology = &n
		}
	}
	if c.Flows != nil {
		if c.Flows.Empty() {
			c.Flows = nil
		} else {
			n := c.Flows.Normalize()
			c.Flows = &n
		}
	}
	if c.Flows == nil {
		c.SoloFCT = false // nothing to baseline without a workload
	}
	if c.SoloFCT {
		// The solo baseline has no long-running flows, so the pairing is
		// irrelevant to the simulation; pinning it dedupes the baseline's
		// Key across every pairing of the grid.
		c.Pairing = Pairing{CCA1: cca.Cubic, CCA2: cca.Cubic}
	}
	return c
}

// ID renders a filesystem- and log-friendly identifier. Fault profiles are
// part of the identity, so a faulted run never collides with (or resumes
// from) a clean run of the same grid cell.
func (c Config) ID() string {
	id := fmt.Sprintf("%s_%s_%gbdp_%s_seed%d", c.Pairing, c.AQM, c.QueueBDP,
		c.Bottleneck, c.Seed)
	if fid := c.Faults.ID(); fid != "" {
		id += "_" + fid
	}
	if c.Topology != nil && !topo.IsDumbbell(c.Topology) {
		id += "_" + c.Topology.ID()
	}
	if fid := c.Flows.ID(); fid != "" {
		id += "_flows-" + fid
	}
	if c.SoloFCT {
		id += "_solo"
	}
	return id
}

// Recorded returns the normalized configuration with every run control
// cleared: the watchdog budgets and the observation-only audit, trace and
// fairness knobs. It is the configuration a Result records — errored ones
// included, wherever they are made — and the one Key hashes, so a result
// served from a cache reads the same whichever job's controls produced it.
func (c Config) Recorded() Config {
	n := c.Normalize()
	n.MaxEvents, n.MaxWall, n.Audit = 0, 0, false
	n.Trace, n.TraceRingCap, n.TraceSampleN = false, 0, 0
	n.Fairness, n.FairnessWindow = false, 0
	return n
}

// Key returns the configuration's full science identity: a hex digest of
// the recorded configuration, whose cleared run controls cannot change a
// run's science bytes. Unlike ID, which renders only the grid cell, seed,
// and fault profile, Key also covers duration, paper scale, RTT, flow
// counts, ECN, and every other science-affecting field, so two
// configurations share a Key iff they simulate identically. The checkpoint journal and sweepd's
// result cache are keyed by it; ID remains the human-readable label.
func (c Config) Key() string {
	data, err := json.Marshal(c.Recorded())
	if err != nil { // Config is plain data; cannot happen
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// GridOptions controls grid generation.
type GridOptions struct {
	Pairings   []Pairing
	AQMs       []aqm.Kind
	QueueMults []float64
	Bandwidths []units.Bandwidth
	Seeds      []uint64
	PaperScale bool
}

// PaperGrid returns the full Table 1 grid options with the given replica
// seeds (the paper ran 5 per configuration).
func PaperGrid(seeds ...uint64) GridOptions {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3, 4, 5}
	}
	return GridOptions{
		Pairings:   PaperPairings(),
		AQMs:       aqm.Kinds(),
		QueueMults: PaperQueueMults(),
		Bandwidths: units.PaperBandwidths(),
		Seeds:      seeds,
	}
}

// Grid expands options into the cross-product of configurations.
func Grid(o GridOptions) []Config {
	var out []Config
	for _, p := range o.Pairings {
		for _, a := range o.AQMs {
			for _, q := range o.QueueMults {
				for _, bw := range o.Bandwidths {
					for _, s := range o.Seeds {
						out = append(out, Config{
							Pairing:    p,
							AQM:        a,
							QueueBDP:   q,
							Bottleneck: bw,
							Seed:       s,
							PaperScale: o.PaperScale,
						})
					}
				}
			}
		}
	}
	return out
}
