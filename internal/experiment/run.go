package experiment

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/cca"
	"repro/internal/flows"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// Result is the outcome of one experiment run (one configuration, one seed).
type Result struct {
	Config Config `json:"config"`

	// SenderBps is each sender's aggregate goodput in bits/sec — the
	// paper's per-sender throughput (Figures 2 and 4).
	SenderBps [2]float64 `json:"sender_bps"`
	// Jain is the per-sender fairness index, n=2 (Figures 3, 5, 6).
	Jain float64 `json:"jain"`
	// FlowJain is Jain's index across every individual flow — finer
	// grained than the paper's per-sender view (and 1.0 only when every
	// single stream got an equal share).
	FlowJain float64 `json:"flow_jain"`
	// Utilization is φ (Figure 7).
	Utilization float64 `json:"utilization"`
	// Retransmits counts retransmitted segments per sender and in total
	// (Figure 8 and eq. 4).
	Retransmits      [2]uint64 `json:"retransmits"`
	TotalRetransmits uint64    `json:"total_retransmits"`

	// Bottleneck queue accounting.
	QueueDropped uint64 `json:"queue_dropped"`
	QueueMarked  uint64 `json:"queue_marked"`
	// Peak bottleneck queue occupancy over the whole run, tracked by an
	// always-on watermark in the port (present whether or not tracing ran).
	PeakQueueBytes   int64 `json:"peak_queue_bytes"`
	PeakQueuePackets int   `json:"peak_queue_packets"`
	// Bottleneck queueing delay (bufferbloat evidence).
	SojournMean time.Duration `json:"sojourn_mean_ns"`
	SojournMax  time.Duration `json:"sojourn_max_ns"`

	// Injected-fault accounting (zero on clean runs): packets destroyed by
	// loss injection and by link flaps at the bottleneck.
	FaultLossDrops uint64 `json:"fault_loss_drops,omitempty"`
	FaultDownDrops uint64 `json:"fault_down_drops,omitempty"`

	// Error is set when the run did not complete cleanly (panic recovered
	// by the sweep runner, or watchdog abort). Errored results carry their
	// Config for identification but no measurements, and are skipped by
	// Summarize and by checkpoint resume.
	Error string `json:"error,omitempty"`

	// Groups and Ports carry per-sender-class and per-link results for
	// non-dumbbell topologies (parking lot, reverse path, cross traffic).
	// Both are omitted for the legacy dumbbell so its result bytes are
	// unchanged; the two-sender fields above always cover classes 0 and 1.
	Groups []GroupResult `json:"groups,omitempty"`
	Ports  []PortResult  `json:"ports,omitempty"`

	// FCT carries the open-loop workload's flow-completion-time outcome
	// when Config.Flows was set: arrival/completion counts and bounded-
	// sketch percentiles per size class. Nil for elephant-only runs, so
	// legacy result bytes are unchanged.
	FCT *FCTResult `json:"fct,omitempty"`

	// Fairness carries the fairness observatory's windowed Jain(t)/share
	// series and detector findings (convergence time, time-to-fair-share,
	// starvation episodes) when Config.Fairness was set; nil otherwise so
	// legacy result bytes are unchanged. The observatory is observation-
	// only: every science field above is byte-identical with it on or off,
	// and its knobs are excluded from Config.Key(), so cached results
	// simulated without it still serve fairness-armed specs (minus this
	// block), exactly like traces.
	Fairness *metrics.FairnessReport `json:"fairness,omitempty"`

	// Run metadata.
	Flows      int           `json:"flows"`
	SimSeconds float64       `json:"sim_seconds"`
	Events     uint64        `json:"events"`
	Wall       time.Duration `json:"wall_ns"`

	// Trace is the telemetry dump when Config.Trace was set, nil otherwise.
	// It is deliberately excluded from the result JSON — traces have their
	// own NDJSON encoding and their own files — so result bytes are
	// identical with tracing on or off.
	Trace *telemetry.Dump `json:"-"`
}

// GroupResult is one sender class's outcome on a graph topology.
type GroupResult struct {
	Name        string  `json:"name"`
	CCA         string  `json:"cca"`
	Flows       int     `json:"flows"`
	Bps         float64 `json:"bps"`
	Retransmits uint64  `json:"retransmits"`
	Background  bool    `json:"background,omitempty"`
}

// PortResult is one reported link's counters: the bottleneck-role links,
// links with explicit queue overrides, and the monitor link. Utilization
// here is wire utilization (TxBytes over the link's resolved rate), unlike
// the goodput-based top-level φ.
type PortResult struct {
	Name             string          `json:"name"`
	RateBps          units.Bandwidth `json:"rate_bps"`
	TxBytes          int64           `json:"tx_bytes"`
	Utilization      float64         `json:"utilization"`
	Dropped          uint64          `json:"dropped"`
	Marked           uint64          `json:"marked"`
	PeakQueueBytes   int64           `json:"peak_queue_bytes"`
	PeakQueuePackets int             `json:"peak_queue_packets"`
	SojournMean      time.Duration   `json:"sojourn_mean_ns"`
	SojournMax       time.Duration   `json:"sojourn_max_ns"`
}

// Errored reports whether the result records a failed run.
func (r Result) Errored() bool { return r.Error != "" }

// SenderMbps returns a sender's throughput in Mbps.
func (r Result) SenderMbps(i int) float64 { return r.SenderBps[i] / 1e6 }

// Run executes one experiment and returns its result. Each call owns a
// private engine; Run is safe to invoke from many goroutines at once.
// Observers watch the run without changing its result (see Observer); Run
// adds the fairness observatory itself when Config.Fairness is set.
func Run(cfg Config, obs ...Observer) (Result, error) {
	cfg = cfg.Normalize()
	start := time.Now()

	eng := sim.NewEngine(cfg.Seed)
	if cfg.MaxEvents > 0 || cfg.MaxWall > 0 {
		eng.SetBudget(cfg.MaxEvents, cfg.MaxWall)
	}
	// The auditor must be attached before the topology is built: ports and
	// endpoints discover it from the engine at construction time.
	var aud *audit.Auditor
	if cfg.Audit {
		aud = audit.New(cfg.ID())
		eng.SetAuditor(aud)
	}
	// Same constraint for the tracer: flows and ports pick it up from the
	// engine when they are built.
	var trc *telemetry.Tracer
	if cfg.Trace {
		trc = telemetry.New(telemetry.Options{
			RingCap: cfg.TraceRingCap,
			SampleN: cfg.TraceSampleN,
		})
		eng.SetTracer(trc)
	}
	// The run controls are excluded from Config.Key(); scrub them from the
	// recorded config too, so a result serializes byte-identically whatever
	// controls produced it, everywhere results land (result files, the
	// sweepd cache, checkpoint journals).
	recCfg := cfg.Recorded()
	net, err := BuildNet(eng, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("experiment %s: %w", cfg.ID(), err)
	}

	// RNG discipline: the long-running flows draw their start jitter from
	// the engine RNG in construction order (exactly as before open-loop
	// workloads existed), while every open-loop arrival process below owns
	// a stream derived from (Seed, population index). Neither side can
	// perturb the other, which is what keeps both the legacy elephant
	// bytes and the arrival schedule reproducible. A SoloFCT baseline
	// attaches no long-running flows at all.
	if !cfg.SoloFCT {
		for ci := 0; ci < net.NumClasses(); ci++ {
			name := ClassCCA(cfg, net.ClassSpec(ci), ci)
			for i := 0; i < ClassFlowCount(cfg, net.ClassSpec(ci)); i++ {
				cc, err := cca.New(name)
				if err != nil {
					return Result{}, fmt.Errorf("experiment %s: %w", cfg.ID(), err)
				}
				f := net.AddFlow(ci, tcp.Config{ECN: cfg.ECN, DelayedAck: cfg.DelayedAck}, cc)
				f.Start = workload.StartJitter(eng.RNG(), cfg.StartSpread)
				eng.Schedule(f.Start, f.Conn.Start)
			}
		}
	}
	var fr *flows.Runner
	if cfg.Flows != nil {
		fr, err = flows.NewRunner(eng, net, cfg.Flows, flows.Options{
			Seed:    cfg.Seed,
			Horizon: cfg.Duration,
			TCP:     tcp.Config{ECN: cfg.ECN, DelayedAck: cfg.DelayedAck},
		})
		if err != nil {
			return Result{}, fmt.Errorf("experiment %s: %w", cfg.ID(), err)
		}
		fr.Start()
	}
	if cfg.Fairness {
		// The full slice expression makes append copy rather than write
		// into spare capacity of the caller's slice.
		obs = append(obs[:len(obs):len(obs)], &fairness{})
	}
	for _, o := range obs {
		o.Attach(eng, net, cfg)
	}

	eng.RunFor(cfg.Duration)
	if werr := eng.Overrun(); werr != nil {
		return Result{Config: recCfg, Error: werr.Error(), Events: eng.Executed(),
				Wall: time.Since(start)},
			fmt.Errorf("experiment %s: %w", cfg.ID(), werr)
	}
	if aud != nil {
		// Settle the conservation ledger and run every registered end-of-run
		// check. A violation panics with its structured report; the sweep
		// runner's recovery turns that into an errored Result.
		aud.Finish()
	}

	res := Result{
		Config:     recCfg,
		Flows:      len(net.Flows()),
		SimSeconds: cfg.Duration.Seconds(),
		Events:     eng.Executed(),
		Wall:       time.Since(start),
	}
	for s := 0; s < 2 && s < net.NumClasses(); s++ {
		g := net.ClassGoodput(s)
		res.SenderBps[s] = float64(g) * 8 / cfg.Duration.Seconds()
		res.Retransmits[s] = net.ClassRetransmits(s)
	}
	res.TotalRetransmits = net.TotalRetransmits()
	res.Jain = metrics.Jain([]float64{res.SenderBps[0], res.SenderBps[1]})
	perFlow := make([]float64, 0, len(net.Flows()))
	for _, f := range net.Flows() {
		perFlow = append(perFlow, float64(f.Rcv.Goodput()))
	}
	res.FlowJain = metrics.Jain(perFlow)
	// φ aggregates goodput over the classes crossing the monitor link, over
	// that link's rate — for the dumbbell, exactly the two senders over the
	// bottleneck.
	var totalBytes int64
	for _, ci := range net.MonitorClasses() {
		totalBytes += net.ClassGoodput(ci)
	}
	res.Utilization = metrics.Utilization(totalBytes, cfg.Duration, cfg.Bottleneck)
	mon := net.Monitor()
	qs := mon.Queue().Stats()
	res.QueueDropped = qs.Dropped
	res.QueueMarked = qs.Marked
	pb, pp := mon.PeakQueue()
	res.PeakQueueBytes = int64(pb)
	res.PeakQueuePackets = pp
	if trc != nil {
		res.Trace = trc.Dump()
	}
	sj := mon.Sojourn()
	res.SojournMean = sj.Mean
	res.SojournMax = sj.Max
	res.FaultLossDrops = mon.LossDrops()
	res.FaultDownDrops = mon.DownDrops()
	if cfg.Topology != nil {
		res.Groups = groupResults(net, cfg)
		res.Ports = portResults(net, cfg.Duration)
	}
	if fr != nil {
		res.FCT = FCTFromRunner(fr)
	}
	if len(obs) == 0 {
		return res, nil
	}
	// The pointer handed to the observers escapes to the heap; finishing on
	// a copy keeps that allocation off runs without observers.
	out := res
	for _, o := range obs {
		if err := o.Finish(&out); err != nil {
			return out, fmt.Errorf("experiment %s: %w", cfg.ID(), err)
		}
	}
	return out, nil
}

// BuildNet instantiates the config's topology (Config.Topology, or the
// paper dumbbell when nil) with the grid parameters as role defaults.
func BuildNet(eng *sim.Engine, cfg Config) (*topo.Network, error) {
	spec := topo.DumbbellSpec()
	if cfg.Topology != nil {
		spec = *cfg.Topology
	}
	return topo.Build(eng, spec, topo.Params{
		Bottleneck: cfg.Bottleneck,
		RTT:        cfg.RTT,
		PathLoss:   cfg.PathLoss,
		Faults:     cfg.Faults,
		Queue: aqm.Config{
			Kind:     cfg.AQM,
			Capacity: units.QueueBytes(cfg.Bottleneck, cfg.RTT, cfg.QueueBDP, 8960),
			ECN:      cfg.ECN,
			RED:      aqm.REDParams{Seed: cfg.Seed},
			FQCoDel:  aqm.FQCoDelParams{Perturb: cfg.Seed},
		},
	})
}

// ClassCCA resolves the congestion controller for sender class ci: the
// class's pinned CCA when declared, otherwise the grid pairing by index
// (class 0 runs CCA1, every other class CCA2).
func ClassCCA(cfg Config, cls topo.SenderSpec, ci int) cca.Name {
	if cls.CCA != "" {
		return cca.Name(cls.CCA)
	}
	if ci == 0 {
		return cfg.Pairing.CCA1
	}
	return cfg.Pairing.CCA2
}

// ClassFlowCount resolves a class's flow count (pinned, else FlowsPerSender).
func ClassFlowCount(cfg Config, cls topo.SenderSpec) int {
	if cls.Flows > 0 {
		return cls.Flows
	}
	return cfg.FlowsPerSender
}

// groupResults assembles the per-class results for a built network.
func groupResults(net *topo.Network, cfg Config) []GroupResult {
	out := make([]GroupResult, 0, net.NumClasses())
	for ci := 0; ci < net.NumClasses(); ci++ {
		cls := net.ClassSpec(ci)
		out = append(out, GroupResult{
			Name:        cls.Name,
			CCA:         string(ClassCCA(cfg, cls, ci)),
			Flows:       len(net.ClassFlows(ci)),
			Bps:         float64(net.ClassGoodput(ci)) * 8 / cfg.Duration.Seconds(),
			Retransmits: net.ClassRetransmits(ci),
			Background:  cls.Background,
		})
	}
	return out
}

// portResults assembles the per-link results for the network's reported
// ports (bottleneck-role, explicitly queued, and monitor links).
func portResults(net *topo.Network, dur time.Duration) []PortResult {
	idxs := net.ReportPorts()
	out := make([]PortResult, 0, len(idxs))
	for _, i := range idxs {
		po := net.Ports()[i]
		qs := po.Queue().Stats()
		pb, pp := po.PeakQueue()
		sj := po.Sojourn()
		rate := net.PortRate(i)
		out = append(out, PortResult{
			Name:             po.Name,
			RateBps:          rate,
			TxBytes:          int64(po.TxBytes()),
			Utilization:      float64(po.TxBytes()) * 8 / dur.Seconds() / float64(rate),
			Dropped:          qs.Dropped,
			Marked:           qs.Marked,
			PeakQueueBytes:   int64(pb),
			PeakQueuePackets: pp,
			SojournMean:      sj.Mean,
			SojournMax:       sj.Max,
		})
	}
	return out
}
