package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/flows"
	"repro/internal/topo"
	"repro/internal/units"
)

// GridSpec is the wire- and flag-level description of a sweep: which subset
// of the Table-1 grid to run and under which overrides. It is the single
// parser shared by cmd/sweep's flags and the sweepd HTTP API, so a spec
// submitted over the wire expands to exactly the configurations the CLI
// would run. All list fields are comma-separated strings (the flag syntax);
// empty fields select the paper defaults. The zero value is the full scaled
// Table-1 grid with one seed.
type GridSpec struct {
	// Bandwidths subsets the bottleneck bandwidths, e.g. "100Mbps,1Gbps".
	Bandwidths string `json:"bandwidths,omitempty"`
	// Queues subsets the buffer multipliers in BDP units, e.g. "0.5,2,16".
	Queues string `json:"queues,omitempty"`
	// AQMs subsets the queue disciplines, e.g. "fifo,fq_codel".
	AQMs string `json:"aqms,omitempty"`
	// Pairings subsets the CCA pairings, e.g. "bbr1:cubic,reno:reno".
	Pairings string `json:"pairings,omitempty"`
	// Seeds is the replica count: seeds 1..N run per grid cell (min 1).
	Seeds int `json:"seeds,omitempty"`
	// Duration overrides the simulated duration of every run, as a Go
	// duration string like "6s" (empty = bandwidth-scaled default).
	Duration string `json:"duration,omitempty"`
	// PaperScale selects full 200 s runs and uncapped flow counts.
	PaperScale bool `json:"paper_scale,omitempty"`
	// Faults is a fault-profile spec: preset list, inline JSON, or @file
	// (the faults.Parse syntax).
	Faults string `json:"faults,omitempty"`
	// Topo selects the network graph for every run: a preset name
	// ("dumbbell", "parking-lot-3", "reverse-path:factor=0.005",
	// "cross-traffic"), inline JSON, or @file (the topo.Parse syntax).
	// Empty (and the canonical dumbbell) is the legacy dumbbell.
	Topo string `json:"topo,omitempty"`
	// Flows is an open-loop workload spec: preset list ("mice", "mixed",
	// "mice:arrival=100ms+elephants:cca=bbr1"), inline JSON, or @file
	// (the flows.Parse syntax). When set, the grid grows one SoloFCT
	// baseline per distinct (AQM, queue, bandwidth, seed) condition —
	// the denominators of the harm-to-FCT matrix.
	Flows string `json:"flows,omitempty"`
	// Configs truncates the expanded grid to its first N configurations
	// (0 = all; for smoke tests).
	Configs int `json:"configs,omitempty"`
	// MaxEvents is the per-run event-budget watchdog (0 = unlimited).
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MaxWall is the per-run wall-clock watchdog as a Go duration string
	// (empty = unlimited). Machine-dependent; not part of result science.
	MaxWall string `json:"max_wall,omitempty"`
	// Audit arms the runtime invariant auditor on every run.
	Audit bool `json:"audit,omitempty"`
	// Fairness arms the fairness observatory on every run: windowed
	// Jain/share series plus convergence and starvation detectors, attached
	// to each result as its fairness block. Observation-only — excluded
	// from config identity, so armed and plain runs share cache entries.
	Fairness bool `json:"fairness,omitempty"`
}

// RegisterFlags binds the spec's fields to the canonical sweep flag names
// on fs. Both cmd/sweep and any future client register through here, so
// flag syntax and the HTTP spec body can never drift apart.
func (s *GridSpec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Bandwidths, "bws", s.Bandwidths, "comma-separated bandwidth subset (default: all five paper BWs)")
	fs.StringVar(&s.Queues, "queues", s.Queues, "comma-separated buffer multipliers (default: 0.5,1,2,4,8,16)")
	fs.StringVar(&s.AQMs, "aqms", s.AQMs, "comma-separated AQM subset (default: fifo,red,fq_codel)")
	fs.StringVar(&s.Pairings, "pairings", s.Pairings, "comma-separated pairing subset like bbr1:cubic,reno:reno (default: all nine)")
	fs.IntVar(&s.Seeds, "seeds", s.Seeds, "replica seeds per configuration (paper used 5)")
	fs.StringVar(&s.Duration, "duration", s.Duration, "override simulated duration for every run (e.g. 6s)")
	fs.BoolVar(&s.PaperScale, "paper-scale", s.PaperScale, "full 200s runs and uncapped flow counts")
	fs.StringVar(&s.Faults, "faults", s.Faults, "fault profile for every run: preset list (e.g. flap or ge:pgb=0.01+flap:at=10s), inline JSON, or @file.json")
	fs.StringVar(&s.Topo, "topo", s.Topo, "network topology for every run: preset (dumbbell, parking-lot-3, reverse-path[:factor=0.005], cross-traffic[:cca=bbr1]), inline JSON, or @file.json")
	fs.StringVar(&s.Flows, "flows", s.Flows, "open-loop background workload for every run: preset list (mice, elephants, mixed, e.g. mice:arrival=100ms,p95=1MB), inline JSON, or @file.json; adds one solo FCT baseline per condition")
	fs.IntVar(&s.Configs, "configs", s.Configs, "truncate the grid to its first N configurations (0 = all; for smoke tests)")
	fs.Uint64Var(&s.MaxEvents, "max-events", s.MaxEvents, "per-run watchdog: abort a configuration after this many simulator events (0 = unlimited)")
	fs.StringVar(&s.MaxWall, "max-wall", s.MaxWall, "per-run watchdog: abort a configuration after this much wall time (empty = unlimited)")
	fs.BoolVar(&s.Audit, "audit", s.Audit, "enable the runtime invariant auditor on every run; violations become errored results")
	fs.BoolVar(&s.Fairness, "fairness", s.Fairness, "arm the fairness observatory on every run: windowed Jain(t)/share series, convergence time, starvation episodes")
}

// parsed is the typed expansion of a GridSpec's string fields.
type parsed struct {
	opts     GridOptions
	duration time.Duration
	maxWall  time.Duration
	profile  *faults.Profile
	topology *topo.Spec
	flowSpec *flows.Spec
}

// maxGridConfigs caps a spec's grid (the cross product before Configs
// truncation) at about 32× the paper's 4,050-config five-seed grid, so a
// tiny spec with a huge seed count is refused before anything is allocated.
const maxGridConfigs = 1 << 17

func (s GridSpec) parse() (parsed, error) {
	var p parsed
	p.opts = PaperGrid()
	p.opts.PaperScale = s.PaperScale

	if s.Bandwidths != "" {
		p.opts.Bandwidths = nil
		for _, f := range splitList(s.Bandwidths) {
			bw, err := units.ParseBandwidth(f)
			if err != nil {
				return p, fmt.Errorf("experiment: spec bandwidths: %w", err)
			}
			p.opts.Bandwidths = append(p.opts.Bandwidths, bw)
		}
	}
	if s.Queues != "" {
		p.opts.QueueMults = nil
		for _, f := range splitList(s.Queues) {
			q, err := strconv.ParseFloat(f, 64)
			if err != nil || q <= 0 {
				return p, fmt.Errorf("experiment: spec queues: bad buffer multiplier %q", f)
			}
			p.opts.QueueMults = append(p.opts.QueueMults, q)
		}
	}
	if s.AQMs != "" {
		p.opts.AQMs = nil
		for _, f := range splitList(s.AQMs) {
			k, err := aqm.ParseKind(f)
			if err != nil {
				return p, fmt.Errorf("experiment: spec aqms: %w", err)
			}
			p.opts.AQMs = append(p.opts.AQMs, k)
		}
	}
	if s.Pairings != "" {
		p.opts.Pairings = nil
		for _, f := range splitList(s.Pairings) {
			parts := strings.SplitN(f, ":", 2)
			if len(parts) != 2 {
				return p, fmt.Errorf("experiment: spec pairings: bad pairing %q (want cca1:cca2)", f)
			}
			c1, err := cca.Parse(strings.TrimSpace(parts[0]))
			if err != nil {
				return p, fmt.Errorf("experiment: spec pairings: %w", err)
			}
			c2, err := cca.Parse(strings.TrimSpace(parts[1]))
			if err != nil {
				return p, fmt.Errorf("experiment: spec pairings: %w", err)
			}
			p.opts.Pairings = append(p.opts.Pairings, Pairing{CCA1: c1, CCA2: c2})
		}
	}
	seeds := max(s.Seeds, 1)
	size := seeds // grows to the cross product; checked before each step
	for _, k := range []int{len(p.opts.Pairings), len(p.opts.AQMs), len(p.opts.QueueMults), len(p.opts.Bandwidths)} {
		if size > maxGridConfigs/max(k, 1) {
			return p, fmt.Errorf("experiment: spec grid exceeds %d configurations", maxGridConfigs)
		}
		size *= k
	}
	p.opts.Seeds = make([]uint64, seeds)
	for i := range p.opts.Seeds {
		p.opts.Seeds[i] = uint64(i + 1)
	}
	if s.Duration != "" {
		d, err := time.ParseDuration(s.Duration)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("experiment: spec duration: bad duration %q", s.Duration)
		}
		p.duration = d
	}
	if s.MaxWall != "" {
		d, err := time.ParseDuration(s.MaxWall)
		if err != nil || d < 0 {
			return p, fmt.Errorf("experiment: spec max-wall: bad duration %q", s.MaxWall)
		}
		p.maxWall = d
	}
	if s.Configs < 0 {
		return p, fmt.Errorf("experiment: spec configs: negative truncation %d", s.Configs)
	}
	profile, err := faults.Parse(s.Faults)
	if err != nil {
		return p, fmt.Errorf("experiment: spec faults: %w", err)
	}
	p.profile = profile
	topology, err := topo.Parse(s.Topo)
	if err != nil {
		return p, fmt.Errorf("experiment: spec topo: %w", err)
	}
	p.topology = topology
	flowSpec, err := flows.Parse(s.Flows)
	if err != nil {
		return p, fmt.Errorf("experiment: spec flows: %w", err)
	}
	p.flowSpec = flowSpec
	return p, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Plan is a spec resolved from one parse and one expansion: what a sweep
// runs, the address it is known by, and the note its results carry.
type Plan struct {
	// Spec is the canonical form, with every list normalized (whitespace
	// trimmed, bandwidths and durations re-rendered in canonical form) so
	// that equivalent spellings — "100Mbps, 1Gbps" vs "0.1Gbps,1000Mbps" —
	// share one Spec and therefore one Key.
	Spec GridSpec
	// Key is the content address: a hex digest of Spec's JSON encoding.
	// Two specs that expand to the same grid under the same overrides share
	// a Key; sweepd coalesces concurrent submissions by it.
	Key string
	// Configs are the configurations in canonical grid order — the same
	// order cmd/sweep runs and serializes them (what Expand returns).
	Configs []Config
	// Note is the deterministic provenance string recorded in a ResultSet.
	// cmd/sweep and sweepd both use it verbatim, which is what makes a
	// served result set byte-identical to a CLI sweep of the same spec.
	Note string
}

// Plan validates the spec and resolves it into its canonical form, content
// address, configurations and provenance note.
func (s GridSpec) Plan() (Plan, error) {
	p, err := s.parse()
	if err != nil {
		return Plan{}, err
	}
	c, err := s.canonical(p)
	if err != nil {
		return Plan{}, err
	}
	data, _ := json.Marshal(c) // a GridSpec holds only strings, numbers and bools
	sum := sha256.Sum256(data)
	pl := Plan{Spec: c, Key: hex.EncodeToString(sum[:])[:16], Configs: s.expand(p)}
	pl.Note = fmt.Sprintf("grid sweep: %d configs, seeds=%d, paperScale=%v", len(pl.Configs), c.Seeds, c.PaperScale)
	if id := p.profile.ID(); id != "" {
		pl.Note += ", faults=" + id
	}
	if p.topology != nil && !topo.IsDumbbell(p.topology) {
		pl.Note += ", topo=" + p.topology.ID()
	}
	if id := p.flowSpec.ID(); id != "" {
		pl.Note += ", flows=" + id
	}
	pl.Note += ", spec=" + pl.Key
	return pl, nil
}

// Expand validates the spec and returns its configurations in canonical
// grid order: Plan's Configs without the rest of the plan.
func (s GridSpec) Expand() ([]Config, error) {
	p, err := s.parse()
	if err != nil {
		return nil, err
	}
	return s.expand(p), nil
}

func (s GridSpec) expand(p parsed) []Config {
	cfgs := Grid(p.opts)
	if s.Configs > 0 && s.Configs < len(cfgs) {
		cfgs = cfgs[:s.Configs]
	}
	for i := range cfgs {
		if p.duration > 0 {
			cfgs[i].Duration = p.duration
		}
		cfgs[i].Faults = p.profile
		cfgs[i].Topology = p.topology
		cfgs[i].Flows = p.flowSpec
		cfgs[i].MaxEvents = s.MaxEvents
		cfgs[i].MaxWall = p.maxWall
		cfgs[i].Audit = s.Audit
		cfgs[i].Fairness = s.Fairness
	}
	if p.flowSpec != nil {
		// One solo FCT baseline per distinct non-pairing condition in the
		// (possibly truncated) grid, appended after it in first-appearance
		// order. Normalize pins a solo run's pairing, so baselines for
		// different pairings of the same condition collapse to one Key —
		// the dedup below keeps them from even appearing twice.
		seen := map[string]bool{}
		var solos []Config
		for _, c := range cfgs {
			c.SoloFCT = true
			c = c.Normalize()
			k := c.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			solos = append(solos, c)
		}
		cfgs = append(cfgs, solos...)
	}
	return cfgs
}

// canonical renders the spec's parsed fields back in canonical form.
func (s GridSpec) canonical(p parsed) (GridSpec, error) {
	if s.Bandwidths != "" {
		var bws []string
		for _, bw := range p.opts.Bandwidths {
			bws = append(bws, bw.String())
		}
		s.Bandwidths = strings.Join(bws, ",")
	}
	if s.Queues != "" {
		var qs []string
		for _, q := range p.opts.QueueMults {
			qs = append(qs, strconv.FormatFloat(q, 'g', -1, 64))
		}
		s.Queues = strings.Join(qs, ",")
	}
	if s.AQMs != "" {
		var as []string
		for _, a := range p.opts.AQMs {
			as = append(as, string(a))
		}
		s.AQMs = strings.Join(as, ",")
	}
	if s.Pairings != "" {
		var ps []string
		for _, pr := range p.opts.Pairings {
			ps = append(ps, string(pr.CCA1)+":"+string(pr.CCA2))
		}
		s.Pairings = strings.Join(ps, ",")
	}
	if s.Seeds < 1 {
		s.Seeds = 1
	}
	if s.Duration != "" {
		s.Duration = p.duration.String()
	}
	if s.MaxWall != "" {
		s.MaxWall = p.maxWall.String()
	}
	// Parse returns normalized, non-empty specs, so any spelling of a
	// fault profile or workload (preset, JSON, @file) canonicalizes to its
	// content JSON: @file specs hash by content, not by path, and
	// equivalent spellings coalesce onto one sweepd job and cache entry.
	// The canonical dumbbell canonicalizes away entirely, so "-topo
	// dumbbell" submissions share keys, caches and journals with legacy
	// sweeps.
	s.Faults, s.Topo, s.Flows = "", "", ""
	if p.profile != nil {
		data, err := json.Marshal(p.profile)
		if err != nil {
			return s, fmt.Errorf("experiment: spec faults: %w", err)
		}
		s.Faults = string(data)
	}
	if p.topology != nil && !topo.IsDumbbell(p.topology) {
		s.Topo = string(p.topology.Canonical())
	}
	if p.flowSpec != nil {
		data, err := json.Marshal(p.flowSpec)
		if err != nil {
			return s, fmt.Errorf("experiment: spec flows: %w", err)
		}
		s.Flows = string(data)
	}
	return s, nil
}
