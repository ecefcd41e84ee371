// Package flows implements the open-loop flow-arrival workload: named
// populations of short transfers ("mice") arriving by a Poisson process
// with lognormally distributed sizes, opened and torn down dynamically
// inside the engine while the long-running elephants hold the link. It
// follows the ccafct-style FCT methodology — mean inter-arrival and a
// size distribution pinned by its 5th/95th percentiles — so each
// CCA×AQM pairing can be scored by the flow-completion-time damage it
// inflicts on background traffic.
//
// A Spec is pure data (JSON-serializable, content-addressed into
// experiment result identity exactly like fault profiles and topologies).
// All randomness in the arrival process comes from per-population RNGs
// derived from the experiment seed — never from the engine RNG — so the
// arrival times and flow sizes are a pure function of (seed, spec),
// independent of anything else the simulation does.
package flows

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cca"
	"repro/internal/clause"
	"repro/internal/units"
)

// Population is one open-loop arrival process: flows arrive with
// exponential inter-arrival times of mean MeanArrival, each transferring
// a lognormally distributed number of bytes whose 5th and 95th
// percentiles are SizeP5 and SizeP95, under congestion control CCA.
type Population struct {
	Name        string         `json:"name"`
	MeanArrival time.Duration  `json:"mean_arrival_ns"`
	SizeP5      units.ByteSize `json:"size_p5_bytes"`
	SizeP95     units.ByteSize `json:"size_p95_bytes"`
	CCA         cca.Name       `json:"cca"`

	// Start delays the first arrival (flows never arrive before it).
	Start time.Duration `json:"start_ns,omitempty"`
	// MaxFlows caps the number of arrivals (0 = unlimited for the run).
	MaxFlows int `json:"max_flows,omitempty"`
}

// Spec is a complete open-loop workload: one or more populations sharing
// the link with the configured long-running flows.
type Spec struct {
	Populations []Population `json:"populations"`
}

// Defaults are the ccafct-style mice parameters used when a population
// leaves a field zero.
const (
	DefaultMeanArrival = 200 * time.Millisecond
	DefaultSizeP5      = 64 * units.Kilobyte
	DefaultSizeP95     = 2 * units.Megabyte
)

// maxFlowSize bounds a single transfer; hostile specs whose lognormal
// percentiles imply terabyte mice are rejected, not simulated.
const maxFlowSize = units.ByteSize(1) << 40 // 1 TiB

// maxPopulations bounds a spec; each population costs one arrival process
// and one RNG stream.
const maxPopulations = 16

// minMeanArrival bounds the arrival rate; an adversarial near-zero mean
// would schedule unbounded arrivals per simulated second.
const minMeanArrival = time.Millisecond

// Empty reports whether the spec generates no flows.
func (s *Spec) Empty() bool { return s == nil || len(s.Populations) == 0 }

// Normalize returns the effective spec: zero fields filled with the
// ccafct defaults (arrival 200ms, sizes 64KB–2MB, CCA cubic), unnamed
// populations named by position, and negative Start/MaxFlows clamped to
// zero. Population order is preserved — it is part of the workload's
// identity, since it fixes which RNG stream each population draws from.
func (s Spec) Normalize() Spec {
	pops := make([]Population, 0, len(s.Populations))
	for i, p := range s.Populations {
		if p.Name == "" {
			p.Name = fmt.Sprintf("pop%d", i)
		}
		if p.MeanArrival == 0 {
			p.MeanArrival = DefaultMeanArrival
		}
		if p.SizeP5 == 0 {
			p.SizeP5 = DefaultSizeP5
		}
		if p.SizeP95 == 0 {
			p.SizeP95 = DefaultSizeP95
		}
		if p.CCA == "" {
			p.CCA = cca.Cubic
		}
		if p.Start < 0 {
			p.Start = 0
		}
		if p.MaxFlows < 0 {
			p.MaxFlows = 0
		}
		pops = append(pops, p)
	}
	s.Populations = pops
	return s
}

// Validate rejects specs the simulator should refuse to run: zero or
// negative flow sizes, inverted percentiles, absurd sizes or arrival
// rates, and unknown congestion controllers. Call on a normalized spec.
func (s *Spec) Validate() error {
	if s.Empty() {
		return nil
	}
	if len(s.Populations) > maxPopulations {
		return fmt.Errorf("flows: %d populations (max %d)", len(s.Populations), maxPopulations)
	}
	for _, p := range s.Populations {
		if p.MeanArrival < minMeanArrival {
			return fmt.Errorf("flows: %s: mean arrival %v below minimum %v", p.Name, p.MeanArrival, minMeanArrival)
		}
		if p.SizeP5 < 1 {
			return fmt.Errorf("flows: %s: size p5 %d bytes (flows must be at least 1 byte)", p.Name, p.SizeP5)
		}
		if p.SizeP95 < p.SizeP5 {
			return fmt.Errorf("flows: %s: size p95 %v below p5 %v", p.Name, p.SizeP95, p.SizeP5)
		}
		if p.SizeP95 > maxFlowSize {
			return fmt.Errorf("flows: %s: size p95 %v exceeds the %v cap", p.Name, p.SizeP95, maxFlowSize)
		}
		if _, err := cca.Parse(string(p.CCA)); err != nil {
			return fmt.Errorf("flows: %s: %w", p.Name, err)
		}
	}
	return nil
}

// ID renders a compact, filesystem-safe identifier capturing every
// parameter of the (normalized) spec, for embedding in experiment result
// identities. An empty spec renders "".
func (s *Spec) ID() string {
	if s.Empty() {
		return ""
	}
	n := s.Normalize()
	parts := make([]string, 0, len(n.Populations))
	for _, p := range n.Populations {
		part := fmt.Sprintf("%s-%s-%s-%s-%s", p.Name, p.MeanArrival, p.SizeP5, p.SizeP95, p.CCA)
		if p.Start > 0 {
			part += "@" + p.Start.String()
		}
		if p.MaxFlows > 0 {
			part += fmt.Sprintf("x%d", p.MaxFlows)
		}
		parts = append(parts, part)
	}
	return strings.Join(parts, "+")
}

// Presets, ccafct-flavored: "mice" is the short-transfer background
// population the FCT methodology measures; "elephants" is an open-loop
// stream of bulk transfers; "mixed" is both.
func preset(name string) (Spec, bool) {
	mice := Population{Name: "mice", MeanArrival: DefaultMeanArrival,
		SizeP5: DefaultSizeP5, SizeP95: DefaultSizeP95, CCA: cca.Cubic}
	elephants := Population{Name: "elephants", MeanArrival: 2 * time.Second,
		SizeP5: 8 * units.Megabyte, SizeP95: 64 * units.Megabyte, CCA: cca.Cubic}
	switch name {
	case "mice":
		return Spec{Populations: []Population{mice}}, true
	case "elephants":
		return Spec{Populations: []Population{elephants}}, true
	case "mixed":
		return Spec{Populations: []Population{mice, elephants}}, true
	}
	return Spec{}, false
}

// Parse builds a workload spec from a CLI string in the clause grammar
// ("@file", inline JSON, or a "+"-separated preset list). Presets (one
// population each, except mixed which adds both):
//
//	mice       arrival (200ms), p5 (64KB), p95 (2MB), cca (cubic)
//	elephants  arrival (2s), p5 (8MB), p95 (64MB), cca (cubic)
//	mixed      both of the above (no keys)
//
// Shared keys: arrival (duration), p5/p95 (sizes like 64KB, 2MB), cca,
// start (duration), max (arrival cap). e.g. "mice" or
// "mice:arrival=100ms,p95=1MB+elephants:cca=bbr1". The result is
// normalized and validated; a spec that generates no flows is an error.
func Parse(spec string) (*Spec, error) {
	s, err := clause.Parse("flows", spec, apply)
	if s == nil || err != nil {
		return nil, err
	}
	n := s.Normalize()
	if n.Empty() {
		return nil, fmt.Errorf("flows: spec %q generates no flows", strings.TrimSpace(spec))
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

// apply adds one preset clause's populations to s.
func apply(s *Spec, name string, a *clause.Args) error {
	base, ok := preset(name)
	if !ok {
		return fmt.Errorf("unknown preset %q (want mice, elephants or mixed)", name)
	}
	if len(base.Populations) != 1 {
		if a.Len() > 0 {
			return fmt.Errorf("preset %q takes no arguments (customize mice/elephants individually)", name)
		}
		s.Populations = append(s.Populations, base.Populations...)
		return nil
	}
	p := base.Populations[0]
	p.MeanArrival = a.Dur("arrival", p.MeanArrival)
	p.SizeP5 = clause.Get(a, "p5", p.SizeP5, parseSize)
	p.SizeP95 = clause.Get(a, "p95", p.SizeP95, parseSize)
	p.CCA = clause.Get(a, "cca", p.CCA, cca.Parse)
	p.Start = a.Dur("start", p.Start)
	p.MaxFlows = a.Int("max", p.MaxFlows)
	s.Populations = append(s.Populations, p)
	return nil
}

// parseSize parses a byte size like "64KB", "2MB", "1.5GB" or "9000"
// (decimal units, matching units.ByteSize). NaN, infinities, fractions
// under one byte and sizes beyond the per-flow cap are rejected here so
// hostile CLI specs fail fast instead of reaching the sampler.
func parseSize(v string) (units.ByteSize, error) {
	t := strings.TrimSpace(v)
	mult := 1.0
	switch u := strings.ToUpper(t); {
	case strings.HasSuffix(u, "GB"):
		mult, t = float64(units.Gigabyte), t[:len(t)-2]
	case strings.HasSuffix(u, "MB"):
		mult, t = float64(units.Megabyte), t[:len(t)-2]
	case strings.HasSuffix(u, "KB"):
		mult, t = float64(units.Kilobyte), t[:len(t)-2]
	case strings.HasSuffix(u, "B"):
		t = t[:len(t)-1]
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", v)
	}
	b := f * mult
	if math.IsNaN(b) || math.IsInf(b, 0) || b < 1 || b > float64(maxFlowSize) {
		return 0, fmt.Errorf("size %q out of range [1B, %v]", v, maxFlowSize)
	}
	return units.ByteSize(b), nil
}
