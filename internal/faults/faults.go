// Package faults implements a deterministic fault-injection layer for the
// simulated network: a scripted, seed-reproducible timeline of impairments
// applied to a netem.Port. The paper's sweeps assume a clean, static
// dumbbell; this package supplies the regimes its future-work section (and
// the related BBR evaluations) identify as the ones where fairness
// inverts — bursty Gilbert–Elliott loss, transient link outages (flaps),
// mid-transfer bandwidth steps, and RTT step changes.
//
// A Profile is pure data (JSON-serializable, part of experiment result
// identity via ID); Apply arms it on an engine+port pair. All randomness
// comes from the port's engine-derived RNG, so the same engine seed and
// profile reproduce the same packet-level fault sequence bit for bit.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/clause"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/units"
)

// GilbertElliott parameterizes the two-state bursty-loss chain. The chain
// advances once per transmitted packet: in the good state packets drop
// with probability LossGood (usually 0), in the bad state with LossBad;
// transitions happen good→bad with PGoodBad and bad→good with PBadGood.
// Mean burst length is 1/PBadGood packets and the long-run bad fraction is
// PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	PGoodBad float64 `json:"p_good_bad"`
	PBadGood float64 `json:"p_bad_good"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad"`
}

// Flap is one transient link outage: the port goes down at At (draining
// and dropping its queue) and comes back after Down.
type Flap struct {
	At   time.Duration `json:"at_ns"`
	Down time.Duration `json:"down_ns"`
}

// BWStep changes the port's link rate at At. Rate sets an absolute rate;
// when Rate is zero, Factor scales the rate the port had when the profile
// was applied (Factor 1 restores it).
type BWStep struct {
	At     time.Duration   `json:"at_ns"`
	Rate   units.Bandwidth `json:"rate_bps,omitempty"`
	Factor float64         `json:"factor,omitempty"`
}

// RTTStep changes the port's propagation delay at At. Delay sets an
// absolute one-way delay for the port's link leg; when Delay is zero,
// Factor scales the delay the port had when the profile was applied
// (Factor 1 restores it).
type RTTStep struct {
	At     time.Duration `json:"at_ns"`
	Delay  time.Duration `json:"delay_ns,omitempty"`
	Factor float64       `json:"factor,omitempty"`
}

// Profile is a complete scripted fault timeline for one port.
type Profile struct {
	GE       *GilbertElliott `json:"ge,omitempty"`
	Flaps    []Flap          `json:"flaps,omitempty"`
	BWSteps  []BWStep        `json:"bw_steps,omitempty"`
	RTTSteps []RTTStep       `json:"rtt_steps,omitempty"`
}

// Empty reports whether the profile injects nothing.
func (p *Profile) Empty() bool {
	return p == nil ||
		(p.GE == nil && len(p.Flaps) == 0 && len(p.BWSteps) == 0 && len(p.RTTSteps) == 0)
}

func clamp01(v float64) float64 {
	if !(v > 0) { // negatives and NaN (strconv accepts "NaN") both clamp to 0
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Normalize returns the effective profile: probabilities clamped to [0,1],
// negative times and durations clamped to zero, no-op entries dropped, and
// each timeline sorted by activation time so Apply and ID are order-
// independent of how the profile was written.
func (p Profile) Normalize() Profile {
	if p.GE != nil {
		ge := *p.GE
		ge.PGoodBad = clamp01(ge.PGoodBad)
		ge.PBadGood = clamp01(ge.PBadGood)
		ge.LossGood = clamp01(ge.LossGood)
		ge.LossBad = clamp01(ge.LossBad)
		if ge.LossGood == 0 && ge.LossBad == 0 {
			p.GE = nil
		} else {
			p.GE = &ge
		}
	}
	flaps := make([]Flap, 0, len(p.Flaps))
	for _, f := range p.Flaps {
		if f.At < 0 {
			f.At = 0
		}
		if f.Down <= 0 {
			continue
		}
		flaps = append(flaps, f)
	}
	sort.Slice(flaps, func(i, j int) bool { return flaps[i].At < flaps[j].At })
	p.Flaps = flaps

	bws := make([]BWStep, 0, len(p.BWSteps))
	for _, s := range p.BWSteps {
		if s.At < 0 {
			s.At = 0
		}
		if s.Rate <= 0 && s.Factor <= 0 {
			continue
		}
		bws = append(bws, s)
	}
	sort.Slice(bws, func(i, j int) bool { return bws[i].At < bws[j].At })
	p.BWSteps = bws

	rtts := make([]RTTStep, 0, len(p.RTTSteps))
	for _, s := range p.RTTSteps {
		if s.At < 0 {
			s.At = 0
		}
		if s.Delay <= 0 && s.Factor <= 0 {
			continue
		}
		rtts = append(rtts, s)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i].At < rtts[j].At })
	p.RTTSteps = rtts
	return p
}

// ID renders a compact, filesystem-safe identifier that captures every
// parameter of the (normalized) profile, for embedding in experiment
// result identities. An empty profile renders "".
func (p *Profile) ID() string {
	if p.Empty() {
		return ""
	}
	n := p.Normalize()
	var parts []string
	if n.GE != nil {
		parts = append(parts, fmt.Sprintf("ge%g-%g-%g-%g",
			n.GE.PGoodBad, n.GE.PBadGood, n.GE.LossGood, n.GE.LossBad))
	}
	for _, f := range n.Flaps {
		parts = append(parts, fmt.Sprintf("flap%s-%s", dur(f.At), dur(f.Down)))
	}
	for _, s := range n.BWSteps {
		if s.Rate > 0 {
			parts = append(parts, fmt.Sprintf("bw%s@%s", s.Rate, dur(s.At)))
		} else {
			parts = append(parts, fmt.Sprintf("bwx%g@%s", s.Factor, dur(s.At)))
		}
	}
	for _, s := range n.RTTSteps {
		if s.Delay > 0 {
			parts = append(parts, fmt.Sprintf("rtt%s@%s", dur(s.Delay), dur(s.At)))
		} else {
			parts = append(parts, fmt.Sprintf("rttx%g@%s", s.Factor, dur(s.At)))
		}
	}
	return strings.Join(parts, "+")
}

// dur renders a duration without the spaces or odd characters that would
// hurt a filename ("200ms", "5s", "1m30s" are all safe as-is).
func dur(d time.Duration) string { return d.String() }

// Apply arms the profile on port po: the Gilbert–Elliott chain is
// installed immediately and every timeline entry is scheduled on eng
// relative to the current simulation time. Relative BW/RTT factors resolve
// against the port's rate and delay at Apply time. A nil or empty profile
// is a no-op; any other takes the port off the fused path before the run
// starts, so every packet meets the timeline at the end of its
// serialization.
func Apply(eng *sim.Engine, po *netem.Port, p *Profile) {
	if p.Empty() {
		return
	}
	po.Unfuse()
	n := p.Normalize()
	if n.GE != nil {
		po.SetGELoss(n.GE.PGoodBad, n.GE.PBadGood, n.GE.LossGood, n.GE.LossBad)
	}
	for _, f := range n.Flaps {
		eng.Schedule(f.At, func() { po.SetDown(true) })
		eng.Schedule(f.At+f.Down, func() { po.SetDown(false) })
	}
	baseRate := po.Rate()
	for _, s := range n.BWSteps {
		rate := s.Rate
		if rate <= 0 {
			rate = units.Bandwidth(float64(baseRate) * s.Factor)
		}
		eng.Schedule(s.At, func() { po.SetRate(rate) })
	}
	baseDelay := po.Delay()
	for _, s := range n.RTTSteps {
		delay := s.Delay
		if delay <= 0 {
			delay = time.Duration(float64(baseDelay) * s.Factor)
		}
		eng.Schedule(s.At, func() { po.SetDelay(delay) })
	}
}

// Parse builds a profile from a CLI spec in the clause grammar ("@file",
// inline JSON, or a "+"-separated preset list). Presets and their keys
// (defaults in parentheses):
//
//	flap     at (5s), down (200ms)
//	ge       pgb (0.005), pbg (0.1), good (0), bad (0.5)
//	bwstep   at (5s), factor (0.5) or rate (e.g. 50Mbps)
//	rttstep  at (5s), factor (2) or delay (e.g. 31ms)
//
// e.g. "flap" or "ge:pgb=0.01,bad=1+flap:at=10s,down=500ms". The result
// is normalized; a profile that injects nothing is an error.
func Parse(spec string) (*Profile, error) {
	p, err := clause.Parse("faults", spec, apply)
	if p == nil || err != nil {
		return nil, err
	}
	n := p.Normalize()
	if n.Empty() {
		return nil, fmt.Errorf("faults: profile %q injects nothing", strings.TrimSpace(spec))
	}
	return &n, nil
}

// apply adds one preset clause to p.
func apply(p *Profile, name string, a *clause.Args) error {
	switch name {
	case "flap":
		p.Flaps = append(p.Flaps, Flap{At: a.Dur("at", 5*time.Second), Down: a.Dur("down", 200*time.Millisecond)})
	case "ge":
		p.GE = &GilbertElliott{
			PGoodBad: a.Float("pgb", 0.005),
			PBadGood: a.Float("pbg", 0.1),
			LossGood: a.Float("good", 0),
			LossBad:  a.Float("bad", 0.5),
		}
	case "bwstep":
		step := BWStep{At: a.Dur("at", 5*time.Second)}
		if a.Has("rate") {
			step.Rate = clause.Get(a, "rate", 0, units.ParseBandwidth)
		} else {
			step.Factor = a.Float("factor", 0.5)
		}
		p.BWSteps = append(p.BWSteps, step)
	case "rttstep":
		step := RTTStep{At: a.Dur("at", 5*time.Second)}
		if a.Has("delay") {
			step.Delay = a.Dur("delay", 0)
		} else {
			step.Factor = a.Float("factor", 2)
		}
		p.RTTSteps = append(p.RTTSteps, step)
	default:
		return fmt.Errorf("unknown preset %q (want flap, ge, bwstep or rttstep)", name)
	}
	return nil
}
