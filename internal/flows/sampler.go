// The open-loop arrival machinery: lognormal size sampling pinned by its
// 5th/95th percentiles, and a Poisson arrival process whose schedule is a
// pure function of (seed, population index, population parameters).
package flows

import (
	"math"
	"time"

	"repro/internal/sim"
)

// z95 is the standard normal 95th-percentile quantile Φ⁻¹(0.95); the
// 5th is its negation, which is what makes the p5/p95 inversion below a
// two-equation linear system in (μ, σ).
const z95 = 1.6448536269514722

// LognormalParams inverts the (p5, p95) percentile parameterization into
// the underlying normal's (μ, σ): ln p5 = μ − z95·σ and ln p95 = μ + z95·σ,
// so μ is the mid-point of the log-percentiles (the log of the geometric
// mean) and σ their half-spread over z95. p5 == p95 yields σ = 0, a
// degenerate point mass — every flow the same size.
func LognormalParams(p5, p95 float64) (mu, sigma float64) {
	lp5, lp95 := math.Log(p5), math.Log(p95)
	return (lp5 + lp95) / 2, (lp95 - lp5) / (2 * z95)
}

// sizeSampler draws flow sizes in bytes from the population's lognormal.
type sizeSampler struct {
	mu, sigma float64
}

func newSizeSampler(p Population) sizeSampler {
	mu, sigma := LognormalParams(float64(p.SizeP5), float64(p.SizeP95))
	return sizeSampler{mu: mu, sigma: sigma}
}

// sample draws one flow size, clamped to [1, maxFlowSize] so a far-tail
// draw can neither underflow to an empty transfer nor exceed the spec cap.
// Exactly two uniform draws are consumed per sample (Box–Muller with a
// shifted u1 that can never be 0), keeping the RNG stream position a pure
// function of the sample count.
func (s sizeSampler) sample(rng *sim.RNG) int64 {
	u1 := 1 - float64(rng.Float64()) // in (0, 1]: log is finite; rounded: never fused
	u2 := rng.Float64()
	n := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	v := math.Exp(s.mu + float64(s.sigma*n))
	if !(v > 1) { // NaN-safe clamp
		return 1
	}
	if v > float64(maxFlowSize) {
		return int64(maxFlowSize)
	}
	return int64(math.Round(v))
}

// arrivalSalt spaces the per-population RNG seeds (the splitmix64/
// golden-gamma increment, the same constant the seeder mixes with, so
// nearby experiment seeds and population indices land on uncorrelated
// streams).
const arrivalSalt = 0x9e3779b97f4a7c15

// Process generates one population's arrival schedule. Its RNG is
// derived from (seed, population index) alone — not the engine RNG — so
// arrival times and flow sizes are fixed by the experiment config,
// unperturbed by elephant jitter draws or any other simulation
// randomness, and identical across worker counts and replay.
type Process struct {
	pop     Population
	rng     *sim.RNG
	sampler sizeSampler
	next    time.Duration // absolute time of the next arrival
	n       int           // arrivals emitted so far
}

// NewProcess builds the arrival process for population index pi of a run
// seeded with seed.
func NewProcess(seed uint64, pi int, pop Population) *Process {
	p := &Process{
		pop:     pop,
		rng:     sim.NewRNG(seed + uint64(pi+1)*arrivalSalt),
		sampler: newSizeSampler(pop),
	}
	p.next = pop.Start + p.gap()
	return p
}

// gap draws one exponential inter-arrival time.
func (p *Process) gap() time.Duration {
	return time.Duration(p.rng.Exp(float64(p.pop.MeanArrival)))
}

// Next returns the absolute arrival time and size of the next flow, and
// advances the process. ok is false once the population's MaxFlows cap
// is reached (the caller stops the process at the run horizon itself).
func (p *Process) Next() (at time.Duration, size int64, ok bool) {
	if p.pop.MaxFlows > 0 && p.n >= p.pop.MaxFlows {
		return 0, 0, false
	}
	at = p.next
	size = p.sampler.sample(p.rng)
	p.next += p.gap()
	p.n++
	return at, size, true
}

// Emitted returns how many arrivals the process has generated.
func (p *Process) Emitted() int { return p.n }
