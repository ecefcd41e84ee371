// Package metrics computes the paper's evaluation quantities: Jain's
// fairness index (eq. 2), link utilization φ (eq. 3), relative
// retransmissions RR (eq. 4), and time series of per-flow / per-sender
// throughput sampled from a running simulation.
package metrics

import (
	"math"
	"time"

	"repro/internal/units"
)

// Jain computes Jain's fairness index over per-entity throughputs
// (eq. 2): (Σs)² / (n·Σs²). It is 1 when all shares are equal and
// approaches 1/n when one entity takes everything. Entities with zero
// throughput still count. Returns 1 for empty or all-zero input (an idle
// link is trivially fair).
func Jain(shares []float64) float64 {
	if len(shares) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, s := range shares {
		if s < 0 {
			s = 0
		}
		sum += s
		sumSq += float64(s * s) // rounded product: never fused (Go spec)
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(shares)) * sumSq)
}

// Utilization computes φ (eq. 3): total goodput over capacity, for a
// measurement of total bytes delivered during dur over a bottleneck of rate.
func Utilization(totalBytes int64, dur time.Duration, bottleneck units.Bandwidth) float64 {
	if dur <= 0 || bottleneck <= 0 {
		return 0
	}
	return float64(totalBytes) * 8 / dur.Seconds() / float64(bottleneck)
}

// RelativeRetransmissions computes RR (eq. 4): the retransmission count of
// a configuration normalized by the CUBIC-vs-CUBIC reference in the same
// condition. A zero reference with a nonzero numerator returns +Inf; 0/0 is
// defined as 1 (both configurations were loss-free).
func RelativeRetransmissions(observed, cubicRef uint64) float64 {
	if cubicRef == 0 {
		if observed == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(observed) / float64(cubicRef)
}

// Harm computes the harm inflicted on an entity whose throughput (or any
// more-is-better metric) fell from a baseline of solo to workload under
// competition, following Ware et al., "Beyond Jain's Fairness Index"
// (HotNets '19): harm = (solo - workload) / solo, clamped to 0 when the
// entity did at least as well as its baseline. Unlike Jain's index, harm is
// asymmetric — it identifies who was hurt and by how much, and a flow that
// merely fails to exploit headroom inflicts no harm. Returns +Inf for a
// non-positive baseline (no solo performance to be harmed relative to).
func Harm(solo, workload float64) float64 {
	if solo <= 0 {
		return math.Inf(1)
	}
	if workload >= solo {
		return 0
	}
	if workload < 0 {
		workload = 0
	}
	// Explicit roundings: a product passed in is never fused into the
	// subtraction where Harm is inlined (Go spec, Arithmetic operators).
	return (float64(solo) - float64(workload)) / solo
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanFinite averages only the finite values (a harm against a zero
// baseline is +Inf and must not poison the mean); 0 when there are none.
func MeanFinite(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Stddev returns the sample standard deviation (0 for n < 2).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d) // rounded product: never fused
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}
