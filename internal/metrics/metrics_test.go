package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestJainKnownValues(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{50, 50}, 1.0},
		{[]float64{100, 0}, 0.5},
		{[]float64{1, 1, 1, 1}, 1.0},
		{[]float64{4, 0, 0, 0}, 0.25},
		{[]float64{}, 1.0},
		{[]float64{0, 0}, 1.0},
		{[]float64{75, 25}, (100.0 * 100.0) / (2 * (75*75 + 25*25))},
	}
	for _, c := range cases {
		got := Jain(c.in)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jain(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJainBounds(t *testing.T) {
	// Property: 1/n <= J <= 1 for any non-negative shares with a positive sum.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		shares := make([]float64, len(raw))
		positive := false
		for i, r := range raw {
			shares[i] = float64(r)
			if r > 0 {
				positive = true
			}
		}
		j := Jain(shares)
		if !positive {
			return j == 1
		}
		n := float64(len(shares))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainScaleInvariant(t *testing.T) {
	// Property: J(k·x) == J(x).
	f := func(a, b, c uint16, k uint8) bool {
		if k == 0 {
			return true
		}
		x := []float64{float64(a), float64(b), float64(c)}
		y := []float64{x[0] * float64(k), x[1] * float64(k), x[2] * float64(k)}
		return math.Abs(Jain(x)-Jain(y)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainEqualSharesAreMaximal(t *testing.T) {
	f := func(v uint16, n uint8) bool {
		if n == 0 || v == 0 {
			return true
		}
		m := int(n%16) + 2
		shares := make([]float64, m)
		for i := range shares {
			shares[i] = float64(v)
		}
		return math.Abs(Jain(shares)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainNegativeClamped(t *testing.T) {
	if j := Jain([]float64{-5, 10}); j != 0.5 {
		t.Errorf("negative share should clamp to 0: %v", j)
	}
}

func TestUtilization(t *testing.T) {
	// 100 Mbit delivered in 1 s over a 100 Mbps link = 1.0.
	got := Utilization(12_500_000, time.Second, 100*units.MegabitPerSec)
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("φ = %v", got)
	}
	if Utilization(1000, 0, units.GigabitPerSec) != 0 {
		t.Error("zero duration")
	}
	if Utilization(1000, time.Second, 0) != 0 {
		t.Error("zero bottleneck")
	}
	half := Utilization(6_250_000, time.Second, 100*units.MegabitPerSec)
	if math.Abs(half-0.5) > 1e-9 {
		t.Errorf("φ = %v, want 0.5", half)
	}
}

func TestRelativeRetransmissions(t *testing.T) {
	if rr := RelativeRetransmissions(100, 50); rr != 2 {
		t.Errorf("RR = %v", rr)
	}
	if rr := RelativeRetransmissions(0, 0); rr != 1 {
		t.Errorf("0/0 should be 1, got %v", rr)
	}
	if rr := RelativeRetransmissions(7, 0); !math.IsInf(rr, 1) {
		t.Errorf("n/0 should be +Inf, got %v", rr)
	}
}

func TestHarmKnownValues(t *testing.T) {
	cases := []struct {
		solo, workload float64
		want           float64
	}{
		{100, 100, 0},   // no loss, no harm
		{100, 150, 0},   // did better than solo: no harm
		{100, 50, 0.5},  // lost half its solo throughput
		{50, 20, 0.6},   // (50-20)/50
		{100, 0, 1},     // starved completely
		{100, -5, 1},    // negative workload clamps to starved
		{10, 2.5, 0.75}, // (10-2.5)/10
	}
	for _, c := range cases {
		if got := Harm(c.solo, c.workload); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Harm(%v, %v) = %v, want %v", c.solo, c.workload, got, c.want)
		}
	}
	if h := Harm(0, 10); !math.IsInf(h, 1) {
		t.Errorf("Harm with zero baseline should be +Inf, got %v", h)
	}
	if h := Harm(-1, 10); !math.IsInf(h, 1) {
		t.Errorf("Harm with negative baseline should be +Inf, got %v", h)
	}
}

func TestHarmBounds(t *testing.T) {
	// Property: 0 <= harm <= 1 for any positive baseline, and harm is
	// antitone in workload (doing worse never decreases harm).
	f := func(soloRaw, w1Raw, w2Raw uint16) bool {
		solo := float64(soloRaw) + 1 // positive baseline
		w1, w2 := float64(w1Raw), float64(w2Raw)
		h1, h2 := Harm(solo, w1), Harm(solo, w2)
		if h1 < 0 || h1 > 1 || h2 < 0 || h2 > 1 {
			return false
		}
		if w1 <= w2 && h1 < h2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHarmAsymmetric(t *testing.T) {
	// The defining contrast with Jain: swapping who wins changes nothing
	// for Jain but everything for harm.
	shares := []float64{80, 20}
	swapped := []float64{20, 80}
	if Jain(shares) != Jain(swapped) {
		t.Fatal("Jain should be symmetric")
	}
	fair := 50.0
	if Harm(fair, shares[1]) <= Harm(fair, shares[0]) {
		t.Error("the starved entity should record strictly more harm")
	}
}

func TestMeanAndStddev(t *testing.T) {
	if Mean(nil) != 0 || Stddev(nil) != 0 {
		t.Error("empty inputs")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if s := Stddev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("stddev = %v", s)
	}
}

func TestMeanFinite(t *testing.T) {
	xs := []float64{1, 2, math.Inf(1), 3, math.NaN()}
	if m := MeanFinite(xs); m != 2 {
		t.Errorf("MeanFinite = %v, want 2", m)
	}
	if MeanFinite([]float64{math.Inf(1)}) != 0 {
		t.Error("all-inf should be 0")
	}
}
