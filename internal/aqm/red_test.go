package aqm

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestREDDefaults(t *testing.T) {
	q := NewRED(120_000, false, REDParams{})
	p := q.Params()
	if p.MaxTh != 30_000 {
		t.Errorf("MaxTh = %d, want limit/4", p.MaxTh)
	}
	if p.MinTh != 10_000 {
		t.Errorf("MinTh = %d, want MaxTh/3", p.MinTh)
	}
	if p.MaxP != 0.02 || p.Wq != 0.002 {
		t.Errorf("MaxP/Wq defaults wrong: %+v", p)
	}
}

func TestREDNoDropsBelowMinTh(t *testing.T) {
	q := NewRED(1_000_000, false, REDParams{})
	// Keep the instantaneous queue tiny: enqueue+dequeue alternately.
	for i := 0; i < 1000; i++ {
		if !q.Enqueue(sim.Time(i), mkData(1, 1000)) {
			t.Fatalf("drop below MinTh at %d (avg=%.0f)", i, q.AvgQueue())
		}
		packet.Release(q.Dequeue(sim.Time(i)))
	}
	if q.Stats().Dropped != 0 {
		t.Fatalf("dropped %d below MinTh", q.Stats().Dropped)
	}
}

func TestREDDropsAboveMaxTh(t *testing.T) {
	q := NewRED(100_000, false, REDParams{DisableGentle: true})
	// Fill without draining: avg climbs past MaxTh and forced drops begin.
	drops := 0
	for i := 0; i < 5000; i++ {
		if !q.Enqueue(sim.Time(i), mkData(1, 1000)) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops despite sustained overload")
	}
	if q.Bytes() > q.Capacity() {
		t.Fatal("occupancy exceeds capacity")
	}
}

func TestREDDropProbMonotone(t *testing.T) {
	// Property: dropProb is nondecreasing in the average queue estimate.
	q := NewRED(1_000_000, false, REDParams{})
	f := func(a, b uint32) bool {
		x, y := float64(a%2_000_000), float64(b%2_000_000)
		if x > y {
			x, y = y, x
		}
		q.avg = x
		px := q.dropProb()
		q.avg = y
		py := q.dropProb()
		return px <= py && px >= 0 && py <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestREDGentleRamp(t *testing.T) {
	q := NewRED(1_200_000, false, REDParams{})
	p := q.Params()
	q.avg = float64(p.MaxTh) * 1.5
	prob := q.dropProb()
	if prob <= p.MaxP || prob >= 1 {
		t.Errorf("gentle region prob = %.3f, want in (MaxP, 1)", prob)
	}
	q.avg = float64(p.MaxTh) * 2.1
	if q.dropProb() != 1 {
		t.Error("above 2·MaxTh everything must drop")
	}
}

func TestREDClassicCliff(t *testing.T) {
	q := NewRED(1_200_000, false, REDParams{DisableGentle: true})
	p := q.Params()
	q.avg = float64(p.MaxTh) + 1
	if q.dropProb() != 1 {
		t.Error("classic RED drops everything at MaxTh")
	}
}

func TestREDIdleDecay(t *testing.T) {
	q := NewRED(1_000_000, false, REDParams{MeanPktTime: 100 * time.Microsecond})
	// Build up an average.
	for i := 0; i < 200; i++ {
		q.Enqueue(0, mkData(1, 2000))
	}
	for q.Len() > 0 {
		packet.Release(q.Dequeue(sim.Time(1000)))
	}
	before := q.AvgQueue()
	if before <= 0 {
		t.Skip("no average accumulated")
	}
	// A long idle period then one arrival: avg should have decayed.
	q.Enqueue(sim.Duration(5*time.Second), mkData(1, 2000))
	if q.AvgQueue() >= before {
		t.Errorf("avg did not decay across idle: before=%.1f after=%.1f", before, q.AvgQueue())
	}
}

func TestREDECNMarksInsteadOfDrops(t *testing.T) {
	mk := func(ecn bool) (drops, marks uint64) {
		q := NewRED(200_000, ecn, REDParams{Seed: 7})
		for i := 0; i < 3000; i++ {
			p := mkData(1, 1000)
			p.ECN = packet.ECT0
			q.Enqueue(sim.Time(i), p)
			if i%2 == 0 { // drain slowly so avg sits between thresholds
				if d := q.Dequeue(sim.Time(i)); d != nil {
					packet.Release(d)
				}
			}
		}
		s := q.Stats()
		return s.Dropped, s.Marked
	}
	_, marksOff := mk(false)
	dropsOn, marksOn := mk(true)
	if marksOff != 0 {
		t.Error("ECN disabled must not mark")
	}
	if marksOn == 0 {
		t.Error("ECN enabled should mark ECT packets in the early-drop band")
	}
	_ = dropsOn
}

func TestREDDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) uint64 {
		q := NewRED(150_000, false, REDParams{Seed: seed})
		for i := 0; i < 4000; i++ {
			q.Enqueue(sim.Time(i), mkData(1, 1000))
			if i%2 == 0 {
				if p := q.Dequeue(sim.Time(i)); p != nil {
					packet.Release(p)
				}
			}
		}
		return q.Stats().Dropped
	}
	if run(3) != run(3) {
		t.Error("same seed must reproduce drops exactly")
	}
}

func TestREDNeverExceedsCapacity(t *testing.T) {
	f := func(sizes []uint16) bool {
		q := NewRED(20_000, false, REDParams{Seed: 1})
		for i, s := range sizes {
			q.Enqueue(sim.Time(i), mkData(1, units.ByteSize(s%3000)+100))
			if q.Bytes() > q.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkREDEnqueueDequeue(b *testing.B) {
	q := NewRED(1<<30, false, REDParams{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(sim.Time(i), mkData(1, 8960))
		if p := q.Dequeue(sim.Time(i)); p != nil {
			packet.Release(p)
		}
	}
}

// TestREDDropProbFloydJacobson pins dropProb to the closed form of Floyd &
// Jacobson (1993) §4 plus the gentle extension: p_b = 0 below min_th,
// max_p·(avg−min_th)/(max_th−min_th) up to max_th, then either 1 (classic)
// or max_p + (1−max_p)·(avg−max_th)/max_th up to 2·max_th, and 1 beyond.
func TestREDDropProbFloydJacobson(t *testing.T) {
	const tol = 1e-12
	const minTh, maxTh, maxP = 100_000.0, 300_000.0, 0.02
	params := REDParams{MinTh: minTh, MaxTh: maxTh, MaxP: maxP}
	classic := params
	classic.DisableGentle = true
	for _, tc := range []struct {
		name string
		p    REDParams
		avg  float64
		want float64
	}{
		{"below min_th", params, 60_000, 0},
		{"at min_th", params, minTh, 0},
		{"linear ramp", params, 150_000, maxP * (150_000 - minTh) / (maxTh - minTh)},
		{"linear ramp high", params, 299_999, maxP * (299_999 - minTh) / (maxTh - minTh)},
		{"at max_th", params, maxTh, maxP},
		{"gentle ramp", params, 420_000, maxP + (1-maxP)*(420_000-maxTh)/maxTh},
		{"gentle ramp high", params, 599_999, maxP + (1-maxP)*(599_999-maxTh)/maxTh},
		{"at 2·max_th", params, 2 * maxTh, 1},
		{"above 2·max_th", params, 5 * maxTh, 1},
		{"classic linear ramp", classic, 250_000, maxP * (250_000 - minTh) / (maxTh - minTh)},
		{"classic cliff at max_th", classic, maxTh, 1},
		{"classic above max_th", classic, 420_000, 1},
	} {
		q := NewRED(4_000_000, false, tc.p)
		q.avg = tc.avg
		if got := q.dropProb(); math.Abs(got-tc.want) > tol {
			t.Errorf("%s: dropProb(avg=%.0f) = %.15f, want %.15f", tc.name, tc.avg, got, tc.want)
		}
	}
}

// TestREDInterDropGapUniform checks the count term of Floyd & Jacobson §4.
// With the average held at a fixed p_b in the linear ramp, p_a =
// p_b/(1−count·p_b) makes the number of arrivals from one early drop to the
// next (the drop included, i.e. the accepted count + 1) uniform on
// {1, …, 1/p_b}, with mean (1/p_b + 1)/2 and never more than 1/p_b. Without
// the count term the gap is geometric with mean 1/p_b; doubling max_p
// halves the mean. The tolerance, ±2 arrivals on a mean of 50.5 over 4000
// gaps, is over four standard errors (σ ≈ 28.9, σ/√4000 ≈ 0.46).
func TestREDInterDropGapUniform(t *testing.T) {
	const (
		gaps = 4000
		tol  = 2.0
	)
	// Wq is negligible, so the one-packet backlog never moves avg off the
	// midpoint of the ramp: p_b = max_p/2.
	const minTh, maxTh, maxP, avg = 100_000, 300_000, 0.02, 200_000
	q := NewRED(1<<30, false, REDParams{MinTh: minTh, MaxTh: maxTh, MaxP: maxP, Wq: 1e-15, Seed: 11})
	q.avg = avg
	pb := maxP * (avg - minTh) / (maxTh - minTh)
	var sum, since, longest int
	for n := 0; n < gaps; {
		since++
		if q.Enqueue(0, mkData(1, 1000)) {
			packet.Release(q.Dequeue(0))
			continue
		}
		sum += since
		longest = max(longest, since)
		since = 0
		n++
	}
	mean := float64(sum) / gaps
	want := (1/pb + 1) / 2
	t.Logf("%d early drops: mean gap %.2f arrivals (want %.2f), longest %d", gaps, mean, want, longest)
	if math.Abs(mean-want) > tol {
		t.Errorf("mean arrivals per early drop = %.2f, want %.2f ± %.0f", mean, want, tol)
	}
	if longest > int(math.Round(1/pb)) {
		t.Errorf("longest gap = %d arrivals, want ≤ 1/p_b = %.0f", longest, 1/pb)
	}
	if d := q.Stats().Dropped; d != gaps {
		t.Errorf("Dropped = %d, want %d early drops", d, gaps)
	}
}
