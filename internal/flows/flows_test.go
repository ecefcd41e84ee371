package flows

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLognormalParams checks the p5/p95 → (μ, σ) inversion against hand
// computations and the defining round-trip identities.
func TestLognormalParams(t *testing.T) {
	// Degenerate point mass: p5 == p95 == e² → μ = 2, σ = 0.
	mu, sigma := LognormalParams(math.Exp(2), math.Exp(2))
	if math.Abs(mu-2) > 1e-12 || sigma != 0 {
		t.Fatalf("point mass: got mu=%v sigma=%v, want mu=2 sigma=0", mu, sigma)
	}

	// Symmetric case: p5 = e^(2−z95), p95 = e^(2+z95) → μ = 2, σ = 1.
	mu, sigma = LognormalParams(math.Exp(2-z95), math.Exp(2+z95))
	if math.Abs(mu-2) > 1e-12 || math.Abs(sigma-1) > 1e-12 {
		t.Fatalf("unit sigma: got mu=%v sigma=%v, want mu=2 sigma=1", mu, sigma)
	}

	// Round trip on the default mice parameters: the implied percentiles
	// exp(μ ± z95·σ) must recover p5 and p95.
	p5, p95 := float64(DefaultSizeP5), float64(DefaultSizeP95)
	mu, sigma = LognormalParams(p5, p95)
	if got := math.Exp(mu - z95*sigma); math.Abs(got-p5)/p5 > 1e-12 {
		t.Errorf("round-trip p5: got %v want %v", got, p5)
	}
	if got := math.Exp(mu + z95*sigma); math.Abs(got-p95)/p95 > 1e-12 {
		t.Errorf("round-trip p95: got %v want %v", got, p95)
	}
	// μ is the log of the geometric mean.
	if want := math.Log(math.Sqrt(p5 * p95)); math.Abs(mu-want) > 1e-9 {
		t.Errorf("mu: got %v want log geometric mean %v", mu, want)
	}
}

// TestSamplerMoments draws a large sample and checks that the empirical
// 5th/95th percentile mass lands where the parameterization pins it.
func TestSamplerMoments(t *testing.T) {
	pop := Population{SizeP5: DefaultSizeP5, SizeP95: DefaultSizeP95}
	s := newSizeSampler(pop)
	rng := sim.NewRNG(7)
	const n = 100000
	below, above := 0, 0
	for i := 0; i < n; i++ {
		v := s.sample(rng)
		if v < 1 {
			t.Fatalf("sample %d below 1 byte: %d", i, v)
		}
		if v > int64(maxFlowSize) {
			t.Fatalf("sample %d above cap: %d", i, v)
		}
		if v < int64(pop.SizeP5) {
			below++
		}
		if v > int64(pop.SizeP95) {
			above++
		}
	}
	if f := float64(below) / n; f < 0.04 || f > 0.06 {
		t.Errorf("mass below p5: %.4f, want ≈0.05", f)
	}
	if f := float64(above) / n; f < 0.04 || f > 0.06 {
		t.Errorf("mass above p95: %.4f, want ≈0.05", f)
	}
}

// TestSamplerPointMass: p5 == p95 pins every flow to that size.
func TestSamplerPointMass(t *testing.T) {
	s := newSizeSampler(Population{SizeP5: 1000, SizeP95: 1000})
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if v := s.sample(rng); v != 1000 {
			t.Fatalf("point-mass sample %d: got %d want 1000", i, v)
		}
	}
}

// TestProcessDeterminism: the arrival schedule is a pure function of
// (seed, population index, parameters) — replaying yields the identical
// sequence, and distinct population indices get uncorrelated streams.
func TestProcessDeterminism(t *testing.T) {
	pop := Population{MeanArrival: 50 * time.Millisecond,
		SizeP5: DefaultSizeP5, SizeP95: DefaultSizeP95}
	type arrival struct {
		at   time.Duration
		size int64
	}
	draw := func(seed uint64, pi int) []arrival {
		p := NewProcess(seed, pi, pop)
		var out []arrival
		for i := 0; i < 200; i++ {
			at, size, ok := p.Next()
			if !ok {
				t.Fatalf("uncapped process exhausted at %d", i)
			}
			out = append(out, arrival{at, size})
		}
		return out
	}
	a, b := draw(42, 0), draw(42, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := draw(42, 1)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("population streams correlated: %d/%d identical arrivals", same, len(a))
	}
	// Arrival times strictly advance (Exp never returns 0 gaps of exactly
	// zero is fine, but the sequence must be non-decreasing).
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("arrival %d before its predecessor: %v < %v", i, a[i].at, a[i-1].at)
		}
	}
}

// TestProcessCapAndStart: MaxFlows caps emissions and Start delays the
// first arrival.
func TestProcessCapAndStart(t *testing.T) {
	pop := Population{MeanArrival: 10 * time.Millisecond, SizeP5: 1000,
		SizeP95: 1000, Start: time.Second, MaxFlows: 3}
	p := NewProcess(9, 0, pop)
	var n int
	for {
		at, _, ok := p.Next()
		if !ok {
			break
		}
		if at < time.Second {
			t.Fatalf("arrival %d before Start: %v", n, at)
		}
		n++
		if n > 10 {
			t.Fatal("MaxFlows cap not honored")
		}
	}
	if n != 3 || p.Emitted() != 3 {
		t.Fatalf("emitted %d (Emitted()=%d), want 3", n, p.Emitted())
	}
}

func TestParsePresets(t *testing.T) {
	s, err := Parse("mice")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Populations) != 1 || s.Populations[0].Name != "mice" {
		t.Fatalf("mice preset: %+v", s)
	}
	p := s.Populations[0]
	if p.MeanArrival != DefaultMeanArrival || p.SizeP5 != DefaultSizeP5 ||
		p.SizeP95 != DefaultSizeP95 || p.CCA != cca.Cubic {
		t.Fatalf("mice defaults: %+v", p)
	}

	s, err = Parse("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Populations) != 2 || s.Populations[0].Name != "mice" || s.Populations[1].Name != "elephants" {
		t.Fatalf("mixed preset: %+v", s)
	}

	s, err = Parse("mice:arrival=100ms,p95=1MB,cca=bbr1,start=2s,max=50+elephants")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Populations) != 2 {
		t.Fatalf("want 2 populations, got %+v", s)
	}
	p = s.Populations[0]
	if p.MeanArrival != 100*time.Millisecond || p.SizeP95 != units.Megabyte ||
		p.CCA != cca.BBRv1 || p.Start != 2*time.Second || p.MaxFlows != 50 {
		t.Fatalf("customized mice: %+v", p)
	}
}

func TestParseJSONAndFile(t *testing.T) {
	js := `{"populations":[{"name":"web","mean_arrival_ns":100000000,"size_p5_bytes":2000,"size_p95_bytes":50000,"cca":"reno"}]}`
	s, err := Parse(js)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Populations) != 1 || s.Populations[0].Name != "web" || s.Populations[0].CCA != cca.Reno {
		t.Fatalf("inline JSON: %+v", s)
	}

	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Parse("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID() != s.ID() {
		t.Fatalf("file vs inline spec identity: %q vs %q", s2.ID(), s.ID())
	}
}

func TestParseEmpty(t *testing.T) {
	for _, in := range []string{"", "   "} {
		s, err := Parse(in)
		if err != nil || s != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", in, s, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in, wantSub string
	}{
		{"bogus", "unknown preset"},
		{"mixed:arrival=1s", "takes no arguments"},
		{"mice:weird=1", "unknown key"},
		{"mice:arrival=xyz", "bad arrival"},
		{"mice:p5=NaN", "out of range"},
		{"mice:p95=Inf", "out of range"},
		{"mice:p5=0", "out of range"},
		{"mice:p5=0.2", "out of range"},
		{"mice:p95=900TB", "bad size"},
		{"mice:p95=2000GB", "out of range"},
		{"mice:p5=4MB,p95=1MB", "below p5"},
		{"mice:arrival=1us", "below minimum"},
		{"mice+" + strings.Repeat("mice+", 16) + "mice", "populations (max"},
		{`{"populations":[]}`, "generates no flows"},
		{`{"populations":[{"size_p5_bytes":-5}]}`, "at least 1 byte"},
		{`{bad json`, "parse spec JSON"},
		{"@/nonexistent/flows.json", "read spec"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.in, err, c.wantSub)
		}
	}
}

// TestSpecID: the identifier is stable, captures every parameter, and
// distinguishes differing specs.
func TestSpecID(t *testing.T) {
	s, err := Parse("mice:arrival=100ms,start=1s,max=9")
	if err != nil {
		t.Fatal(err)
	}
	want := "mice-100ms-64.00KB-2.00MB-cubic@1sx9"
	if got := s.ID(); got != want {
		t.Fatalf("ID: got %q want %q", got, want)
	}
	var empty *Spec
	if empty.ID() != "" {
		t.Fatalf("nil spec ID: %q", empty.ID())
	}
	a, _ := Parse("mice")
	b, _ := Parse("mice:p95=1MB")
	if a.ID() == b.ID() {
		t.Fatalf("distinct specs share ID %q", a.ID())
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	s := Spec{Populations: []Population{{Start: -time.Second, MaxFlows: -1}}}
	n := s.Normalize()
	p := n.Populations[0]
	if p.Name != "pop0" || p.MeanArrival != DefaultMeanArrival ||
		p.SizeP5 != DefaultSizeP5 || p.SizeP95 != DefaultSizeP95 ||
		p.CCA != cca.Cubic || p.Start != 0 || p.MaxFlows != 0 {
		t.Fatalf("normalized population: %+v", p)
	}
}

func TestSizeClass(t *testing.T) {
	cases := []struct {
		size int64
		want SizeClass
	}{
		{1, ClassSmall},
		{int64(SmallMax), ClassSmall},
		{int64(SmallMax) + 1, ClassMedium},
		{int64(MediumMax), ClassMedium},
		{int64(MediumMax) + 1, ClassLarge},
		{1 << 40, ClassLarge},
	}
	for _, c := range cases {
		if got := ClassOf(c.size); got != c.want {
			t.Errorf("ClassOf(%d) = %v, want %v", c.size, got, c.want)
		}
	}
	names := map[SizeClass]string{ClassAll: "all", ClassSmall: "small",
		ClassMedium: "medium", ClassLarge: "large", NumSizeClasses: "invalid"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

// TestParseRefusesSilentInputs: a misspelled JSON field (which would
// otherwise keep its default), trailing data after the JSON value and a
// repeated preset key are refused rather than silently dropped or
// overwritten.
func TestParseRefusesSilentInputs(t *testing.T) {
	cases := []struct{ spec, want string }{
		{`{"populations":[{"name":"web","mean_arrival":100000000}]}`, `unknown field "mean_arrival"`},
		{`{"population":[{"name":"web"}]}`, `unknown field "population"`},
		{`{"populations":[{"name":"web"}]} []`, "trailing data"},
		{"mice:arrival=100ms,arrival=1s", `mice: repeated key "arrival"`},
		{"mice+elephants:cca=bbr1,cca=reno", `elephants: repeated key "cca"`},
	}
	for _, c := range cases {
		s, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %+v, %v; want error containing %q", c.spec, s, err, c.want)
		}
	}
}
