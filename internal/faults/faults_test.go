package faults

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestParsePresets(t *testing.T) {
	p, err := Parse("flap")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flaps) != 1 || p.Flaps[0].At != 5*time.Second || p.Flaps[0].Down != 200*time.Millisecond {
		t.Fatalf("flap defaults: %+v", p.Flaps)
	}

	p, err = Parse("ge:pgb=0.01,bad=1+flap:at=10s,down=500ms+bwstep:at=2s,factor=0.25+rttstep:at=3s,delay=40ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.GE == nil || p.GE.PGoodBad != 0.01 || p.GE.LossBad != 1 || p.GE.PBadGood != 0.1 {
		t.Fatalf("ge: %+v", p.GE)
	}
	if len(p.Flaps) != 1 || p.Flaps[0].Down != 500*time.Millisecond {
		t.Fatalf("flap: %+v", p.Flaps)
	}
	if len(p.BWSteps) != 1 || p.BWSteps[0].Factor != 0.25 {
		t.Fatalf("bwstep: %+v", p.BWSteps)
	}
	if len(p.RTTSteps) != 1 || p.RTTSteps[0].Delay != 40*time.Millisecond {
		t.Fatalf("rttstep: %+v", p.RTTSteps)
	}

	p, err = Parse("bwstep:rate=50Mbps")
	if err != nil {
		t.Fatal(err)
	}
	if p.BWSteps[0].Rate != 50*units.MegabitPerSec {
		t.Fatalf("bwstep rate: %+v", p.BWSteps)
	}

	if p, err := Parse(""); p != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}
	for _, bad := range []string{"nope", "flap:at=xyz", "flap:bogus=1", "ge:pgb", "flap:down=0s"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseJSONAndFile(t *testing.T) {
	spec := `{"ge":{"p_good_bad":0.02,"p_bad_good":0.2,"loss_bad":0.5},"flaps":[{"at_ns":1000000000,"down_ns":200000000}]}`
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.GE == nil || p.GE.PGoodBad != 0.02 || len(p.Flaps) != 1 {
		t.Fatalf("json profile: %+v", p)
	}

	path := filepath.Join(t.TempDir(), "prof.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := Parse("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != p.ID() {
		t.Fatalf("file profile differs: %s vs %s", p2.ID(), p.ID())
	}
	if _, err := Parse("@" + path + ".missing"); err == nil {
		t.Fatal("missing file should fail")
	}
	if _, err := Parse("{not json"); err == nil {
		t.Fatal("bad json should fail")
	}
}

func TestNormalizeClampsAndSorts(t *testing.T) {
	p := Profile{
		GE: &GilbertElliott{PGoodBad: 2, PBadGood: -1, LossBad: 1.5},
		Flaps: []Flap{
			{At: 10 * time.Second, Down: 100 * time.Millisecond},
			{At: -time.Second, Down: 50 * time.Millisecond},
			{At: 2 * time.Second, Down: 0}, // no-op: dropped
		},
		BWSteps:  []BWStep{{At: 5 * time.Second}}, // no rate, no factor: dropped
		RTTSteps: []RTTStep{{At: 1 * time.Second, Factor: 2}},
	}.Normalize()
	if p.GE.PGoodBad != 1 || p.GE.PBadGood != 0 || p.GE.LossBad != 1 {
		t.Fatalf("GE clamp: %+v", p.GE)
	}
	if len(p.Flaps) != 2 || p.Flaps[0].At != 0 || p.Flaps[1].At != 10*time.Second {
		t.Fatalf("flaps: %+v", p.Flaps)
	}
	if len(p.BWSteps) != 0 {
		t.Fatalf("no-op bw step kept: %+v", p.BWSteps)
	}
	if len(p.RTTSteps) != 1 {
		t.Fatalf("rtt steps: %+v", p.RTTSteps)
	}

	// A GE chain that can never drop normalizes away entirely.
	q := Profile{GE: &GilbertElliott{PGoodBad: 0.5, PBadGood: 0.5}}.Normalize()
	if !q.Empty() {
		t.Fatalf("lossless GE should normalize to empty: %+v", q)
	}
}

func TestIDStableAndDistinct(t *testing.T) {
	a := &Profile{GE: &GilbertElliott{PGoodBad: 0.005, PBadGood: 0.1, LossBad: 0.5}}
	b := &Profile{Flaps: []Flap{{At: 5 * time.Second, Down: 200 * time.Millisecond}}}
	var nilProf *Profile
	if nilProf.ID() != "" || (&Profile{}).ID() != "" {
		t.Fatal("empty profiles must render empty IDs")
	}
	if a.ID() == "" || b.ID() == "" || a.ID() == b.ID() {
		t.Fatalf("IDs not distinct: %q vs %q", a.ID(), b.ID())
	}
	// Order-independence: the ID of an unsorted profile matches the sorted one.
	c := &Profile{Flaps: []Flap{
		{At: 9 * time.Second, Down: time.Second},
		{At: 3 * time.Second, Down: time.Second},
	}}
	d := &Profile{Flaps: []Flap{
		{At: 3 * time.Second, Down: time.Second},
		{At: 9 * time.Second, Down: time.Second},
	}}
	if c.ID() != d.ID() {
		t.Fatalf("ID depends on entry order: %q vs %q", c.ID(), d.ID())
	}
	for _, r := range a.ID() + b.ID() {
		switch r {
		case '/', '\\', ' ', '*', '?':
			t.Fatalf("ID contains unsafe rune %q", r)
		}
	}
}

// TestApplyTimeline: the scheduled timeline must hit the port at the right
// simulation times with the right values.
func TestApplyTimeline(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &netem.Sink{}
	po := netem.NewPort(eng, "bneck", 100*units.MegabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), sink)
	Apply(eng, po, &Profile{
		Flaps:    []Flap{{At: 100 * time.Millisecond, Down: 50 * time.Millisecond}},
		BWSteps:  []BWStep{{At: 200 * time.Millisecond, Factor: 0.5}},
		RTTSteps: []RTTStep{{At: 300 * time.Millisecond, Delay: 20 * time.Millisecond}},
	})

	eng.RunFor(110 * time.Millisecond)
	if !po.Down() {
		t.Fatal("flap down not applied at 100ms")
	}
	eng.RunFor(60 * time.Millisecond) // t=170ms
	if po.Down() {
		t.Fatal("flap up not applied at 150ms")
	}
	if po.Rate() != 100*units.MegabitPerSec {
		t.Fatal("bw step applied early")
	}
	eng.RunFor(40 * time.Millisecond) // t=210ms
	if po.Rate() != 50*units.MegabitPerSec {
		t.Fatalf("bw factor step: rate = %v", po.Rate())
	}
	eng.RunFor(100 * time.Millisecond) // t=310ms
	if po.Delay() != 20*time.Millisecond {
		t.Fatalf("rtt step: delay = %v", po.Delay())
	}

	// Nil and empty profiles are no-ops.
	Apply(eng, po, nil)
	Apply(eng, po, &Profile{})
}

// TestApplyGEDeterministicPerSeed: the full loss sequence under a GE
// profile must be a pure function of the engine seed.
func TestApplyGEDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []int64 {
		eng := sim.NewEngine(seed)
		var seqs []int64
		rec := netem.ReceiverFunc(func(now sim.Time, p *packet.Packet) {
			seqs = append(seqs, p.Seq)
			packet.Release(p)
		})
		po := netem.NewPort(eng, "ge", units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
		Apply(eng, po, &Profile{GE: &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 1}})
		for i := 0; i < 5000; i++ {
			p := packet.New()
			p.Size = 1000
			p.Seq = int64(i)
			po.Send(p)
		}
		eng.Run()
		return seqs
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d", i)
		}
	}
	c := run(12)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical loss sequences")
	}
}

// TestParseRefusesSilentInputs: a misspelled JSON field, trailing data
// after the JSON value, a JSON profile that injects nothing, and a
// repeated preset key are refused rather than silently dropped or
// overwritten.
func TestParseRefusesSilentInputs(t *testing.T) {
	cases := []struct{ spec, want string }{
		{`{"flap":[{"at_ns":1000000000,"down_ns":200000000}]}`, `unknown field "flap"`},
		{`{"flaps":[{"at_ns":1000000000,"down_ns":200000000}]} {}`, "trailing data"},
		{`{"flaps":[{"at_ns":1000000000,"down_ns":200000000}]}x`, "trailing data"},
		{`{}`, "injects nothing"},
		{`{"flaps":[{"at_ns":1000000000}]}`, "injects nothing"},
		{"flap:at=1s,at=9s", `flap: repeated key "at"`},
		{"ge:bad=1,pgb=0.1,bad=0.5", `ge: repeated key "bad"`},
		{"bwstep:rate=50Mbps,rate=10Mbps", `bwstep: repeated key "rate"`},
		{"rttstep:delay=31ms , delay=1ms", `rttstep: repeated key "delay"`},
	}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %+v, %v; want error containing %q", c.spec, p, err, c.want)
		}
	}
}
