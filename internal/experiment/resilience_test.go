package experiment

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// TestFlapRecoveryAllCCAs: a 200 ms bottleneck outage destroys the whole
// in-flight window, so every CCA must stall into RTO retransmission and
// then climb back to at least 90 % of its pre-flap goodput — the link
// comes back unchanged, so a healthy controller has no excuse not to.
func TestFlapRecoveryAllCCAs(t *testing.T) {
	for _, name := range []cca.Name{cca.Reno, cca.Cubic, cca.HTCP, cca.BBRv1, cca.BBRv2} {
		name := name
		t.Run(string(name), func(t *testing.T) {
			t.Parallel()
			bw := 100 * units.MegabitPerSec
			rtt := 62 * time.Millisecond
			eng := sim.NewEngine(1)
			d, err := topo.Build(eng, topo.DumbbellSpec(), topo.Params{
				Bottleneck: bw,
				RTT:        rtt,
				Queue: aqm.Config{
					Kind:     aqm.KindFIFO,
					Capacity: units.QueueBytes(bw, rtt, 2, 8960),
				},
				Faults: &faults.Profile{
					Flaps: []faults.Flap{{At: 12 * time.Second, Down: 200 * time.Millisecond}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			cc, err := cca.New(name)
			if err != nil {
				t.Fatal(err)
			}
			f := d.AddFlow(0, tcp.Config{}, cc)
			f.Conn.Start()

			eng.RunFor(4 * time.Second) // warm-up: out of slow start
			g0 := f.Rcv.Goodput()
			eng.RunFor(8 * time.Second) // pre-flap window [4 s, 12 s)
			pre := f.Rcv.Goodput() - g0
			rtosBefore := f.Conn.Stats().RTOs

			eng.RunFor(2 * time.Second) // the flap and the recovery transient
			if got := f.Conn.Stats().RTOs; got <= rtosBefore {
				t.Fatalf("no RTO during a 200 ms outage (before %d, after %d)", rtosBefore, got)
			}
			if d.Monitor().DownDrops() == 0 {
				t.Fatal("flap destroyed no packets — outage never reached the bottleneck")
			}

			g2 := f.Rcv.Goodput()
			eng.RunFor(8 * time.Second) // post-flap window [14 s, 22 s)
			post := f.Rcv.Goodput() - g2

			if pre == 0 {
				t.Fatal("no pre-flap goodput")
			}
			ratio := float64(post) / float64(pre)
			if ratio < 0.9 {
				t.Fatalf("%s recovered to only %.1f%% of pre-flap goodput (pre %d B, post %d B)",
					name, 100*ratio, pre, post)
			}
		})
	}
}

// TestGELossInversionBBRvLossBased: under bursty Gilbert–Elliott loss
// (~2.4 % average in ~10-packet bursts) the loss-based controllers halve
// their window on every burst while BBRv1's model ignores loss entirely —
// the fairness inversion the paper's future-work section points at.
func TestGELossInversionBBRvLossBased(t *testing.T) {
	ge := &faults.Profile{GE: &faults.GilbertElliott{
		PGoodBad: 0.005, PBadGood: 0.1, LossBad: 0.5,
	}}
	run := func(name cca.Name) Result {
		res, err := Run(Config{
			Pairing: Pairing{name, name}, AQM: aqm.KindFIFO, QueueBDP: 2,
			Bottleneck: 100 * units.MegabitPerSec, Duration: 20 * time.Second,
			Seed: 1, Faults: ge,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bbr := run(cca.BBRv1)
	reno := run(cca.Reno)
	cubic := run(cca.Cubic)
	if bbr.FaultLossDrops == 0 {
		t.Fatal("GE chain dropped nothing — fault profile not plumbed through")
	}
	if bbr.Utilization < 2*reno.Utilization {
		t.Fatalf("BBRv1 (φ=%.3f) should dominate Reno (φ=%.3f) under bursty loss",
			bbr.Utilization, reno.Utilization)
	}
	if bbr.Utilization < 2*cubic.Utilization {
		t.Fatalf("BBRv1 (φ=%.3f) should dominate CUBIC (φ=%.3f) under bursty loss",
			bbr.Utilization, cubic.Utilization)
	}
	if bbr.Utilization < 0.5 {
		t.Fatalf("BBRv1 should retain most of the link under bursty loss: φ=%.3f",
			bbr.Utilization)
	}
}

// stripWall zeroes the wall-clock telemetry, the one field allowed to
// differ between byte-identical runs.
func stripWall(results ...*Result) {
	for _, r := range results {
		r.Wall = 0
	}
}

// TestFaultedRunDeterminism: the same seed and fault profile must yield a
// byte-identical Result — run to run, and regardless of worker count.
func TestFaultedRunDeterminism(t *testing.T) {
	profile := &faults.Profile{
		GE:    &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.5},
		Flaps: []faults.Flap{{At: 2 * time.Second, Down: 200 * time.Millisecond}},
	}
	cfg := Config{
		Pairing: Pairing{cca.Cubic, cca.BBRv1}, AQM: aqm.KindFIFO, QueueBDP: 2,
		Bottleneck: 100 * units.MegabitPerSec, Duration: 5 * time.Second,
		Seed: 7, Faults: profile,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(&a, &b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed+profile, different results:\n%s\n%s", ja, jb)
	}
	if a.FaultLossDrops == 0 || a.FaultDownDrops == 0 {
		t.Fatalf("fault accounting empty: %+v", a)
	}

	// Worker-count independence: each simulation owns a private engine, so
	// pool width must not leak into results.
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = uint64(i + 1)
	}
	serial, err := RunAll(cfgs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunAll(cfgs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		stripWall(&serial[i], &wide[i])
		js, _ := json.Marshal(serial[i])
		jw, _ := json.Marshal(wide[i])
		if !bytes.Equal(js, jw) {
			t.Fatalf("config %d: workers=1 vs workers=4 diverged:\n%s\n%s", i, js, jw)
		}
	}
}

// TestFaultProfileInResultIdentity: the profile must be part of the config
// ID so faulted results can never collide with clean ones in a checkpoint.
func TestFaultProfileInResultIdentity(t *testing.T) {
	base := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, time.Second)
	faulted := base
	faulted.Faults = &faults.Profile{Flaps: []faults.Flap{{At: time.Second, Down: 100 * time.Millisecond}}}
	if base.ID() == faulted.ID() {
		t.Fatalf("fault profile invisible in ID: %s", base.ID())
	}
	// Budgets are telemetry, not identity: a resume may relax a bad budget
	// without orphaning finished work.
	budgeted := base
	budgeted.MaxEvents = 1 << 40
	budgeted.MaxWall = time.Hour
	if base.ID() != budgeted.ID() {
		t.Fatalf("watchdog budget leaked into ID: %s vs %s", base.ID(), budgeted.ID())
	}
}

// TestConfigKeyScienceIdentity: Key must cover every field that changes a
// run's bytes — duration, paper scale, RTT, ECN, seed, faults — and exclude
// only the watchdog budgets and the observation-only audit bit. This is the
// contract that keeps the checkpoint journal and sweepd's result cache from
// ever serving a result simulated under different physics.
func TestConfigKeyScienceIdentity(t *testing.T) {
	base := quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, time.Second)
	science := []struct {
		name string
		mut  func(*Config)
	}{
		{"duration", func(c *Config) { c.Duration = 2 * time.Second }},
		{"paper_scale", func(c *Config) { c.PaperScale = true }},
		{"seed", func(c *Config) { c.Seed = 9 }},
		{"rtt", func(c *Config) { c.RTT = 10 * time.Millisecond }},
		{"ecn", func(c *Config) { c.ECN = true }},
		{"path_loss", func(c *Config) { c.PathLoss = 0.01 }},
		{"faults", func(c *Config) {
			c.Faults = &faults.Profile{Flaps: []faults.Flap{{At: time.Second, Down: 100 * time.Millisecond}}}
		}},
	}
	for _, tc := range science {
		mutated := base
		tc.mut(&mutated)
		if mutated.Key() == base.Key() {
			t.Errorf("%s change invisible in Key %s", tc.name, base.Key())
		}
	}
	observation := []struct {
		name string
		mut  func(*Config)
	}{
		{"max_events", func(c *Config) { c.MaxEvents = 1 << 40 }},
		{"max_wall", func(c *Config) { c.MaxWall = time.Hour }},
		{"audit", func(c *Config) { c.Audit = true }},
	}
	for _, tc := range observation {
		mutated := base
		tc.mut(&mutated)
		if mutated.Key() != base.Key() {
			t.Errorf("%s leaked into Key: %s vs %s", tc.name, mutated.Key(), base.Key())
		}
	}
	// Spelling a default explicitly is the same science as leaving it zero.
	zero := base
	zero.Duration = 0
	explicit := zero
	explicit.Duration = zero.Normalize().Duration
	if zero.Key() != explicit.Key() {
		t.Errorf("explicit default duration changed Key: %s vs %s", zero.Key(), explicit.Key())
	}
}
