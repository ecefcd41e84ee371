package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/cca"
	"repro/internal/faults"
	"repro/internal/units"
)

// auditedCfg returns a quick 100 Mbps config with the invariant auditor on.
func auditedCfg(p Pairing, kind aqm.Kind, seed uint64, dur time.Duration) Config {
	c := quick100M(p, kind, 2, seed, dur)
	c.Audit = true
	return c
}

// TestAuditCleanAcrossGridSample runs a representative slice of the paper
// grid — every AQM (plus standalone CoDel), mixed pairings, with and
// without faults — under the invariant auditor. Any conservation or
// accounting violation panics, so a clean pass here is the simulator
// asserting its own bookkeeping end to end.
func TestAuditCleanAcrossGridSample(t *testing.T) {
	flap := &faults.Profile{
		GE:    &faults.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.5},
		Flaps: []faults.Flap{{At: time.Second, Down: 150 * time.Millisecond}},
	}
	cases := []struct {
		name   string
		cfg    Config
		faults *faults.Profile
	}{
		{"cubic-cubic-fifo", auditedCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second), nil},
		{"bbr1-cubic-red", auditedCfg(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindRED, 2, 3*time.Second), nil},
		{"reno-htcp-codel", auditedCfg(Pairing{cca.Reno, cca.HTCP}, aqm.KindCoDel, 3, 3*time.Second), nil},
		{"bbr2-bbr1-fqcodel", auditedCfg(Pairing{cca.BBRv2, cca.BBRv1}, aqm.KindFQCoDel, 4, 3*time.Second), nil},
		{"cubic-bbr1-fifo-faulted", auditedCfg(Pairing{cca.Cubic, cca.BBRv1}, aqm.KindFIFO, 5, 4*time.Second), flap},
		{"bbr2-reno-fqcodel-faulted", auditedCfg(Pairing{cca.BBRv2, cca.Reno}, aqm.KindFQCoDel, 6, 4*time.Second), flap},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.cfg.Faults = tc.faults
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if res.Utilization <= 0 {
				t.Fatalf("audited run moved no traffic: %+v", res)
			}
		})
	}
}

// TestViolationPanicBecomesErroredResult proves the contract between the
// auditor and the sweep runner: a violation raised mid-run (panic with a
// *audit.Violation) is recovered per-configuration and journaled as an
// errored Result whose Error carries the full structured report — the
// sweep survives and the evidence is preserved.
func TestViolationPanicBecomesErroredResult(t *testing.T) {
	cfgs := []Config{
		quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, time.Second),
		quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 2, time.Second),
	}
	poisoned := cfgs[0].Normalize().ID()

	prev := testHookBeforeRun
	testHookBeforeRun = func(cfg Config) {
		if cfg.Normalize().ID() == poisoned {
			panic(&audit.Violation{
				Layer:    "netem",
				Rule:     "port-conservation",
				ConfigID: poisoned,
				SimNanos: 1_250_000_000,
				Detail:   "port bneck: offered=100 accounted=99 (off by 1)",
				Counters: "ledger: created=100 consumed=99",
			})
		}
	}
	t.Cleanup(func() { testHookBeforeRun = prev })

	results, err := RunAllOpts(cfgs, RunAllOptions{Workers: 2, KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Errored() {
		t.Fatal("violation did not surface as an errored result")
	}
	for _, want := range []string{
		"audit violation",
		"[netem/port-conservation]",
		poisoned,
		"t=1.250000s",
		"off by 1",
		"ledger: created=100",
	} {
		if !strings.Contains(results[0].Error, want) {
			t.Errorf("errored result lost report fragment %q:\n%s", want, results[0].Error)
		}
	}
	if results[1].Errored() {
		t.Fatalf("violation in config 0 poisoned config 1: %s", results[1].Error)
	}
}

// TestAuditObservesWithoutPerturbing: the auditor must be a pure observer —
// the same configuration with auditing on and off yields byte-identical
// results (modulo wall clock; the recorded config drops the flag), and the
// flag stays out of the config identity so checkpoints are shared between
// the two.
func TestAuditObservesWithoutPerturbing(t *testing.T) {
	base := quick100M(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindFQCoDel, 2, 3, 3*time.Second)
	base.Faults = &faults.Profile{
		Flaps: []faults.Flap{{At: time.Second, Down: 100 * time.Millisecond}},
	}
	audited := base
	audited.Audit = true

	if base.Normalize().ID() != audited.Normalize().ID() {
		t.Fatalf("audit flag leaked into config identity: %s vs %s",
			base.Normalize().ID(), audited.Normalize().ID())
	}

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(audited)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(&plain, &checked)
	jp, _ := json.Marshal(plain)
	jc, _ := json.Marshal(checked)
	if !bytes.Equal(jp, jc) {
		t.Fatalf("auditing perturbed the simulation:\n%s\n%s", jp, jc)
	}
}

// TestAuditedRunAtScaleStaysClean pushes a longer faulted run (10 s, both
// fault classes, FQ-CoDel's per-flow accounting) through the auditor — the
// soak case where a slow leak in any counter would finally show.
func TestAuditedRunAtScaleStaysClean(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := auditedCfg(Pairing{cca.BBRv2, cca.Cubic}, aqm.KindFQCoDel, 11, 10*time.Second)
	cfg.Bottleneck = units.GigabitPerSec
	cfg.Faults = &faults.Profile{
		GE:    &faults.GilbertElliott{PGoodBad: 0.005, PBadGood: 0.2, LossBad: 0.4},
		Flaps: []faults.Flap{{At: 3 * time.Second, Down: 200 * time.Millisecond}, {At: 7 * time.Second, Down: 50 * time.Millisecond}},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("audited soak failed: %v", err)
	}
}
