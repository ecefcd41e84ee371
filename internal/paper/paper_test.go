package paper

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

func TestTable3Complete(t *testing.T) {
	rows := Table3()
	if len(rows) != 27 {
		t.Fatalf("Table 3 has %d rows, want 27 (9 pairings × 3 AQMs)", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.Pairing.String() + "/" + string(r.AQM)
		if seen[key] {
			t.Errorf("duplicate row %s", key)
		}
		seen[key] = true
		if r.AvgPhi <= 0 || r.AvgPhi > 1 {
			t.Errorf("%s: φ=%v out of range", key, r.AvgPhi)
		}
		if r.AvgJain <= 0 || r.AvgJain > 1 {
			t.Errorf("%s: J=%v out of range", key, r.AvgJain)
		}
		if r.AvgRR <= 0 {
			t.Errorf("%s: RR=%v", key, r.AvgRR)
		}
	}
	// Spot-check a few printed values.
	r := FindTable3(experiment.Pairing{CCA1: cca.BBRv1, CCA2: cca.Cubic}, aqm.KindRED)
	if r == nil || r.AvgRR != 41.056 || r.AvgJain != 0.522 {
		t.Fatalf("BBRv1-vs-CUBIC RED row: %+v", r)
	}
	if FindTable3(experiment.Pairing{CCA1: "x", CCA2: "y"}, aqm.KindFIFO) != nil {
		t.Fatal("FindTable3 should return nil for unknown pairing")
	}
}

func TestClaimsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Text == "" || c.Source == "" || c.Check == nil {
			t.Errorf("incomplete claim: %+v", c.ID)
		}
		if seen[c.ID] {
			t.Errorf("duplicate claim id %s", c.ID)
		}
		seen[c.ID] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d claims encoded", len(seen))
	}
}

func TestClaimsNoDataOnEmptySweep(t *testing.T) {
	s := experiment.Summarize(nil)
	for _, c := range Claims() {
		v, _ := c.Check(s)
		if v != NoData {
			t.Errorf("claim %s on empty sweep: %s, want NO DATA", c.ID, v)
		}
	}
}

// mini holds the one mini sweep of this test binary.
var mini struct {
	once    sync.Once
	results []experiment.Result
	err     error
}

// miniSweep runs a small real sweep (100 Mbps, 3 buffers) once, on first
// use, and returns its results to every claim and report test; callers
// only read them.
func miniSweep(t *testing.T) []experiment.Result {
	t.Helper()
	mini.once.Do(func() {
		var cfgs []experiment.Config
		for _, p := range experiment.PaperPairings() {
			for _, a := range aqm.Kinds() {
				for _, q := range []float64{0.5, 2, 16} {
					cfgs = append(cfgs, experiment.Config{
						Pairing: p, AQM: a, QueueBDP: q,
						Bottleneck: 100 * units.MegabitPerSec,
						Duration:   15 * time.Second, Seed: 1,
					})
				}
			}
		}
		mini.results, mini.err = experiment.RunAll(cfgs, 1, nil)
	})
	if mini.err != nil {
		t.Fatal(mini.err)
	}
	return mini.results
}

func TestClaimsAgainstMiniSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("mini sweep is expensive")
	}
	s := experiment.Summarize(miniSweep(t))
	deviating := 0
	for _, c := range Claims() {
		v, detail := c.Check(s)
		t.Logf("%-24s %-10s %s", c.ID, v, detail)
		if v == Deviates {
			deviating++
		}
	}
	// The single-bandwidth mini sweep cannot satisfy the multi-tier claims
	// (they report NO DATA), but nothing that can be checked should flip
	// direction.
	if deviating > 1 {
		t.Errorf("%d claims deviate on the mini sweep", deviating)
	}
}

func TestReportRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("mini sweep is expensive")
	}
	md := Report(miniSweep(t), ReportOptions{Note: "mini sweep (tests)", IncludeFigures: true})
	for _, want := range []string{
		"# EXPERIMENTS",
		"## Qualitative findings",
		"## Table 3",
		"BBR1 vs CUBIC",
		"## Known deviations",
		"### Figure 7",
		"mini sweep (tests)",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Count(md, "REPRODUCED") < 4 {
		t.Errorf("report shows too few reproduced claims:\n%s", md[:min(2000, len(md))])
	}
}

// TestReportUndefinedCells: the report prints a dash, not 0, for a Table 3
// Avg(RR) with no CUBIC reference and for a harm-to-FCT cell whose
// competition runs had no solo baseline.
func TestReportUndefinedCells(t *testing.T) {
	cell := func(p experiment.Pairing, rtx uint64) experiment.Result {
		return experiment.Result{
			Config: experiment.Config{Pairing: p, AQM: aqm.KindFIFO, QueueBDP: 1,
				Bottleneck: 100 * units.MegabitPerSec, Seed: 1},
			SenderBps: [2]float64{45e6, 45e6}, Jain: 1, Utilization: 0.95, TotalRetransmits: rtx,
			FCT: &experiment.FCTResult{Classes: []experiment.FCTClass{
				{Class: "all", Count: 10, P50: time.Millisecond, P95: 2 * time.Millisecond,
					P99: 3 * time.Millisecond, Mean: time.Millisecond}}},
		}
	}
	md := Report([]experiment.Result{cell(pair(cca.Reno, cca.Cubic), 100), cell(pair(cca.BBRv1, cca.Cubic), 500)},
		ReportOptions{})
	for _, want := range []string{
		"| BBR1 vs CUBIC |  | 0.997 / 0.950 | 14.916 / – |",
		"| BBR1 vs CUBIC | FIFO | – | – | – | – | 0 (+1 unmatched) |",
		"| RENO vs CUBIC |  | – | – | – | – | 0 (+1 unmatched) |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q:\n%s", want, md)
		}
	}
}
