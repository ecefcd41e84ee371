package experiment

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/units"
)

func quick100M(p Pairing, kind aqm.Kind, q float64, seed uint64, dur time.Duration) Config {
	return Config{
		Pairing:    p,
		AQM:        kind,
		QueueBDP:   q,
		Bottleneck: 100 * units.MegabitPerSec,
		Duration:   dur,
		Seed:       seed,
	}
}

func TestGridSize(t *testing.T) {
	cfgs := Grid(PaperGrid(1, 2, 3, 4, 5))
	// 9 pairings × 3 AQMs × 6 buffers × 5 BWs × 5 seeds = 4050 runs,
	// i.e. the paper's 810 configurations × 5 repetitions.
	if len(cfgs) != 4050 {
		t.Fatalf("grid size = %d, want 4050", len(cfgs))
	}
	distinct := map[string]bool{}
	for _, c := range cfgs {
		distinct[c.ID()] = true
	}
	if len(distinct) != 4050 {
		t.Fatalf("IDs not unique: %d", len(distinct))
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{Bottleneck: 100 * units.MegabitPerSec}.Normalize()
	if c.RTT != 62*time.Millisecond {
		t.Errorf("rtt = %v", c.RTT)
	}
	if c.FlowsPerSender != 1 { // Table 2: one flow per node at 100 Mbps
		t.Errorf("flows = %d", c.FlowsPerSender)
	}
	if c.Duration <= 0 || c.Seed == 0 || c.AQM != aqm.KindFIFO {
		t.Errorf("defaults: %+v", c)
	}
	c25 := Config{Bottleneck: 25 * units.GigabitPerSec}.Normalize()
	if c25.FlowsPerSender > 32 {
		t.Errorf("25G scaled flows = %d, want capped", c25.FlowsPerSender)
	}
	p25 := Config{Bottleneck: 25 * units.GigabitPerSec, PaperScale: true}.Normalize()
	if p25.FlowsPerSender != 250 {
		t.Errorf("25G paper-scale flows = %d, want 250", p25.FlowsPerSender)
	}
}

func TestRunSingleConfig(t *testing.T) {
	res, err := Run(quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.7 || res.Utilization > 1.0 {
		t.Fatalf("utilization = %.3f", res.Utilization)
	}
	if res.Jain < 0.5 || res.Jain > 1.0 {
		t.Fatalf("jain = %.3f", res.Jain)
	}
	if res.Flows != 2 {
		t.Fatalf("flows = %d", res.Flows)
	}
	if res.Events == 0 || res.SimSeconds != 10 {
		t.Fatalf("meta: %+v", res)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := quick100M(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindFIFO, 2, 7, 5*time.Second)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SenderBps != b.SenderBps || a.TotalRetransmits != b.TotalRetransmits {
		t.Fatalf("same seed diverged: %+v vs %+v", a.SenderBps, b.SenderBps)
	}
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	cfgs := []Config{
		quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 1, 3*time.Second),
		quick100M(Pairing{cca.Reno, cca.Cubic}, aqm.KindFIFO, 1, 1, 3*time.Second),
		quick100M(Pairing{cca.HTCP, cca.Cubic}, aqm.KindRED, 1, 1, 3*time.Second),
		quick100M(Pairing{cca.BBRv2, cca.Cubic}, aqm.KindFQCoDel, 1, 1, 3*time.Second),
	}
	progress := 0
	par, err := RunAll(cfgs, 4, func(p Progress) { progress = p.Done })
	if err != nil {
		t.Fatal(err)
	}
	ser, err := RunAll(cfgs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if progress != len(cfgs) {
		t.Fatalf("progress = %d", progress)
	}
	for i := range cfgs {
		if par[i].SenderBps != ser[i].SenderBps {
			t.Fatalf("cfg %d: parallel %v != serial %v", i, par[i].SenderBps, ser[i].SenderBps)
		}
	}
}

func TestRunAllErrorPropagates(t *testing.T) {
	cfgs := []Config{{Pairing: Pairing{"bogus", "cubic"}, Bottleneck: units.GigabitPerSec}}
	if _, err := RunAll(cfgs, 1, nil); err == nil {
		t.Fatal("want error for unknown CCA")
	}
}

func TestSummarizeAveragesSeeds(t *testing.T) {
	cfgs := []Config{
		quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 1, 3*time.Second),
		quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 2, 3*time.Second),
	}
	results, err := RunAll(cfgs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	c := s.Lookup(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 2, 100*units.MegabitPerSec)
	if c == nil || c.N != 2 {
		t.Fatalf("cell: %+v", c)
	}
	wantPhi := (results[0].Utilization + results[1].Utilization) / 2
	if diff := c.Utilization - wantPhi; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean utilization %v, want %v", c.Utilization, wantPhi)
	}
	if len(s.QueueMults()) != 1 || len(s.Bandwidths()) != 1 || len(s.Pairings()) != 1 {
		t.Fatal("axis extraction wrong")
	}
}

func TestTable3AndRenderers(t *testing.T) {
	// A minimal grid that still exercises the Table 3 math: two pairings
	// (one of them the CUBIC reference), one AQM, two buffers.
	var cfgs []Config
	for _, p := range []Pairing{{cca.Cubic, cca.Cubic}, {cca.Reno, cca.Cubic}} {
		for _, q := range []float64{1, 4} {
			cfgs = append(cfgs, quick100M(p, aqm.KindFIFO, q, 1, 5*time.Second))
		}
	}
	results, err := RunAll(cfgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results)
	rows := s.Table3()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var cubicRow *Table3Row
	for i := range rows {
		if rows[i].Pairing.Intra() {
			cubicRow = &rows[i]
		}
	}
	if cubicRow == nil {
		t.Fatal("no cubic-cubic row")
	}
	// RR of the reference against itself must be exactly 1 per condition.
	if cubicRow.AvgRR < 0.99 || cubicRow.AvgRR > 1.01 {
		t.Fatalf("cubic reference AvgRR = %v, want 1", cubicRow.AvgRR)
	}

	md := s.RenderTable3()
	if !strings.Contains(md, "| CUBIC vs CUBIC |") || !strings.Contains(md, "Avg(phi)") {
		t.Fatalf("table3 render:\n%s", md)
	}
	fig := s.RenderThroughputFigure(Pairing{cca.Reno, cca.Cubic}, aqm.KindFIFO)
	if !strings.Contains(fig, "sender1") || !strings.Contains(fig, "1xBDP") {
		t.Fatalf("fig render:\n%s", fig)
	}
	jain := s.RenderPanel(MetricJain, InterAndIntra, aqm.KindFIFO, 1, false)
	if !strings.Contains(jain, "inter-CCA") {
		t.Fatalf("jain render:\n%s", jain)
	}
	util := s.RenderPanel(MetricUtilization, IntraOnly, aqm.KindFIFO, 1, false)
	if !strings.Contains(util, "cubic") {
		t.Fatalf("util render:\n%s", util)
	}
	rtx := s.RenderPanel(MetricRetransmits, IntraOnly, aqm.KindFIFO, 1, false)
	if !strings.Contains(rtx, "Retransmissions") {
		t.Fatalf("rtx render:\n%s", rtx)
	}
}

// TestTable3KeepsCoDel: Table 3 lists a discipline the paper did not test
// (CoDel) after the paper's own, instead of dropping its rows.
func TestTable3KeepsCoDel(t *testing.T) {
	cell := func(a aqm.Kind) Result {
		return Result{Config: Config{Pairing: Pairing{cca.Cubic, cca.Cubic}, AQM: a, QueueBDP: 1,
			Bottleneck: 100 * units.MegabitPerSec}, SenderBps: [2]float64{45e6, 45e6}, Jain: 1, Utilization: 0.9}
	}
	s := Summarize([]Result{cell(aqm.KindCoDel), cell(aqm.KindFIFO)})
	if got := s.AQMs(); len(got) != 2 || got[0] != aqm.KindFIFO || got[1] != aqm.KindCoDel {
		t.Fatalf("AQMs() = %v, want [fifo codel]", got)
	}
	md := s.RenderTable3()
	fifo, codel := strings.Index(md, "| CUBIC vs CUBIC | FIFO |"), strings.Index(md, "| CUBIC vs CUBIC | CODEL |")
	if fifo < 0 || codel < fifo {
		t.Fatalf("table3 wants a FIFO row, then a CODEL row:\n%s", md)
	}
}

// TestTable3UndefinedRR: Avg(RR) is undefined, and renders as a dash, when
// a pairing has no CUBIC-vs-CUBIC reference cell or only loss-free ones.
func TestTable3UndefinedRR(t *testing.T) {
	cell := func(p Pairing, rtx uint64) Result {
		return Result{Config: Config{Pairing: p, AQM: aqm.KindFIFO, QueueBDP: 1,
			Bottleneck: 100 * units.MegabitPerSec}, SenderBps: [2]float64{45e6, 45e6}, Jain: 1,
			Utilization: 0.95, TotalRetransmits: rtx}
	}
	bbr := Pairing{cca.BBRv1, cca.Cubic}
	for name, results := range map[string][]Result{
		"no reference":        {cell(Pairing{cca.Reno, cca.Cubic}, 100), cell(bbr, 500)},
		"loss-free reference": {cell(Pairing{cca.Cubic, cca.Cubic}, 0), cell(bbr, 500)},
	} {
		s := Summarize(results)
		for _, row := range s.Table3() {
			if row.Pairing == bbr && !math.IsNaN(row.AvgRR) {
				t.Errorf("%s: BBRv1-vs-CUBIC AvgRR = %v, want NaN", name, row.AvgRR)
			}
		}
		if md := s.RenderTable3(); !strings.Contains(md, "| BBR1 vs CUBIC | FIFO | 0.950 | - |") {
			t.Errorf("%s: table3 wants a dash for Avg(RR):\n%s", name, md)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	res, err := Run(quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 1, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rs := &ResultSet{Note: "test", Results: []Result{res}}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "test" || len(got.Results) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Results[0].Jain != res.Jain {
		t.Fatal("jain lost in serialization")
	}

	path := filepath.Join(t.TempDir(), "sub", "results.json")
	if err := SaveFile(path, rs); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Results[0].Config.ID() != res.Config.ID() {
		t.Fatal("config lost in file round trip")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestEquilibriumBDP(t *testing.T) {
	s := Summarize([]Result{
		{Config: Config{Pairing: Pairing{cca.BBRv1, cca.Cubic}, AQM: aqm.KindFIFO, QueueBDP: 1, Bottleneck: units.GigabitPerSec}, SenderBps: [2]float64{80, 20}},
		{Config: Config{Pairing: Pairing{cca.BBRv1, cca.Cubic}, AQM: aqm.KindFIFO, QueueBDP: 4, Bottleneck: units.GigabitPerSec}, SenderBps: [2]float64{30, 70}},
	})
	q, ok := s.EquilibriumBDP(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindFIFO, units.GigabitPerSec)
	if !ok || q != 4 {
		t.Fatalf("equilibrium = %v,%v want 4,true", q, ok)
	}
	_, ok = s.EquilibriumBDP(Pairing{cca.Reno, cca.Cubic}, aqm.KindFIFO, units.GigabitPerSec)
	if ok {
		t.Fatal("missing pairing should report no equilibrium")
	}
}

func TestFlowJainComputed(t *testing.T) {
	res, err := Run(Config{
		Pairing: Pairing{cca.Cubic, cca.Cubic}, AQM: aqm.KindFQCoDel, QueueBDP: 2,
		Bottleneck: 100 * units.MegabitPerSec, Duration: 10 * time.Second,
		FlowsPerSender: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowJain <= 0 || res.FlowJain > 1 {
		t.Fatalf("FlowJain = %v", res.FlowJain)
	}
	// FQ-CoDel with 6 identical flows: per-flow fairness should be high.
	if res.FlowJain < 0.9 {
		t.Fatalf("FQ_CODEL per-flow Jain = %.3f, want ≥0.9", res.FlowJain)
	}
}

func TestVizRenderers(t *testing.T) {
	s := Summarize([]Result{
		{Config: Config{Pairing: Pairing{cca.BBRv1, cca.Cubic}, AQM: aqm.KindFIFO, QueueBDP: 0.5, Bottleneck: 100 * units.MegabitPerSec}, SenderBps: [2]float64{60e6, 30e6}, Jain: 0.9, Utilization: 0.9},
		{Config: Config{Pairing: Pairing{cca.BBRv1, cca.Cubic}, AQM: aqm.KindFIFO, QueueBDP: 2, Bottleneck: 100 * units.MegabitPerSec}, SenderBps: [2]float64{20e6, 70e6}, Jain: 0.75, Utilization: 0.9},
		{Config: Config{Pairing: Pairing{cca.Cubic, cca.Cubic}, AQM: aqm.KindFIFO, QueueBDP: 2, Bottleneck: 100 * units.MegabitPerSec}, SenderBps: [2]float64{45e6, 45e6}, Jain: 1, Utilization: 0.9},
	})
	bars := s.RenderThroughputBars(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindFIFO, 100*units.MegabitPerSec)
	if !strings.Contains(bars, "0.5xBDP") || !strings.Contains(bars, "bbr1") {
		t.Fatalf("bars:\n%s", bars)
	}
	if s.RenderThroughputBars(Pairing{cca.Reno, cca.Reno}, aqm.KindFIFO, 100*units.MegabitPerSec) != "" {
		t.Fatal("missing pairing should render empty")
	}
	jm := s.RenderPanel(MetricJain, InterAndIntra, aqm.KindFIFO, 2, true)
	if !strings.Contains(jm, "0.750") || !strings.Contains(jm, "100Mbps") {
		t.Fatalf("jain matrix:\n%s", jm)
	}
	sp := s.RenderSenderSparklines(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindFIFO)
	if !strings.Contains(sp, "100Mbps") {
		t.Fatalf("sparklines:\n%s", sp)
	}
}

func TestSummarizeStddev(t *testing.T) {
	mk := func(seed uint64, jain float64) Result {
		return Result{
			Config: Config{Pairing: Pairing{cca.Cubic, cca.Cubic}, AQM: aqm.KindFIFO,
				QueueBDP: 1, Bottleneck: units.GigabitPerSec, Seed: seed},
			Jain: jain, Utilization: 0.9,
		}
	}
	s := Summarize([]Result{mk(1, 0.8), mk(2, 1.0)})
	c := s.Lookup(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, units.GigabitPerSec)
	if c.N != 2 || c.Jain != 0.9 {
		t.Fatalf("cell: %+v", c)
	}
	if c.JainStd < 0.14 || c.JainStd > 0.15 {
		t.Fatalf("JainStd = %v, want ~0.1414", c.JainStd)
	}
	if c.UtilStd != 0 {
		t.Fatalf("UtilStd = %v, want 0 for identical values", c.UtilStd)
	}
}

func TestSojournReported(t *testing.T) {
	// A deep FIFO buffer filled by CUBIC must show substantial queueing
	// delay at the bottleneck; FQ-CoDel must keep it near its 5ms target.
	fifo, err := Run(quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 8, 1, 15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if fifo.SojournMax < 50*time.Millisecond {
		t.Fatalf("8xBDP FIFO max sojourn = %v, want bufferbloat", fifo.SojournMax)
	}
	fq, err := Run(quick100M(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFQCoDel, 8, 1, 15*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if fq.SojournMean > 30*time.Millisecond {
		t.Fatalf("FQ_CODEL mean sojourn = %v, want controlled delay", fq.SojournMean)
	}
	if fq.SojournMean >= fifo.SojournMean {
		t.Fatalf("CoDel (%v) should beat FIFO (%v) on queueing delay",
			fq.SojournMean, fifo.SojournMean)
	}
}
