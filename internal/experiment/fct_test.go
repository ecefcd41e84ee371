package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/flows"
)

// fctCfg is auditedCfg plus the mice workload: the standard open-loop
// configuration the FCT tests exercise.
func fctCfg(p Pairing, kind aqm.Kind, seed uint64, dur time.Duration) Config {
	c := auditedCfg(p, kind, seed, dur)
	c.Flows = &flows.Spec{Populations: []flows.Population{{Name: "mice"}}}
	return c
}

// TestFCTResultPopulated: a run carrying a workload spec produces FCT
// percentiles in its Result — the "all" class always, size classes when
// non-empty — and the solo variant of the same config runs no elephants.
func TestFCTResultPopulated(t *testing.T) {
	res, err := Run(fctCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.FCT == nil {
		t.Fatal("result carries no FCT block")
	}
	if res.FCT.Opened == 0 || res.FCT.Completed == 0 {
		t.Fatalf("no flows ran: %+v", res.FCT)
	}
	if res.FCT.Open != res.FCT.Opened-res.FCT.Completed {
		t.Fatalf("open count inconsistent: %+v", res.FCT)
	}
	all := res.FCT.Class("all")
	if all == nil || all.Count == 0 {
		t.Fatalf("no 'all' class: %+v", res.FCT.Classes)
	}
	if all.P50 <= 0 || all.P95 < all.P50 || all.P99 < all.P95 || all.Max < all.P99 || all.Min > all.P50 {
		t.Fatalf("percentile ordering broken: %+v", all)
	}
	if res.Flows != 2 {
		t.Fatalf("competition run should report 2 elephants, got %d", res.Flows)
	}

	solo := fctCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second)
	solo.SoloFCT = true
	sres, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Flows != 0 {
		t.Fatalf("solo baseline ran %d elephants, want 0", sres.Flows)
	}
	sAll := sres.FCT.Class("all")
	if sAll == nil || sAll.Count == 0 {
		t.Fatal("solo baseline completed no flows")
	}
	// The background population arrives identically (same seed-derived
	// streams) but finishes faster with the link to itself.
	if sres.FCT.Opened != res.FCT.Opened {
		t.Fatalf("arrival schedule differs solo vs competition: %d vs %d",
			sres.FCT.Opened, res.FCT.Opened)
	}
	if sAll.P95 >= all.P95 {
		t.Fatalf("solo p95 (%v) not faster than competition p95 (%v)", sAll.P95, all.P95)
	}
}

// TestSoloFCTKeyDedup: SoloFCT pins the pairing, so baselines derived from
// different pairings of the same condition share one Key — the property
// GridSpec.Expand's dedup and HarmFCTMatrix's matching rely on.
func TestSoloFCTKeyDedup(t *testing.T) {
	a := fctCfg(Pairing{cca.BBRv1, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second)
	b := fctCfg(Pairing{cca.Reno, cca.Reno}, aqm.KindFIFO, 1, 3*time.Second)
	if a.Normalize().Key() == b.Normalize().Key() {
		t.Fatal("competition configs with different pairings share a key")
	}
	a.SoloFCT, b.SoloFCT = true, true
	ka, kb := a.Normalize().Key(), b.Normalize().Key()
	if ka != kb {
		t.Fatalf("solo baselines should dedupe across pairings:\n%s\n%s", ka, kb)
	}
	// And a solo key differs from the competition key of the same config.
	if ka == fctCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second).Normalize().Key() {
		t.Fatal("solo and competition configs share a key")
	}
	// Without a workload, SoloFCT is meaningless and normalizes away.
	c := auditedCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second)
	c.SoloFCT = true
	if c.Normalize().SoloFCT {
		t.Fatal("SoloFCT without Flows survived normalization")
	}
}

// TestGridSpecFlowsExpansion: a -flows grid expands to the competition
// configs plus one deduped solo baseline per (AQM, queue, bw, seed)
// condition, after -configs truncation.
func TestGridSpecFlowsExpansion(t *testing.T) {
	spec := GridSpec{
		Bandwidths: "100Mbps",
		Queues:     "2",
		AQMs:       "fifo",
		Pairings:   "cubic:cubic,bbr1:cubic",
		Seeds:      2,
		Duration:   "2s",
		Flows:      "mice",
	}
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var comp, solo int
	for _, c := range cfgs {
		if c.Flows == nil {
			t.Fatalf("expanded config without workload: %s", c.ID())
		}
		if c.SoloFCT {
			solo++
			if c.Pairing.CCA1 != cca.Cubic || c.Pairing.CCA2 != cca.Cubic {
				t.Fatalf("solo baseline pairing not pinned: %s", c.ID())
			}
		} else {
			comp++
		}
	}
	// 2 pairings × 2 seeds competition; the two pairings share baselines,
	// so 2 seeds of solo runs.
	if comp != 4 || solo != 2 {
		t.Fatalf("expanded %d competition + %d solo configs, want 4 + 2", comp, solo)
	}
	keys := map[string]bool{}
	for _, c := range cfgs {
		k := c.Key()
		if keys[k] {
			t.Fatalf("duplicate key in expansion: %s", k)
		}
		keys[k] = true
	}

	if _, err := (&GridSpec{Flows: "bogus"}).Expand(); err == nil {
		t.Fatal("bad workload spec accepted")
	}

	// The canonical form must capture the workload (checkpoint identity),
	// and equivalent spellings of the same workload must canonicalize
	// identically.
	can, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(can.Spec.Flows), []byte("mice")) {
		t.Fatalf("canonical spec does not capture the workload: %q", can.Spec.Flows)
	}
	spec2 := spec
	spec2.Flows = "mice:arrival=200ms"
	can2, err := spec2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if can.Spec.Flows != can2.Spec.Flows {
		t.Fatalf("equivalent workload spellings canonicalize differently:\n%q\n%q", can.Spec.Flows, can2.Spec.Flows)
	}
}

// TestHarmFCTMatrix builds the matrix from a small real sweep: one
// competition pairing plus its solo baseline, harm finite and positive
// (elephants always cost the mice something on a saturated 100 Mbps link),
// and competition results without baselines counted as unmatched.
func TestHarmFCTMatrix(t *testing.T) {
	comp := fctCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second)
	solo := fctCfg(Pairing{cca.Cubic, cca.Cubic}, aqm.KindFIFO, 1, 3*time.Second)
	solo.SoloFCT = true
	results, err := RunAll([]Config{comp, solo}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := HarmFCTMatrix(results)
	if len(m) != 1 {
		t.Fatalf("matrix has %d cells, want 1: %+v", len(m), m)
	}
	cell := m[0]
	if cell.N != 1 || cell.Unmatched != 0 {
		t.Fatalf("cell accounting: %+v", cell)
	}
	for name, h := range map[string]float64{
		"p50": cell.HarmP50, "p95": cell.HarmP95, "p99": cell.HarmP99, "mean": cell.HarmMean,
	} {
		if math.IsNaN(h) || h < 0 || h >= 1 {
			t.Fatalf("harm %s out of range: %v", name, h)
		}
	}
	if cell.HarmMean == 0 {
		t.Fatal("elephants cost the mice nothing on a saturated link?")
	}

	// Solo-only and competition-only sets degrade gracefully.
	if m := HarmFCTMatrix(results[1:]); len(m) != 0 {
		t.Fatalf("solo-only set produced cells: %+v", m)
	}
	m = HarmFCTMatrix(results[:1])
	if len(m) != 1 || m[0].N != 0 || m[0].Unmatched != 1 {
		t.Fatalf("baseline-less competition should be unmatched: %+v", m)
	}
	if m := HarmFCTMatrix(nil); len(m) != 0 {
		t.Fatalf("empty set produced cells: %+v", m)
	}
}

// TestMetamorphicFCTDeterminism extends the determinism contract to the
// open-loop workload: runs carrying dynamic flow arrivals must stay
// byte-identical across worker widths and replay, elephants and mice
// drawing from their documented, disjoint RNG streams.
func TestMetamorphicFCTDeterminism(t *testing.T) {
	mixed := &flows.Spec{Populations: []flows.Population{
		{Name: "mice"},
		{Name: "elephants", MeanArrival: time.Second, SizeP5: 4 << 20, SizeP95: 16 << 20},
	}}
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = auditedCfg(Pairing{cca.Cubic, cca.BBRv1}, aqm.KindFQCoDel, uint64(i+1), 2*time.Second)
		cfgs[i].Flows = mixed
		if i%2 == 1 {
			cfgs[i].SoloFCT = true
		}
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
		if serial[i].Errored() || wide[i].Errored() {
			t.Fatalf("config %d errored: %q / %q", i, serial[i].Error, wide[i].Error)
		}
		if serial[i].FCT == nil {
			t.Fatalf("config %d: no FCT data", i)
		}
		stripWall(&serial[i], &wide[i])
		js, _ := json.Marshal(serial[i])
		jw, _ := json.Marshal(wide[i])
		if !bytes.Equal(js, jw) {
			t.Fatalf("config %d: workers=1 vs workers=4 diverged:\n%s\n%s", i, js, jw)
		}
	}
	// Replay one of them.
	again, err := Run(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	stripWall(&again)
	ja, _ := json.Marshal(again)
	if !bytes.Equal(ja, func() []byte { j, _ := json.Marshal(serial[0]); return j }()) {
		t.Fatalf("replay diverged:\n%s", ja)
	}
}
