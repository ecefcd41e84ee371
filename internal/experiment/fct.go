package experiment

import (
	"slices"
	"time"

	"repro/internal/aqm"
	"repro/internal/flows"
	"repro/internal/metrics"
	"repro/internal/units"
)

// FCTClass is one size class's flow-completion-time statistics, read off
// the runner's bounded percentile sketch at end of run. Durations are
// integer nanoseconds from deterministic sketches, so the JSON is
// byte-identical across worker counts and replay.
type FCTClass struct {
	Class string        `json:"class"`
	Count uint64        `json:"count"`
	Bytes int64         `json:"bytes"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Mean  time.Duration `json:"mean_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
}

// FCTResult is the open-loop workload's outcome for one run.
type FCTResult struct {
	Opened    int `json:"opened"`    // flows that arrived and attached
	Completed int `json:"completed"` // flows that finished their transfer
	Open      int `json:"open"`      // still transferring at end of run
	// Classes holds "all" first, then the non-empty size classes in
	// small/medium/large order.
	Classes []FCTClass `json:"classes"`
}

// Class returns the named class's stats, or nil.
func (f *FCTResult) Class(name string) *FCTClass {
	if f == nil {
		return nil
	}
	for i := range f.Classes {
		if f.Classes[i].Class == name {
			return &f.Classes[i]
		}
	}
	return nil
}

// FCTFromRunner reads a finished runner's sketches into the Result form.
// The "all" class is always present (even when zero flows completed, so a
// served result still shows the workload ran); per-size classes are
// included only when non-empty.
func FCTFromRunner(r *flows.Runner) *FCTResult {
	out := &FCTResult{
		Opened:    r.Opened(),
		Completed: r.Completed(),
		Open:      r.Open(),
	}
	for c := flows.ClassAll; c < flows.NumSizeClasses; c++ {
		s := r.Sketch(c)
		if c != flows.ClassAll && s.Count() == 0 {
			continue
		}
		out.Classes = append(out.Classes, FCTClass{
			Class: c.String(),
			Count: s.Count(),
			Bytes: r.ClassBytes(c),
			P50:   s.Quantile(0.50),
			P95:   s.Quantile(0.95),
			P99:   s.Quantile(0.99),
			Mean:  s.Mean(),
			Min:   s.Min(),
			Max:   s.Max(),
		})
	}
	return out
}

// FCTHarmCell is one row of the harm-to-FCT matrix: for a pairing × AQM,
// the mean Ware harm the long-running flows inflicted on the background
// population's completion times, relative to the solo baseline of the
// same (AQM, queue, bandwidth, seed) cell. Harm on the p99 is usually the
// headline: tail completion times are where elephants hurt mice first.
type FCTHarmCell struct {
	Pairing  Pairing  `json:"pairing"`
	AQM      aqm.Kind `json:"aqm"`
	HarmP50  float64  `json:"harm_p50"`
	HarmP95  float64  `json:"harm_p95"`
	HarmP99  float64  `json:"harm_p99"`
	HarmMean float64  `json:"harm_mean"`
	// N counts the (queue, bandwidth, seed) conditions averaged; Unmatched
	// counts competition results that had no solo baseline in the set.
	N         int `json:"n"`
	Unmatched int `json:"unmatched,omitempty"`
}

// fctBaseKey identifies the condition a solo baseline is shared across:
// everything that shapes the background flows' path except the competing
// pairing.
type fctBaseKey struct {
	aqm   aqm.Kind
	queue float64
	bw    units.Bandwidth
	seed  uint64
}

// HarmFCTMatrix computes the solo-vs-competition harm matrix from a mixed
// result set: results with SoloFCT are the baselines, every other result
// carrying FCT data is a competition measurement matched to the baseline
// of its (AQM, queue, bandwidth, seed) condition. Harm is computed on the
// "all" size class's p50/p95/p99/mean and averaged per pairing × AQM.
// Rows come back in Table-3 order. Results sets without FCT data (or
// without baselines) yield an empty matrix.
func HarmFCTMatrix(results []Result) []FCTHarmCell {
	solo := map[fctBaseKey]*FCTClass{}
	for i := range results {
		r := &results[i]
		if r.Errored() || !r.Config.SoloFCT {
			continue
		}
		if c := r.FCT.Class("all"); c != nil && c.Count > 0 {
			solo[fctBaseKey{r.Config.AQM, r.Config.QueueBDP, r.Config.Bottleneck, r.Config.Seed}] = c
		}
	}

	type acc struct {
		cell FCTHarmCell
		p50  []float64
		p95  []float64
		p99  []float64
		mean []float64
	}
	cells := map[CellKey]*acc{}
	for i := range results {
		r := &results[i]
		if r.Errored() || r.Config.SoloFCT || r.FCT == nil {
			continue
		}
		comp := r.FCT.Class("all")
		if comp == nil || comp.Count == 0 {
			continue
		}
		k := CellKey{r.Config.Pairing, r.Config.AQM, 0, 0}
		a := cells[k]
		if a == nil {
			a = &acc{cell: FCTHarmCell{Pairing: r.Config.Pairing, AQM: r.Config.AQM}}
			cells[k] = a
		}
		base := solo[fctBaseKey{r.Config.AQM, r.Config.QueueBDP, r.Config.Bottleneck, r.Config.Seed}]
		if base == nil {
			a.cell.Unmatched++
			continue
		}
		a.p50 = append(a.p50, metrics.HarmFCT(float64(base.P50), float64(comp.P50)))
		a.p95 = append(a.p95, metrics.HarmFCT(float64(base.P95), float64(comp.P95)))
		a.p99 = append(a.p99, metrics.HarmFCT(float64(base.P99), float64(comp.P99)))
		a.mean = append(a.mean, metrics.HarmFCT(float64(base.Mean), float64(comp.Mean)))
		a.cell.N++
	}

	out := make([]FCTHarmCell, 0, len(cells))
	for _, a := range cells {
		if a.cell.N == 0 && a.cell.Unmatched == 0 {
			continue
		}
		a.cell.HarmP50 = metrics.MeanFinite(a.p50)
		a.cell.HarmP95 = metrics.MeanFinite(a.p95)
		a.cell.HarmP99 = metrics.MeanFinite(a.p99)
		a.cell.HarmMean = metrics.MeanFinite(a.mean)
		out = append(out, a.cell)
	}
	slices.SortFunc(out, func(x, y FCTHarmCell) int { return table3Cmp(x.AQM, x.Pairing, y.AQM, y.Pairing) })
	return out
}
