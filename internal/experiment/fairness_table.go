package experiment

import (
	"slices"
	"time"

	"repro/internal/aqm"
	"repro/internal/metrics"
)

// FairnessCell is one row of the fairness-dynamics table: for a pairing ×
// AQM, the convergence and starvation behavior the observatory measured,
// aggregated over the (queue, bandwidth, seed) conditions that carried a
// fairness report.
type FairnessCell struct {
	Pairing Pairing  `json:"pairing"`
	AQM     aqm.Kind `json:"aqm"`
	// N counts the results aggregated; Converged how many of them reached
	// sustained fairness.
	N         int `json:"n"`
	Converged int `json:"converged"`
	// MeanConvergence averages the convergence time over the runs that
	// converged (0 when none did).
	MeanConvergence time.Duration `json:"mean_convergence_ns"`
	// MeanTimeBelow averages the time spent below the Jain floor per run.
	MeanTimeBelow time.Duration `json:"mean_time_below_ns"`
	MeanFinalJain float64       `json:"mean_final_jain"`
	// Episodes counts starvation episodes across all runs; Unresolved the
	// ones still open when their run ended; StarvedTime their total
	// duration.
	Episodes    int           `json:"episodes"`
	Unresolved  int           `json:"unresolved"`
	StarvedTime time.Duration `json:"starved_time_ns"`
}

// FairnessLine is the NDJSON line shape shared by sweepd's
// GET /v1/sweeps/{id}/fairness endpoint and cmd/sweep -fairness-out: one
// line per fairness-armed configuration, naming the config by science key
// and human-readable ID. Sharing the struct keeps the two outputs
// byte-diffable.
type FairnessLine struct {
	Config   string                  `json:"config"`
	ID       string                  `json:"id"`
	Fairness *metrics.FairnessReport `json:"fairness"`
}

// FairnessTable aggregates the observatory findings of a result set per
// pairing × AQM, in Table-3 order. Results without a fairness report
// (errored, solo baselines, or runs with the observatory off) are skipped;
// a set with none yields an empty table.
func FairnessTable(results []Result) []FairnessCell {
	type acc struct {
		cell        FairnessCell
		convSum     time.Duration
		belowSum    time.Duration
		finalJains  []float64
		starvedTime time.Duration
	}
	cells := map[CellKey]*acc{}
	for i := range results {
		r := &results[i]
		if r.Errored() || r.Config.SoloFCT || r.Fairness == nil {
			continue
		}
		f := r.Fairness
		k := CellKey{r.Config.Pairing, r.Config.AQM, 0, 0}
		a := cells[k]
		if a == nil {
			a = &acc{cell: FairnessCell{Pairing: r.Config.Pairing, AQM: r.Config.AQM}}
			cells[k] = a
		}
		a.cell.N++
		if f.Converged {
			a.cell.Converged++
			a.convSum += f.ConvergenceTime
		}
		a.belowSum += f.TimeBelowFloor
		a.finalJains = append(a.finalJains, f.FinalJain)
		a.cell.Episodes += len(f.Episodes)
		for _, ep := range f.Episodes {
			if !ep.Resolved {
				a.cell.Unresolved++
			}
			a.starvedTime += ep.End - ep.Start
		}
	}

	out := make([]FairnessCell, 0, len(cells))
	for _, a := range cells {
		if a.cell.Converged > 0 {
			a.cell.MeanConvergence = a.convSum / time.Duration(a.cell.Converged)
		}
		a.cell.MeanTimeBelow = a.belowSum / time.Duration(a.cell.N)
		a.cell.MeanFinalJain = metrics.Mean(a.finalJains)
		a.cell.StarvedTime = a.starvedTime
		out = append(out, a.cell)
	}
	slices.SortFunc(out, func(x, y FairnessCell) int { return table3Cmp(x.AQM, x.Pairing, y.AQM, y.Pairing) })
	return out
}
