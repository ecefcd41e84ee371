package paper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/experiment"
)

// ReportOptions configure report generation.
type ReportOptions struct {
	// Note describes the sweep (scale, seeds, durations).
	Note string
	// IncludeFigures appends the rendered per-figure panels.
	IncludeFigures bool
}

// Report generates the EXPERIMENTS.md content from a raw result set: the
// claim checklist and the Table 3 paper-vs-measured comparison, then the
// harm-to-FCT section when the set holds open-loop background flows with
// their solo baselines (the SoloFCT runs -flows sweeps append), and the
// fairness-dynamics section when it holds fairness reports.
func Report(results []experiment.Result, opts ReportOptions) string {
	s := experiment.Summarize(results)
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Reproduction of *Elephants Sharing the Highway* (SC-W 2023) on the\n")
	b.WriteString("packet-level simulator in this repository. Generated by `cmd/report`\n")
	b.WriteString("from an actual sweep; regenerate with:\n\n")
	b.WriteString("```sh\ngo run ./cmd/sweep -out results.json\ngo run ./cmd/report -in results.json -out EXPERIMENTS.md\n```\n\n")
	b.WriteString("The sweep may equivalently be served by a running `cmd/sweepd` daemon\n")
	b.WriteString("(`cmd/sweep -remote http://…`, or `cmd/report -in http://…/v1/sweeps/<id>/results`):\n")
	b.WriteString("served result sets are byte-identical to a direct `cmd/sweep` run of the\n")
	b.WriteString("same spec except for the `wall_ns` fields, which time the machine rather\n")
	b.WriteString("than the simulation and are excluded from all comparisons. `make\n")
	b.WriteString("smoke-svc` enforces this identity in CI, so daemon-produced numbers are\n")
	b.WriteString("interchangeable with CLI-produced ones everywhere in this document.\n\n")
	if opts.Note != "" {
		fmt.Fprintf(&b, "Sweep: %s\n\n", opts.Note)
	}
	b.WriteString("Absolute numbers are not expected to match (the substrate is a\n")
	b.WriteString("simulator with scaled durations, not the FABRIC testbed); the shape —\n")
	b.WriteString("who wins, by roughly what factor, where crossovers fall — is what is\n")
	b.WriteString("graded below.\n\n")

	// Claim checklist.
	b.WriteString("## Qualitative findings (§5)\n\n")
	b.WriteString("| # | Claim | Source | Verdict | Measured |\n")
	b.WriteString("|---|---|---|---|---|\n")
	counts := map[Verdict]int{}
	for i, c := range Claims() {
		v, detail := c.Check(s)
		counts[v]++
		fmt.Fprintf(&b, "| %d | %s | %s | **%s** | %s |\n",
			i+1, c.Text, c.Source, v, detail)
	}
	fmt.Fprintf(&b, "\nSummary: %d reproduced, %d partial, %d deviating, %d without data.\n\n",
		counts[Reproduced], counts[Partial], counts[Deviates], counts[NoData])

	// Table 3 side-by-side.
	b.WriteString("## Table 3 — overall performance comparison\n\n")
	b.WriteString("Paper values on the left of each pair, measured on the right. Avg(H)\n")
	b.WriteString("is ours only: the harm index (Ware et al., HotNets '19) — the worse\n")
	b.WriteString("sender's mean shortfall below its fair share, the asymmetric\n")
	b.WriteString("counterpart to Jain (the paper does not report it).\n\n")
	b.WriteString("| CCA1 vs CCA2 | AQM | Avg(phi) paper/ours | Avg(RR) paper/ours | Avg(J) paper/ours | Avg(H) ours |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	measured := map[string]experiment.Table3Row{}
	for _, r := range s.Table3() {
		measured[r.Pairing.String()+"/"+string(r.AQM)] = r
	}
	aqmCell := experiment.AQMGroups()
	for _, ref := range Table3() {
		key := ref.Pairing.String() + "/" + string(ref.AQM)
		m, ok := measured[key]
		if !ok {
			fmt.Fprintf(&b, "| %s | %s | %.3f / – | %.3f / – | %.3f / – | – |\n",
				pairingLabel(ref.Pairing), aqmCell(ref.AQM), ref.AvgPhi, ref.AvgRR, ref.AvgJain)
			continue
		}
		rr := "–"
		if !math.IsNaN(m.AvgRR) {
			rr = fmt.Sprintf("%.2f", m.AvgRR)
		}
		fmt.Fprintf(&b, "| %s | %s | %.3f / %.3f | %.3f / %s | %.3f / %.3f | %.3f |\n",
			pairingLabel(ref.Pairing), aqmCell(ref.AQM), ref.AvgPhi, m.AvgPhi, ref.AvgRR, rr,
			ref.AvgJain, m.AvgJain, m.AvgHarm)
	}
	b.WriteString("\n")

	if cells := experiment.HarmFCTMatrix(results); len(cells) > 0 {
		b.WriteString(renderFCTMatrix(cells))
	}

	if cells := experiment.FairnessTable(results); len(cells) > 0 {
		b.WriteString(renderFairnessTable(cells))
	}

	// Known deviations are part of the record.
	b.WriteString(knownDeviations)

	if opts.IncludeFigures {
		b.WriteString("\n## Rendered figures\n")
		b.WriteString("\nEach block is the `cmd/figures` rendering of the corresponding paper figure.\n")
		for _, f := range reportFigures() {
			fmt.Fprintf(&b, "\n### %s\n\n```\n%s```\n", f.Heading(), f.Render(s, false))
		}
	}
	return b.String()
}

const knownDeviations = `## Known deviations

1. **Absolute Avg(RR) magnitudes.** The paper's BBRv1 RR reaches 23–48×;
   ours is lower because the CUBIC reference in the simulator retransmits
   somewhat more than the testbed's (scaled runs weight the startup epoch
   more heavily). The *ordering* (BBRv1 ≫ BBRv2 > HTCP > Reno ≈ CUBIC)
   reproduces.
2. **FIFO retransmissions vs. buffer size for loss-based CCAs.** The paper
   reports monotone decrease with buffer size; in the simulator the deep-
   buffer first-epoch overflow burst (amortized over the paper's 200 s
   runs) keeps short scaled runs roughly flat. The BBR-family collapse at
   16×BDP (the paper's headline for Fig. 8(a)–(b)) reproduces cleanly.
3. **BBRv1 utilization under RED.** The paper reports Avg(φ)=0.94 with
   RR=47×; with that much loss our BBRv1 wastes more goodput on
   retransmissions (φ≈0.5–0.8 depending on tier). Direction (BBRv1 is the
   only CCA that keeps pumping through RED at high BW) reproduces.
4. **Scaled durations and flow counts.** Defaults simulate 2.5–30 s per
   run with ≤48 flows (the paper: 200 s, up to 500 flows). Pass
   -paper-scale to cmd/sweep for full-fidelity runs when wall-clock budget
   allows.
`

func pairingLabel(p experiment.Pairing) string {
	return strings.ToUpper(string(p.CCA1)) + " vs " + strings.ToUpper(string(p.CCA2))
}

// renderFCTMatrix formats the harm-to-FCT matrix. Harm is lower-is-better
// on [0, 1): the fraction of the background flows' completion time that is
// attributable to the competing elephants, H = (FCT_comp − FCT_solo) /
// FCT_comp, averaged over the matched (queue, bandwidth, seed) conditions.
// A row with no matched condition prints a dash: no harm was measured.
func renderFCTMatrix(cells []experiment.FCTHarmCell) string {
	var b strings.Builder
	b.WriteString("## Harm to flow completion time\n\n")
	b.WriteString("Open-loop background flows (mice) ran the same arrival process twice:\n")
	b.WriteString("solo on an otherwise idle path, and in competition with the pairing's\n")
	b.WriteString("long-running elephants. Each cell is Ware-style harm on the background\n")
	b.WriteString("population's FCT distribution, H = (FCT_comp − FCT_solo)/FCT_comp, so 0\n")
	b.WriteString("means the elephants cost the mice nothing and values near 1 mean the\n")
	b.WriteString("mice's completion times are dominated by the competition. The p99 column\n")
	b.WriteString("is the headline: tails are where elephants hurt mice first.\n\n")
	b.WriteString("| CCA1 vs CCA2 | AQM | H(p50) | H(p95) | H(p99) | H(mean) | n |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	aqmCell := experiment.AQMGroups()
	for _, c := range cells {
		harm := func(v float64) string {
			if c.N == 0 { // no solo baseline matched: harm unmeasured, not zero
				return "–"
			}
			return fmt.Sprintf("%.3f", v)
		}
		n := fmt.Sprintf("%d", c.N)
		if c.Unmatched > 0 {
			n = fmt.Sprintf("%d (+%d unmatched)", c.N, c.Unmatched)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n",
			pairingLabel(c.Pairing), aqmCell(c.AQM), harm(c.HarmP50),
			harm(c.HarmP95), harm(c.HarmP99), harm(c.HarmMean), n)
	}
	b.WriteString("\n")
	return b.String()
}

// renderFairnessTable formats the fairness-dynamics section: how fast each
// pairing converged to fair sharing, how long it spent measurably unfair,
// and whether any flow was starved along the way.
func renderFairnessTable(cells []experiment.FairnessCell) string {
	var b strings.Builder
	b.WriteString("## Fairness dynamics\n\n")
	b.WriteString("Time-resolved findings from the fairness observatory (windowed Jain(t)\n")
	b.WriteString("over the long-running flows). Convergence is the first time Jain(t)\n")
	b.WriteString("held ≥ 0.95 for 5 consecutive windows once all flows were active,\n")
	b.WriteString("averaged over the runs that converged; t<0.9 is the mean time per run\n")
	b.WriteString("spent below Jain 0.9; episodes counts stretches where a flow sat below\n")
	b.WriteString("a quarter of its fair share for ≥ 1 s (unresolved = still starved when\n")
	b.WriteString("the run ended).\n\n")
	b.WriteString("| CCA1 vs CCA2 | AQM | converged | mean conv. | mean t<0.9 | final J | episodes | starved |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	aqmCell := experiment.AQMGroups()
	for _, c := range cells {
		conv := "–"
		if c.Converged > 0 {
			conv = c.MeanConvergence.Round(time.Millisecond).String()
		}
		eps := fmt.Sprintf("%d", c.Episodes)
		if c.Unresolved > 0 {
			eps = fmt.Sprintf("%d (%d unresolved)", c.Episodes, c.Unresolved)
		}
		fmt.Fprintf(&b, "| %s | %s | %d/%d | %s | %s | %.3f | %s | %s |\n",
			pairingLabel(c.Pairing), aqmCell(c.AQM), c.Converged, c.N, conv,
			c.MeanTimeBelow.Round(time.Millisecond), c.MeanFinalJain, eps,
			c.StarvedTime.Round(time.Millisecond))
	}
	b.WriteString("\n")
	return b.String()
}
