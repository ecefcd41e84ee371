package paper

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/aqm"
	"repro/internal/experiment"
)

// Figure declares one of the paper's figures or tables: everything
// cmd/figures and the report's "Rendered figures" section need to render
// it from a sweep.
type Figure struct {
	Flag  string // cmd/figures -fig value
	Name  string // "Figure 2", "Table 3"
	Title string
	// AQMs are the disciplines the figure shows, in panel order. Table 3
	// has none: it covers every discipline the sweep holds.
	AQMs []aqm.Kind
	// Queues are the buffer sizes (×BDP) of a metric figure, one panel
	// each; nil where the buffer size is an axis or averaged out.
	Queues   []float64
	Pairings experiment.PairingSet
	Metric   experiment.Metric
}

// Figures returns the catalogue in paper order: Figures 2–8, then Table 3.
// Every panel is rendered whether or not the sweep holds its cells; a
// panel with no cells prints its headers only.
func Figures() []Figure {
	fifo, red, fqCoDel := []aqm.Kind{aqm.KindFIFO}, []aqm.Kind{aqm.KindRED}, []aqm.Kind{aqm.KindFQCoDel}
	buffers := []float64{2, 16}
	return []Figure{
		{"2", "Figure 2", "per-sender throughput", fifo, nil, experiment.PerPairing, experiment.MetricThroughput},
		{"3", "Figure 3", "Jain's fairness index", fifo, buffers, experiment.InterAndIntra, experiment.MetricJain},
		{"4", "Figure 4", "per-sender throughput", red, nil, experiment.PerPairing, experiment.MetricThroughput},
		{"5", "Figure 5", "Jain's fairness index", red, buffers, experiment.InterAndIntra, experiment.MetricJain},
		{"6", "Figure 6", "Jain's fairness index", fqCoDel, buffers, experiment.InterAndIntra, experiment.MetricJain},
		{"7", "Figure 7", "overall link utilization (intra-CCA)", aqm.Kinds(), buffers, experiment.IntraOnly, experiment.MetricUtilization},
		{"8", "Figure 8", "retransmissions (intra-CCA)", aqm.Kinds(), buffers, experiment.IntraOnly, experiment.MetricRetransmits},
		{"table3", "Table 3", "overall performance comparison", nil, nil, experiment.AllPairings, experiment.MetricOverall},
	}
}

// Heading is the figure's caption: its name and title, plus the AQM of a
// one-AQM figure.
func (f Figure) Heading() string {
	h := f.Name + ": " + f.Title
	if len(f.AQMs) == 1 {
		h += ", AQM=" + string(f.AQMs[0])
	}
	return h
}

// Render renders the figure from a sweep summary as tables or, with chart,
// as ASCII charts (a metric with no chart form prints its table). Each
// panel is followed by a blank line; Table 3 is one markdown table.
func (f Figure) Render(s *experiment.Summary, chart bool) string {
	if f.Metric == experiment.MetricOverall {
		return s.RenderTable3()
	}
	var b strings.Builder
	panel := func(p string) {
		b.WriteString(p)
		b.WriteString("\n")
	}
	for _, kind := range f.AQMs {
		if f.Pairings != experiment.PerPairing {
			for _, q := range f.Queues {
				panel(s.RenderPanel(f.Metric, f.Pairings, kind, q, chart))
			}
			continue
		}
		for _, p := range experiment.InterPairings() {
			if !chart {
				panel(s.RenderThroughputFigure(p, kind))
				continue
			}
			panel(s.RenderSenderSparklines(p, kind))
			for _, bw := range s.Bandwidths() {
				panel(s.RenderThroughputBars(p, kind, bw))
			}
		}
	}
	return b.String()
}

// RenderFigures is the cmd/figures output for -fig sel: the figure whose
// Flag is sel, or every figure in catalogue order for "all".
func RenderFigures(s *experiment.Summary, sel string, chart bool) (string, error) {
	var b strings.Builder
	for _, f := range Figures() {
		if sel != "all" && sel != f.Flag {
			continue
		}
		fmt.Fprintf(&b, "--- %s ---\n", f.Heading())
		if len(f.AQMs) == 1 {
			b.WriteString("\n") // a one-AQM figure's heading is set off by a blank line
		}
		b.WriteString(f.Render(s, chart))
	}
	if b.Len() == 0 {
		return "", fmt.Errorf("unknown figure %q", sel)
	}
	return b.String(), nil
}

// reportFigures are the figures the report renders: the catalogue without
// Table 3 (the report compares it with the paper in its own section), the
// per-sender throughput figures first.
func reportFigures() []Figure {
	var figs []Figure
	for _, f := range Figures() {
		if f.Metric != experiment.MetricOverall {
			figs = append(figs, f)
		}
	}
	sort.SliceStable(figs, func(i, j int) bool {
		return figs[i].Pairings == experiment.PerPairing && figs[j].Pairings != experiment.PerPairing
	})
	return figs
}
