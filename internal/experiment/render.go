package experiment

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/aqm"
	"repro/internal/units"
)

// RenderThroughputFigure renders the Figure 2/4 family: per-sender
// throughput against buffer size, one block per bottleneck bandwidth, for a
// given pairing and AQM. (Figure 2 is kind=fifo, Figure 4 is kind=red.)
func (s *Summary) RenderThroughputFigure(p Pairing, kind aqm.Kind) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-sender throughput, %s, AQM=%s\n", p, kind)
	for _, bw := range s.Bandwidths() {
		fmt.Fprintf(&b, "\n  bottleneck %v:\n", bw)
		fmt.Fprintf(&b, "    %-10s %14s %14s %8s\n", "buffer", "sender1(Mbps)", "sender2(Mbps)", "J")
		for _, q := range s.QueueMults() {
			c := s.Lookup(p, kind, q, bw)
			if c == nil {
				continue
			}
			fmt.Fprintf(&b, "    %-10s %14.1f %14.1f %8.3f\n",
				fmt.Sprintf("%gxBDP", q), c.SenderBps[0]/1e6, c.SenderBps[1]/1e6, c.Jain)
		}
	}
	return b.String()
}

// Metric names the quantity a figure plots.
type Metric int

const (
	// MetricOverall is Table 3's per pairing × AQM averages of φ, RR,
	// Jain and harm.
	MetricOverall Metric = iota
	// MetricThroughput is each sender's mean throughput (Figs. 2, 4).
	MetricThroughput
	// MetricJain is Jain's fairness index (Figs. 3, 5, 6).
	MetricJain
	// MetricUtilization is the link utilization φ (Fig. 7).
	MetricUtilization
	// MetricRetransmits is the mean total retransmission count (Fig. 8).
	MetricRetransmits
)

// PairingSet names the pairings a figure covers.
type PairingSet int

const (
	// AllPairings is every pairing the sweep holds (Table 3).
	AllPairings PairingSet = iota
	// PerPairing is one panel per inter-CCA pairing (Figs. 2, 4).
	PerPairing
	// InterAndIntra is one table with an inter-CCA and an intra-CCA
	// section (Figs. 3, 5, 6).
	InterAndIntra
	// IntraOnly is one table of the intra-CCA pairings, a row per CCA
	// (Figs. 7, 8).
	IntraOnly
)

// panelMetric is how RenderPanel prints one metric: its title, the table's
// column width and decimals, and the shading range of its chart form
// (lo == hi: the metric has no chart form and prints as a table).
type panelMetric struct {
	title, chartTitle string
	width, prec       int
	lo, hi            float64
	value             func(*Cell) float64
}

var panelMetrics = map[Metric]panelMetric{
	MetricJain: {title: "Jain's fairness index", chartTitle: "Jain's index",
		width: 9, prec: 3, lo: 0.5, hi: 1, value: func(c *Cell) float64 { return c.Jain }},
	MetricUtilization: {title: "Link utilization",
		width: 9, prec: 3, value: func(c *Cell) float64 { return c.Utilization }},
	MetricRetransmits: {title: "Retransmissions",
		width: 12, prec: 0, value: func(c *Cell) float64 { return c.Retransmits }},
}

// RenderPanel renders one Figure 3/5/6/7/8 panel: a metric (MetricJain,
// MetricUtilization or MetricRetransmits) per pairing × bandwidth at one
// buffer size, for one AQM. InterAndIntra splits the rows into inter- and
// intra-CCA sections; IntraOnly lists the intra-CCA pairings by CCA. With
// chart, a metric that has a chart form is drawn as a shaded matrix over
// every pairing the sweep holds instead.
func (s *Summary) RenderPanel(m Metric, set PairingSet, kind aqm.Kind, queueBDP float64, chart bool) string {
	pm := panelMetrics[m]
	if chart && pm.lo < pm.hi {
		return s.renderMatrix(pm, kind, queueBDP)
	}
	var b strings.Builder
	if set == IntraOnly {
		fmt.Fprintf(&b, "%s (intra-CCA), AQM=%s, buffer=%gxBDP\n", pm.title, kind, queueBDP)
		s.panelRows(&b, pm, kind, queueBDP, "cca", IntraPairings(),
			func(p Pairing) string { return string(p.CCA1) })
		return b.String()
	}
	fmt.Fprintf(&b, "%s, AQM=%s, buffer=%gxBDP\n", pm.title, kind, queueBDP)
	b.WriteString("\n  inter-CCA:\n")
	s.panelRows(&b, pm, kind, queueBDP, "pairing", InterPairings(), Pairing.String)
	b.WriteString("\n  intra-CCA:\n")
	s.panelRows(&b, pm, kind, queueBDP, "pairing", IntraPairings(), Pairing.String)
	return b.String()
}

// panelRows writes a bandwidth header and one row per pairing that has at
// least one cell; missing cells print as "-".
func (s *Summary) panelRows(b *strings.Builder, pm panelMetric, kind aqm.Kind, queueBDP float64,
	header string, pairings []Pairing, label func(Pairing) string) {
	fmt.Fprintf(b, "    %-16s", header)
	for _, bw := range s.Bandwidths() {
		fmt.Fprintf(b, " %*s", pm.width, bw)
	}
	b.WriteString("\n")
	for _, p := range pairings {
		found := false
		row := fmt.Sprintf("    %-16s", label(p))
		for _, bw := range s.Bandwidths() {
			c := s.Lookup(p, kind, queueBDP, bw)
			if c == nil {
				row += fmt.Sprintf(" %*s", pm.width, "-")
				continue
			}
			found = true
			row += fmt.Sprintf(" %*.*f", pm.width, pm.prec, pm.value(c))
		}
		if found {
			b.WriteString(row + "\n")
		}
	}
}

// RenderTable3 renders the overall comparison as a markdown table matching
// the paper's Table 3 layout.
func (s *Summary) RenderTable3() string {
	var b strings.Builder
	b.WriteString("| CCA1 vs CCA2 | AQM | Avg(phi) | Avg(RR) | Avg(J_index) | Avg(H) |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	aqmCell := AQMGroups()
	for _, row := range s.Table3() {
		rr := "-"
		if !math.IsNaN(row.AvgRR) {
			rr = fmt.Sprintf("%.3f", row.AvgRR)
		}
		fmt.Fprintf(&b, "| %s vs %s | %s | %.3f | %s | %.3f | %.3f |\n",
			strings.ToUpper(string(row.Pairing.CCA1)), strings.ToUpper(string(row.Pairing.CCA2)),
			aqmCell(row.AQM), row.AvgPhi, rr, row.AvgJain, row.AvgHarm)
	}
	return b.String()
}

// AQMGroups returns the AQM column of a table whose rows are sorted by
// discipline: each call names its row's discipline, upper-cased, on the
// group's first row and returns "" on the rows below.
func AQMGroups() func(aqm.Kind) string {
	last := aqm.Kind("")
	return func(a aqm.Kind) string {
		if a == last {
			return ""
		}
		last = a
		return strings.ToUpper(string(a))
	}
}

// EquilibriumBDP finds the buffer multiplier at which sender 2 (CUBIC in
// the inter-CCA pairings) first overtakes sender 1 — the paper's
// "equilibrium point" narrative for Figure 2. Returns the multiplier and
// true, or 0,false if sender 1 leads at every measured buffer size.
func (s *Summary) EquilibriumBDP(p Pairing, kind aqm.Kind, bw units.Bandwidth) (float64, bool) {
	for _, q := range s.QueueMults() {
		c := s.Lookup(p, kind, q, bw)
		if c == nil {
			continue
		}
		if c.SenderBps[1] > c.SenderBps[0] {
			return q, true
		}
	}
	return 0, false
}
