package experiment

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/aqm"
	"repro/internal/units"
	"repro/internal/viz"
)

// RenderThroughputBars draws one Figure 2/4 panel (a single pairing at one
// bandwidth) as a grouped bar chart: two bars per buffer size.
func (s *Summary) RenderThroughputBars(p Pairing, kind aqm.Kind, bw units.Bandwidth) string {
	g := &viz.GroupedBars{
		Title:   fmt.Sprintf("%s, AQM=%s, %v", p, kind, bw),
		SeriesA: string(p.CCA1),
		SeriesB: string(p.CCA2),
		Unit:    "Mbps",
	}
	for _, q := range s.QueueMults() {
		c := s.Lookup(p, kind, q, bw)
		if c == nil {
			continue
		}
		g.Categories = append(g.Categories, fmt.Sprintf("%gxBDP", q))
		g.A = append(g.A, c.SenderBps[0]/1e6)
		g.B = append(g.B, c.SenderBps[1]/1e6)
	}
	if len(g.Categories) == 0 {
		return ""
	}
	return g.Render()
}

// renderMatrix draws a metric panel as a shaded matrix: rows are the
// pairings the sweep holds, columns bandwidths, cells the metric at one
// buffer size.
func (s *Summary) renderMatrix(pm panelMetric, kind aqm.Kind, queueBDP float64) string {
	m := &viz.Matrix{
		Title: fmt.Sprintf("%s, AQM=%s, buffer=%gxBDP", pm.chartTitle, kind, queueBDP),
		Lo:    pm.lo,
		Hi:    pm.hi,
	}
	for _, bw := range s.Bandwidths() {
		m.ColNames = append(m.ColNames, bw.String())
	}
	for _, p := range s.Pairings() {
		row := make([]float64, len(m.ColNames))
		any := false
		for j, bw := range s.Bandwidths() {
			if c := s.Lookup(p, kind, queueBDP, bw); c != nil {
				row[j] = pm.value(c)
				any = true
			} else {
				row[j] = math.NaN()
			}
		}
		if any {
			m.RowNames = append(m.RowNames, p.String())
			m.Values = append(m.Values, row)
		}
	}
	return m.Render()
}

// RenderSenderSparklines renders per-sender throughput across buffer sizes
// as compact sparklines, one line per bandwidth — the full Figure 2 grid at
// a glance.
func (s *Summary) RenderSenderSparklines(p Pairing, kind aqm.Kind) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, AQM=%s — per-sender throughput across buffer sizes %v\n",
		p, kind, s.QueueMults())
	for _, bw := range s.Bandwidths() {
		var a1, a2 []float64
		for _, q := range s.QueueMults() {
			if c := s.Lookup(p, kind, q, bw); c != nil {
				a1 = append(a1, c.SenderBps[0])
				a2 = append(a2, c.SenderBps[1])
			}
		}
		if len(a1) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %-8s %s   %-8s %s\n", bw,
			p.CCA1, viz.Sparkline(a1), p.CCA2, viz.Sparkline(a2))
	}
	return b.String()
}
