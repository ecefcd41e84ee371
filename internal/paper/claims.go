package paper

import (
	"fmt"
	"math"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/units"
)

func pair(a, b cca.Name) experiment.Pairing { return experiment.Pairing{CCA1: a, CCA2: b} }

// sweep is what a claim reads: the summary, its lowest and highest
// bandwidth tiers, and its buffer sizes, ascending. Claims that do not
// depend on bandwidth read the lowest tier, the one with the least
// simulation noise.
type sweep struct {
	*experiment.Summary
	lo, hi units.Bandwidth
	mults  []float64
}

// atTiers picks the tiers every claim reads and answers NO DATA for an
// empty sweep.
func atTiers(claim func(w sweep) (Verdict, string)) func(*experiment.Summary) (Verdict, string) {
	return func(s *experiment.Summary) (Verdict, string) {
		bws := s.Bandwidths()
		if len(bws) == 0 {
			return NoData, "empty sweep"
		}
		return claim(sweep{s, bws[0], bws[len(bws)-1], s.QueueMults()})
	}
}

// twoBuffers is the guard of every claim that compares two buffer sizes:
// ok is false, with the NO DATA answer, when the sweep has only one.
func (w sweep) twoBuffers() (v Verdict, detail string, ok bool) {
	if len(w.mults) < 2 {
		return NoData, "need ≥2 buffer sizes", false
	}
	return "", "", true
}

// cells returns the cells present for pairings × buffer sizes under one
// AQM at one tier, in argument order (pairings outer).
func (w sweep) cells(ps []experiment.Pairing, qs []float64, a aqm.Kind, bw units.Bandwidth) []*experiment.Cell {
	var out []*experiment.Cell
	for _, p := range ps {
		for _, q := range qs {
			if c := w.Lookup(p, a, q, bw); c != nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// grade is the three-level rule of every claim: REPRODUCED when its full
// predicate holds, PARTIAL when only its weaker one does, DEVIATES
// otherwise.
func grade(detail string, reproduced, partial bool) (Verdict, string) {
	switch {
	case reproduced:
		return Reproduced, detail
	case partial:
		return Partial, detail
	}
	return Deviates, detail
}

// redLeads walks X-vs-CUBIC under RED at every buffer size of the lowest
// tier and counts the cells X won by the claim's own test.
func (w sweep) redLeads(x cca.Name, won func(c *experiment.Cell) bool) (cs []*experiment.Cell, wins int) {
	cs = w.cells([]experiment.Pairing{pair(x, cca.Cubic)}, w.mults, aqm.KindRED, w.lo)
	for _, c := range cs {
		if won(c) {
			wins++
		}
	}
	return cs, wins
}

// share is sender 1's fraction of the cell's throughput.
func share(c *experiment.Cell) float64 { return c.SenderBps[0] / (c.SenderBps[0] + c.SenderBps[1]) }

func senderOneLeads(c *experiment.Cell) bool { return c.SenderBps[0] > c.SenderBps[1] }

func jainOf(c *experiment.Cell) float64        { return c.Jain }
func utilizationOf(c *experiment.Cell) float64 { return c.Utilization }

// mean averages f over the cells, in walk order.
func mean(cs []*experiment.Cell, f func(*experiment.Cell) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return metrics.Mean(xs)
}

// worst is the smallest f over the cells, capped at 1 (the ideal of every
// ratio a claim reads this way).
func worst(cs []*experiment.Cell, f func(*experiment.Cell) float64) float64 {
	w := 1.0
	for _, c := range cs {
		if v := f(c); v < w { // not min: a NaN share (dead link) must not win
			w = v
		}
	}
	return w
}

// Claims returns the paper's checkable findings in presentation order.
func Claims() []Claim {
	intra := experiment.IntraPairings()
	return []Claim{
		{
			ID:     "fig2-equilibrium",
			Source: "§5.1, Fig. 2(a)–(e)",
			Text:   "Under FIFO, BBRv1 beats CUBIC below an equilibrium buffer size and CUBIC takes over beyond it.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				if v, d, ok := w.twoBuffers(); !ok {
					return v, d
				}
				p, q0, q1 := pair(cca.BBRv1, cca.Cubic), w.mults[0], w.mults[len(w.mults)-1]
				cs := w.cells([]experiment.Pairing{p}, []float64{q0, q1}, aqm.KindFIFO, w.lo)
				if len(cs) < 2 {
					return NoData, "missing cells"
				}
				small, large := cs[0], cs[1]
				bbrLeadsSmall := small.SenderBps[0] > small.SenderBps[1]
				cubicLeadsLarge := large.SenderBps[1] > large.SenderBps[0]
				detail := fmt.Sprintf("at %v: %gxBDP %.0f/%.0f Mbps, %gxBDP %.0f/%.0f Mbps",
					w.lo, q0, small.SenderBps[0]/1e6, small.SenderBps[1]/1e6,
					q1, large.SenderBps[0]/1e6, large.SenderBps[1]/1e6)
				if bbrLeadsSmall && cubicLeadsLarge {
					if q, ok := w.EquilibriumBDP(p, aqm.KindFIFO, w.lo); ok {
						detail += fmt.Sprintf("; equilibrium at %gxBDP (paper: 2xBDP at 100 Mbps)", q)
					}
				}
				return grade(detail, bbrLeadsSmall && cubicLeadsLarge, cubicLeadsLarge)
			}),
		},
		{
			ID:     "fig2-bbr2-large-buffer",
			Source: "§5.1 \"BBRv2's takeover\"",
			Text:   "BBRv2 performs even worse than BBRv1 against CUBIC at high-BDP FIFO buffers (its inflight_hi reacts to overflow loss).",
			Check: atTiers(func(w sweep) (Verdict, string) {
				q := w.mults[len(w.mults)-1]
				cs := w.cells([]experiment.Pairing{pair(cca.BBRv1, cca.Cubic), pair(cca.BBRv2, cca.Cubic)},
					[]float64{q}, aqm.KindFIFO, w.lo)
				if len(cs) < 2 {
					return NoData, "missing cells"
				}
				b1, b2 := cs[0].SenderBps[0], cs[1].SenderBps[0]
				return grade(fmt.Sprintf("at %v %gxBDP: BBRv1 %.0fM, BBRv2 %.0fM vs CUBIC", w.lo, q, b1/1e6, b2/1e6),
					b2 <= b1, true)
			}),
		},
		{
			ID:     "fig2-reno-fades",
			Source: "§5.1 \"Reno's takeover\"",
			Text:   "Reno holds near-parity with CUBIC at small FIFO buffers but loses badly as buffers grow.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				q0, q1 := w.mults[0], w.mults[len(w.mults)-1]
				cs := w.cells([]experiment.Pairing{pair(cca.Reno, cca.Cubic)}, []float64{q0, q1}, aqm.KindFIFO, w.lo)
				if len(cs) < 2 {
					return NoData, "missing cells"
				}
				// Guarded after the cell check, so a sweep with no Reno
				// cells still reads "missing cells" (sweepd's report golden).
				if v, d, ok := w.twoBuffers(); !ok {
					return v, d
				}
				smallRatio, largeRatio := share(cs[0]), share(cs[1])
				return grade(fmt.Sprintf("Reno share: %.2f at %gxBDP, %.2f at %gxBDP", smallRatio, q0, largeRatio, q1),
					smallRatio > 0.35 && largeRatio < smallRatio && largeRatio < 0.45, largeRatio < smallRatio)
			}),
		},
		{
			ID:     "fig4-bbr1-red-dominance",
			Source: "§5.2, Fig. 4(a)–(e)",
			Text:   "Under RED, BBRv1 consumes almost all bandwidth and CUBIC is starved, at every buffer size.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				cs, wins := w.redLeads(cca.BBRv1, func(c *experiment.Cell) bool { return share(c) > 0.55 })
				if len(cs) == 0 {
					return NoData, "missing cells"
				}
				return grade(fmt.Sprintf("BBRv1 leads in %d/%d buffer sizes at %v (min share %.2f)",
					wins, len(cs), w.lo, worst(cs, share)), wins == len(cs), wins > len(cs)/2)
			}),
		},
		{
			ID:     "fig4-bbr2-red-majority",
			Source: "§5.2, Fig. 4(f)–(j)",
			Text:   "Under RED, BBRv2 consistently takes the majority of the bandwidth from CUBIC (drops stay under its 2% threshold).",
			Check: atTiers(func(w sweep) (Verdict, string) {
				cs, wins := w.redLeads(cca.BBRv2, senderOneLeads)
				if len(cs) == 0 {
					return NoData, "missing cells"
				}
				return grade(fmt.Sprintf("BBRv2 leads in %d/%d buffer sizes at %v", wins, len(cs), w.lo),
					wins == len(cs), wins > len(cs)/2)
			}),
		},
		{
			ID:     "fig4-htcp-red",
			Source: "§5.2, Fig. 4(k)–(o)",
			Text:   "Under RED, HTCP beats CUBIC regardless of buffer size.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				cs, wins := w.redLeads(cca.HTCP, senderOneLeads)
				if len(cs) == 0 {
					return NoData, "missing cells"
				}
				return grade(fmt.Sprintf("HTCP leads in %d/%d buffer sizes at %v", wins, len(cs), w.lo),
					wins == len(cs), wins > len(cs)/2)
			}),
		},
		{
			ID:     "fig4-reno-red-balance",
			Source: "§5.2, Fig. 4(p)–(t), Fig. 5",
			Text:   "Under RED, Reno and CUBIC achieve balanced throughput (J ≈ 1).",
			Check: atTiers(func(w sweep) (Verdict, string) {
				cs := w.cells([]experiment.Pairing{pair(cca.Reno, cca.Cubic)}, w.mults, aqm.KindRED, w.lo)
				if len(cs) == 0 {
					return NoData, "missing cells"
				}
				j := mean(cs, jainOf)
				return grade(fmt.Sprintf("mean J = %.3f at %v (paper: 1.0)", j, w.lo), j > 0.95, j > 0.85)
			}),
		},
		{
			ID:     "fig6-fqcodel-fairness",
			Source: "§5.2, Fig. 6",
			Text:   "FQ_CODEL yields near-equal shares for every pairing, inter- and intra-CCA.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				cs := w.cells(experiment.PaperPairings(), w.mults, aqm.KindFQCoDel, w.lo)
				if len(cs) == 0 {
					return NoData, "missing cells"
				}
				j := worst(cs, jainOf)
				return grade(fmt.Sprintf("worst J across %d cells = %.3f at %v (paper: ≈1)", len(cs), j, w.lo),
					j > 0.9, j > 0.8)
			}),
		},
		{
			ID:     "fig7-fifo-full",
			Source: "§5.3, Fig. 7(a)–(b)",
			Text:   "With FIFO, every CCA achieves near-full link utilization.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				cs := w.cells(intra, []float64{2}, aqm.KindFIFO, w.lo)
				if len(cs) == 0 {
					return NoData, "missing 2xBDP cells"
				}
				u := worst(cs, utilizationOf)
				return grade(fmt.Sprintf("worst intra-CCA φ at 2xBDP, %v = %.3f (paper: ≈0.99)", w.lo, u),
					u > 0.9, u > 0.8)
			}),
		},
		{
			ID:     "fig7-red-lags-highbw",
			Source: "§5.3, Fig. 7(c)–(d)",
			Text:   "RED utilization lags significantly at bandwidths ≥1 Gbps.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				if w.hi < units.GigabitPerSec {
					return NoData, "sweep has no ≥1Gbps tier"
				}
				red := w.cells(intra, []float64{2}, aqm.KindRED, w.hi)
				fifo := w.cells(intra, []float64{2}, aqm.KindFIFO, w.hi)
				if len(red) == 0 || len(fifo) == 0 {
					return NoData, "missing cells"
				}
				mr, mf := mean(red, utilizationOf), mean(fifo, utilizationOf)
				return grade(fmt.Sprintf("at %v: mean φ RED %.3f vs FIFO %.3f", w.hi, mr, mf), mr < mf-0.1, mr < mf)
			}),
		},
		{
			ID:     "fig7-fqcodel-25g",
			Source: "§5.3 / §6",
			Text:   "FQ_CODEL achieves near-full utilization except at 25 Gbps, where it falls short.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				if w.lo == w.hi {
					return NoData, "need multiple bandwidth tiers"
				}
				if w.hi < 25*units.GigabitPerSec {
					return NoData, "sweep has no 25Gbps tier"
				}
				lo := w.cells(intra, []float64{4}, aqm.KindFQCoDel, w.lo)
				hi := w.cells(intra, []float64{4}, aqm.KindFQCoDel, w.hi)
				if len(lo) == 0 || len(hi) == 0 {
					return NoData, "missing cells"
				}
				ml, mh := mean(lo, utilizationOf), mean(hi, utilizationOf)
				return grade(fmt.Sprintf("mean FQ_CODEL φ: %.3f at %v vs %.3f at %v", ml, w.lo, mh, w.hi),
					mh < ml-0.03, mh < ml)
			}),
		},
		{
			ID:     "fig8-bbr1-retrans",
			Source: "§5.4, Fig. 8, Table 3",
			Text:   "BBRv1 retransmits far more than every other CCA; BBRv2 is second; Reno and CUBIC are lowest.",
			Check: atTiers(func(w sweep) (Verdict, string) {
				get := func(n cca.Name) float64 {
					var cs []*experiment.Cell
					for _, a := range aqm.Kinds() { // Fig. 8's disciplines, not every one swept
						cs = append(cs, w.cells([]experiment.Pairing{pair(n, n)}, w.mults, a, w.lo)...)
					}
					if len(cs) == 0 {
						return -1
					}
					return mean(cs, func(c *experiment.Cell) float64 { return c.Retransmits })
				}
				b1, b2, cu, re := get(cca.BBRv1), get(cca.BBRv2), get(cca.Cubic), get(cca.Reno)
				if b1 < 0 || b2 < 0 || cu < 0 || re < 0 {
					return NoData, "missing cells"
				}
				return grade(fmt.Sprintf("mean rtx at %v: bbr1=%.0f bbr2=%.0f cubic=%.0f reno=%.0f", w.lo, b1, b2, cu, re),
					b1 > b2 && b2 > cu && b1 > 2*cu && b1 > 2*re, b1 > cu && b1 > re)
			}),
		},
		{
			ID:     "red-buffer-flat",
			Source: "§5.2/§5.4",
			Text:   "RED's outcomes are insensitive to the configured buffer size (its thresholds govern, not the limit).",
			Check: atTiers(func(w sweep) (Verdict, string) {
				if v, d, ok := w.twoBuffers(); !ok {
					return v, d
				}
				q0, q1 := w.mults[len(w.mults)-2], w.mults[len(w.mults)-1]
				cs := w.cells([]experiment.Pairing{pair(cca.Cubic, cca.Cubic)}, []float64{q0, q1}, aqm.KindRED, w.lo)
				if len(cs) < 2 {
					return NoData, "missing cells"
				}
				diff := math.Abs(cs[0].Utilization - cs[1].Utilization)
				return grade(fmt.Sprintf("CUBIC φ at %gxBDP vs %gxBDP: %.3f vs %.3f",
					q0, q1, cs[0].Utilization, cs[1].Utilization), diff < 0.05, diff < 0.15)
			}),
		},
	}
}
