package paper

import (
	"fmt"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/units"
)

func pair(a, b cca.Name) experiment.Pairing { return experiment.Pairing{CCA1: a, CCA2: b} }

// lowestBW returns the smallest bandwidth present in the sweep (claims are
// evaluated there when they are bandwidth-independent — it is the tier with
// the least simulation noise).
func lowestBW(s *experiment.Summary) (units.Bandwidth, bool) {
	bws := s.Bandwidths()
	if len(bws) == 0 {
		return 0, false
	}
	return bws[0], true
}

// highestBW returns the largest bandwidth present.
func highestBW(s *experiment.Summary) (units.Bandwidth, bool) {
	bws := s.Bandwidths()
	if len(bws) == 0 {
		return 0, false
	}
	return bws[len(bws)-1], true
}

// Claims returns the paper's checkable findings in presentation order.
func Claims() []Claim {
	return []Claim{
		{
			ID:     "fig2-equilibrium",
			Source: "§5.1, Fig. 2(a)–(e)",
			Text:   "Under FIFO, BBRv1 beats CUBIC below an equilibrium buffer size and CUBIC takes over beyond it.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				mults := s.QueueMults()
				if len(mults) < 2 {
					return NoData, "need ≥2 buffer sizes"
				}
				small := s.Lookup(pair(cca.BBRv1, cca.Cubic), aqm.KindFIFO, mults[0], bw)
				large := s.Lookup(pair(cca.BBRv1, cca.Cubic), aqm.KindFIFO, mults[len(mults)-1], bw)
				if small == nil || large == nil {
					return NoData, "missing cells"
				}
				bbrLeadsSmall := small.SenderBps[0] > small.SenderBps[1]
				cubicLeadsLarge := large.SenderBps[1] > large.SenderBps[0]
				detail := fmt.Sprintf("at %v: %gxBDP %.0f/%.0f Mbps, %gxBDP %.0f/%.0f Mbps",
					bw, mults[0], small.SenderBps[0]/1e6, small.SenderBps[1]/1e6,
					mults[len(mults)-1], large.SenderBps[0]/1e6, large.SenderBps[1]/1e6)
				if bbrLeadsSmall && cubicLeadsLarge {
					if q, ok := s.EquilibriumBDP(pair(cca.BBRv1, cca.Cubic), aqm.KindFIFO, bw); ok {
						detail += fmt.Sprintf("; equilibrium at %gxBDP (paper: 2xBDP at 100 Mbps)", q)
					}
					return Reproduced, detail
				}
				if cubicLeadsLarge {
					return Partial, detail
				}
				return Deviates, detail
			},
		},
		{
			ID:     "fig2-bbr2-large-buffer",
			Source: "§5.1 \"BBRv2's takeover\"",
			Text:   "BBRv2 performs even worse than BBRv1 against CUBIC at high-BDP FIFO buffers (its inflight_hi reacts to overflow loss).",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				mults := s.QueueMults()
				q := mults[len(mults)-1]
				b1 := s.Lookup(pair(cca.BBRv1, cca.Cubic), aqm.KindFIFO, q, bw)
				b2 := s.Lookup(pair(cca.BBRv2, cca.Cubic), aqm.KindFIFO, q, bw)
				if b1 == nil || b2 == nil {
					return NoData, "missing cells"
				}
				d := fmt.Sprintf("at %v %gxBDP: BBRv1 %.0fM, BBRv2 %.0fM vs CUBIC",
					bw, q, b1.SenderBps[0]/1e6, b2.SenderBps[0]/1e6)
				if b2.SenderBps[0] <= b1.SenderBps[0] {
					return Reproduced, d
				}
				return Partial, d
			},
		},
		{
			ID:     "fig2-reno-fades",
			Source: "§5.1 \"Reno's takeover\"",
			Text:   "Reno holds near-parity with CUBIC at small FIFO buffers but loses badly as buffers grow.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				mults := s.QueueMults()
				small := s.Lookup(pair(cca.Reno, cca.Cubic), aqm.KindFIFO, mults[0], bw)
				large := s.Lookup(pair(cca.Reno, cca.Cubic), aqm.KindFIFO, mults[len(mults)-1], bw)
				if small == nil || large == nil {
					return NoData, "missing cells"
				}
				smallRatio := small.SenderBps[0] / (small.SenderBps[0] + small.SenderBps[1])
				largeRatio := large.SenderBps[0] / (large.SenderBps[0] + large.SenderBps[1])
				d := fmt.Sprintf("Reno share: %.2f at %gxBDP, %.2f at %gxBDP",
					smallRatio, mults[0], largeRatio, mults[len(mults)-1])
				switch {
				case smallRatio > 0.35 && largeRatio < smallRatio && largeRatio < 0.45:
					return Reproduced, d
				case largeRatio < smallRatio:
					return Partial, d
				default:
					return Deviates, d
				}
			},
		},
		{
			ID:     "fig4-bbr1-red-dominance",
			Source: "§5.2, Fig. 4(a)–(e)",
			Text:   "Under RED, BBRv1 consumes almost all bandwidth and CUBIC is starved, at every buffer size.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				wins, total := 0, 0
				var minShare = 1.0
				for _, q := range s.QueueMults() {
					c := s.Lookup(pair(cca.BBRv1, cca.Cubic), aqm.KindRED, q, bw)
					if c == nil {
						continue
					}
					total++
					share := c.SenderBps[0] / (c.SenderBps[0] + c.SenderBps[1])
					if share < minShare {
						minShare = share
					}
					if share > 0.55 {
						wins++
					}
				}
				if total == 0 {
					return NoData, "missing cells"
				}
				d := fmt.Sprintf("BBRv1 leads in %d/%d buffer sizes at %v (min share %.2f)", wins, total, bw, minShare)
				if wins == total {
					return Reproduced, d
				}
				if wins > total/2 {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig4-bbr2-red-majority",
			Source: "§5.2, Fig. 4(f)–(j)",
			Text:   "Under RED, BBRv2 consistently takes the majority of the bandwidth from CUBIC (drops stay under its 2% threshold).",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				wins, total := 0, 0
				for _, q := range s.QueueMults() {
					c := s.Lookup(pair(cca.BBRv2, cca.Cubic), aqm.KindRED, q, bw)
					if c == nil {
						continue
					}
					total++
					if c.SenderBps[0] > c.SenderBps[1] {
						wins++
					}
				}
				if total == 0 {
					return NoData, "missing cells"
				}
				d := fmt.Sprintf("BBRv2 leads in %d/%d buffer sizes at %v", wins, total, bw)
				if wins == total {
					return Reproduced, d
				}
				if wins > total/2 {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig4-htcp-red",
			Source: "§5.2, Fig. 4(k)–(o)",
			Text:   "Under RED, HTCP beats CUBIC regardless of buffer size.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				wins, total := 0, 0
				for _, q := range s.QueueMults() {
					c := s.Lookup(pair(cca.HTCP, cca.Cubic), aqm.KindRED, q, bw)
					if c == nil {
						continue
					}
					total++
					if c.SenderBps[0] > c.SenderBps[1] {
						wins++
					}
				}
				if total == 0 {
					return NoData, "missing cells"
				}
				d := fmt.Sprintf("HTCP leads in %d/%d buffer sizes at %v", wins, total, bw)
				if wins == total {
					return Reproduced, d
				}
				if wins > total/2 {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig4-reno-red-balance",
			Source: "§5.2, Fig. 4(p)–(t), Fig. 5",
			Text:   "Under RED, Reno and CUBIC achieve balanced throughput (J ≈ 1).",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				var js []float64
				for _, q := range s.QueueMults() {
					if c := s.Lookup(pair(cca.Reno, cca.Cubic), aqm.KindRED, q, bw); c != nil {
						js = append(js, c.Jain)
					}
				}
				if len(js) == 0 {
					return NoData, "missing cells"
				}
				mean := metrics.Mean(js)
				d := fmt.Sprintf("mean J = %.3f at %v (paper: 1.0)", mean, bw)
				if mean > 0.95 {
					return Reproduced, d
				}
				if mean > 0.85 {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig6-fqcodel-fairness",
			Source: "§5.2, Fig. 6",
			Text:   "FQ_CODEL yields near-equal shares for every pairing, inter- and intra-CCA.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				var worst = 1.0
				n := 0
				for _, p := range experiment.PaperPairings() {
					for _, q := range s.QueueMults() {
						if c := s.Lookup(p, aqm.KindFQCoDel, q, bw); c != nil {
							n++
							if c.Jain < worst {
								worst = c.Jain
							}
						}
					}
				}
				if n == 0 {
					return NoData, "missing cells"
				}
				d := fmt.Sprintf("worst J across %d cells = %.3f at %v (paper: ≈1)", n, worst, bw)
				if worst > 0.9 {
					return Reproduced, d
				}
				if worst > 0.8 {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig7-fifo-full",
			Source: "§5.3, Fig. 7(a)–(b)",
			Text:   "With FIFO, every CCA achieves near-full link utilization.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				var worst = 1.0
				n := 0
				for _, p := range experiment.IntraPairings() {
					if c := s.Lookup(p, aqm.KindFIFO, 2, bw); c != nil {
						n++
						if c.Utilization < worst {
							worst = c.Utilization
						}
					}
				}
				if n == 0 {
					return NoData, "missing 2xBDP cells"
				}
				d := fmt.Sprintf("worst intra-CCA φ at 2xBDP, %v = %.3f (paper: ≈0.99)", bw, worst)
				if worst > 0.9 {
					return Reproduced, d
				}
				if worst > 0.8 {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig7-red-lags-highbw",
			Source: "§5.3, Fig. 7(c)–(d)",
			Text:   "RED utilization lags significantly at bandwidths ≥1 Gbps.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				hi, ok := highestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				if hi < units.GigabitPerSec {
					return NoData, "sweep has no ≥1Gbps tier"
				}
				var redU, fifoU []float64
				for _, p := range experiment.IntraPairings() {
					if c := s.Lookup(p, aqm.KindRED, 2, hi); c != nil {
						redU = append(redU, c.Utilization)
					}
					if c := s.Lookup(p, aqm.KindFIFO, 2, hi); c != nil {
						fifoU = append(fifoU, c.Utilization)
					}
				}
				if len(redU) == 0 || len(fifoU) == 0 {
					return NoData, "missing cells"
				}
				mr, mf := metrics.Mean(redU), metrics.Mean(fifoU)
				d := fmt.Sprintf("at %v: mean φ RED %.3f vs FIFO %.3f", hi, mr, mf)
				if mr < mf-0.1 {
					return Reproduced, d
				}
				if mr < mf {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig7-fqcodel-25g",
			Source: "§5.3 / §6",
			Text:   "FQ_CODEL achieves near-full utilization except at 25 Gbps, where it falls short.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bws := s.Bandwidths()
				if len(bws) < 2 {
					return NoData, "need multiple bandwidth tiers"
				}
				lo, hi := bws[0], bws[len(bws)-1]
				if hi < 25*units.GigabitPerSec {
					return NoData, "sweep has no 25Gbps tier"
				}
				var loU, hiU []float64
				for _, p := range experiment.IntraPairings() {
					if c := s.Lookup(p, aqm.KindFQCoDel, 4, lo); c != nil {
						loU = append(loU, c.Utilization)
					}
					if c := s.Lookup(p, aqm.KindFQCoDel, 4, hi); c != nil {
						hiU = append(hiU, c.Utilization)
					}
				}
				if len(loU) == 0 || len(hiU) == 0 {
					return NoData, "missing cells"
				}
				ml, mh := metrics.Mean(loU), metrics.Mean(hiU)
				d := fmt.Sprintf("mean FQ_CODEL φ: %.3f at %v vs %.3f at %v", ml, lo, mh, hi)
				if mh < ml-0.03 {
					return Reproduced, d
				}
				if mh < ml {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "fig8-bbr1-retrans",
			Source: "§5.4, Fig. 8, Table 3",
			Text:   "BBRv1 retransmits far more than every other CCA; BBRv2 is second; Reno and CUBIC are lowest.",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				get := func(n cca.Name) float64 {
					var sum float64
					cnt := 0
					for _, a := range aqm.Kinds() { // Fig. 8's disciplines, not every one swept
						for _, q := range s.QueueMults() {
							if c := s.Lookup(pair(n, n), a, q, bw); c != nil {
								sum += c.Retransmits
								cnt++
							}
						}
					}
					if cnt == 0 {
						return -1
					}
					return sum / float64(cnt)
				}
				b1, b2, cu, re := get(cca.BBRv1), get(cca.BBRv2), get(cca.Cubic), get(cca.Reno)
				if b1 < 0 || b2 < 0 || cu < 0 || re < 0 {
					return NoData, "missing cells"
				}
				d := fmt.Sprintf("mean rtx at %v: bbr1=%.0f bbr2=%.0f cubic=%.0f reno=%.0f", bw, b1, b2, cu, re)
				if b1 > b2 && b2 > cu && b1 > 2*cu && b1 > 2*re {
					return Reproduced, d
				}
				if b1 > cu && b1 > re {
					return Partial, d
				}
				return Deviates, d
			},
		},
		{
			ID:     "red-buffer-flat",
			Source: "§5.2/§5.4",
			Text:   "RED's outcomes are insensitive to the configured buffer size (its thresholds govern, not the limit).",
			Check: func(s *experiment.Summary) (Verdict, string) {
				bw, ok := lowestBW(s)
				if !ok {
					return NoData, "empty sweep"
				}
				mults := s.QueueMults()
				if len(mults) < 2 {
					return NoData, "need ≥2 buffer sizes"
				}
				a := s.Lookup(pair(cca.Cubic, cca.Cubic), aqm.KindRED, mults[len(mults)-2], bw)
				b := s.Lookup(pair(cca.Cubic, cca.Cubic), aqm.KindRED, mults[len(mults)-1], bw)
				if a == nil || b == nil {
					return NoData, "missing cells"
				}
				diff := a.Utilization - b.Utilization
				if diff < 0 {
					diff = -diff
				}
				d := fmt.Sprintf("CUBIC φ at %gxBDP vs %gxBDP: %.3f vs %.3f",
					mults[len(mults)-2], mults[len(mults)-1], a.Utilization, b.Utilization)
				if diff < 0.05 {
					return Reproduced, d
				}
				if diff < 0.15 {
					return Partial, d
				}
				return Deviates, d
			},
		},
	}
}
