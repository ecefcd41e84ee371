package paper

import (
	"strings"
	"testing"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/experiment"
	"repro/internal/units"
)

// Bandwidth tiers of the synthetic sweeps below.
const (
	bw100M = 100 * units.MegabitPerSec
	bw500M = 500 * units.MegabitPerSec
	bw1G   = units.GigabitPerSec
	bw10G  = 10 * units.GigabitPerSec
	bw25G  = 25 * units.GigabitPerSec
)

// result is one synthetic seed-1 result for a condition, with equal
// senders, perfect fairness and a full link unless a builder below sets
// the metric a claim reads.
func result(p experiment.Pairing, a aqm.Kind, q float64, bw units.Bandwidth) experiment.Result {
	return experiment.Result{
		Config:      experiment.Config{Pairing: p, AQM: a, QueueBDP: q, Bottleneck: bw, Seed: 1},
		SenderBps:   [2]float64{50e6, 50e6},
		Jain:        1,
		Utilization: 1,
	}
}

// tput sets the two senders' throughputs, in Mbps.
func tput(p experiment.Pairing, a aqm.Kind, q float64, bw units.Bandwidth, mbps1, mbps2 float64) experiment.Result {
	r := result(p, a, q, bw)
	r.SenderBps = [2]float64{mbps1 * 1e6, mbps2 * 1e6}
	return r
}

func jain(p experiment.Pairing, a aqm.Kind, q float64, bw units.Bandwidth, j float64) experiment.Result {
	r := result(p, a, q, bw)
	r.Jain = j
	return r
}

func util(p experiment.Pairing, a aqm.Kind, q float64, bw units.Bandwidth, u float64) experiment.Result {
	r := result(p, a, q, bw)
	r.Utilization = u
	return r
}

func rtx(p experiment.Pairing, a aqm.Kind, q float64, bw units.Bandwidth, n uint64) experiment.Result {
	r := result(p, a, q, bw)
	r.TotalRetransmits = n
	return r
}

// shares builds one X-vs-CUBIC result per buffer size (0.5, 2, 16, …),
// sender 1 taking the given Mbps of a 100 Mbps total.
func shares(p experiment.Pairing, a aqm.Kind, mbps1 ...float64) []experiment.Result {
	qs := []float64{0.5, 2, 16, 32}
	var out []experiment.Result
	for i, m := range mbps1 {
		out = append(out, tput(p, a, qs[i], bw100M, m, 100-m))
	}
	return out
}

// intra builds one result per intra-CCA pairing with the given metric.
func intra(mk func(p experiment.Pairing) experiment.Result) []experiment.Result {
	var out []experiment.Result
	for _, p := range experiment.IntraPairings() {
		out = append(out, mk(p))
	}
	return out
}

// fig8 builds FIFO 2xBDP retransmission counts for bbr1, bbr2, cubic and
// reno (intra-CCA), in that order; a negative count leaves the cell out.
func fig8(b1, b2, cu, re int) []experiment.Result {
	var out []experiment.Result
	for i, n := range []cca.Name{cca.BBRv1, cca.BBRv2, cca.Cubic, cca.Reno} {
		if c := []int{b1, b2, cu, re}[i]; c >= 0 {
			out = append(out, rtx(pair(n, n), aqm.KindFIFO, 2, bw100M, uint64(c)))
		}
	}
	return out
}

func join(sets ...[]experiment.Result) []experiment.Result {
	var out []experiment.Result
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// TestClaimVerdicts pins every claim's grading rule on synthetic sweeps:
// one sweep per reachable verdict, on both sides of every threshold the
// claim states, plus the NO DATA guards (missing cells, too few buffer
// sizes or tiers) and the tier and cells each claim must read.
func TestClaimVerdicts(t *testing.T) {
	var (
		b1c   = pair(cca.BBRv1, cca.Cubic)
		b2c   = pair(cca.BBRv2, cca.Cubic)
		htc   = pair(cca.HTCP, cca.Cubic)
		rnc   = pair(cca.Reno, cca.Cubic)
		cucu  = pair(cca.Cubic, cca.Cubic)
		fifo  = aqm.KindFIFO
		red   = aqm.KindRED
		fqc   = aqm.KindFQCoDel
		codel = aqm.KindCoDel
	)
	fqJain := func(worst float64) []experiment.Result {
		var out []experiment.Result
		for _, p := range experiment.PaperPairings() {
			for _, q := range []float64{0.5, 16} {
				out = append(out, jain(p, fqc, q, bw100M, 1))
			}
		}
		out[len(out)-1].Jain = worst
		// Neither another discipline nor a pairing outside the paper's
		// counts toward the FQ_CODEL claim.
		return append(out, jain(b1c, codel, 2, bw100M, 0.1),
			jain(pair(cca.BBRv1, cca.BBRv2), fqc, 2, bw100M, 0.1))
	}
	fifoFull := func(worst float64) []experiment.Result {
		out := intra(func(p experiment.Pairing) experiment.Result { return util(p, fifo, 2, bw100M, 1) })
		out[2].Utilization = worst
		// Only intra-CCA 2xBDP cells count.
		return append(out, util(b1c, fifo, 2, bw100M, 0.1), util(cucu, fifo, 4, bw100M, 0.1))
	}
	redLags := func(redU float64) []experiment.Result {
		return join(
			intra(func(p experiment.Pairing) experiment.Result { return util(p, fifo, 2, bw1G, 0.95) }),
			intra(func(p experiment.Pairing) experiment.Result { return util(p, red, 2, bw1G, redU) }),
			// The lower tier is not read.
			[]experiment.Result{util(cucu, fifo, 2, bw100M, 0.1), util(cucu, red, 2, bw100M, 1)},
		)
	}
	fq25 := func(hiU float64) []experiment.Result {
		return join(
			intra(func(p experiment.Pairing) experiment.Result { return util(p, fqc, 4, bw100M, 0.95) }),
			intra(func(p experiment.Pairing) experiment.Result { return util(p, fqc, 4, bw25G, hiU) }),
			// A middle tier is not read.
			[]experiment.Result{util(cucu, fqc, 4, bw10G, 0.1)},
		)
	}
	flat := func(u8, u16 float64) []experiment.Result {
		// The smallest buffer is not read: the claim compares the two largest.
		return []experiment.Result{util(cucu, red, 0.5, bw100M, 0.1),
			util(cucu, red, 8, bw100M, u8), util(cucu, red, 16, bw100M, u16)}
	}

	cases := []struct {
		claim, name string
		results     []experiment.Result
		want        Verdict
		detail      string // substring the detail must contain, if set
	}{
		// fig2-equilibrium: BBRv1 leads at the smallest FIFO buffer and
		// CUBIC at the largest; CUBIC leading at the largest alone is PARTIAL.
		{"fig2-equilibrium", "bbr leads small, cubic leads large", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 60, 40), tput(b1c, fifo, 16, bw100M, 40, 60)}, Reproduced, "equilibrium at 16xBDP"},
		{"fig2-equilibrium", "cubic leads both", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 40, 60), tput(b1c, fifo, 16, bw100M, 40, 60)}, Partial, ""},
		{"fig2-equilibrium", "tie at small is no lead", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 50, 50), tput(b1c, fifo, 16, bw100M, 40, 60)}, Partial, ""},
		{"fig2-equilibrium", "bbr leads both", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 60, 40), tput(b1c, fifo, 16, bw100M, 60, 40)}, Deviates, ""},
		{"fig2-equilibrium", "tie at large is no lead", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 60, 40), tput(b1c, fifo, 16, bw100M, 50, 50)}, Deviates, ""},
		{"fig2-equilibrium", "reads the lowest tier", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 60, 40), tput(b1c, fifo, 16, bw100M, 40, 60),
			tput(b1c, fifo, 0.5, bw1G, 40, 60), tput(b1c, fifo, 16, bw1G, 60, 40)}, Reproduced, "at 100Mbps"},
		{"fig2-equilibrium", "one buffer size", []experiment.Result{
			tput(b1c, fifo, 2, bw100M, 60, 40)}, NoData, "need ≥2 buffer sizes"},
		{"fig2-equilibrium", "one buffer size, no BBRv1 cells", []experiment.Result{
			tput(cucu, fifo, 2, bw100M, 50, 50)}, NoData, "need ≥2 buffer sizes"},
		{"fig2-equilibrium", "missing cell", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 60, 40), tput(b1c, fifo, 16, bw100M, 40, 60)}, NoData, "missing cells"},

		// fig2-bbr2-large-buffer: at the largest FIFO buffer BBRv2 gets no
		// more than BBRv1 against CUBIC; more is PARTIAL, never DEVIATES.
		{"fig2-bbr2-large-buffer", "bbr2 below bbr1", []experiment.Result{
			tput(b1c, fifo, 16, bw100M, 60, 40), tput(b2c, fifo, 16, bw100M, 50, 50)}, Reproduced, ""},
		{"fig2-bbr2-large-buffer", "bbr2 equals bbr1", []experiment.Result{
			tput(b1c, fifo, 16, bw100M, 60, 40), tput(b2c, fifo, 16, bw100M, 60, 40)}, Reproduced, ""},
		{"fig2-bbr2-large-buffer", "bbr2 above bbr1", []experiment.Result{
			tput(b1c, fifo, 16, bw100M, 60, 40), tput(b2c, fifo, 16, bw100M, 70, 30)}, Partial, ""},
		{"fig2-bbr2-large-buffer", "reads the largest buffer", []experiment.Result{
			tput(b1c, fifo, 0.5, bw100M, 10, 90), tput(b2c, fifo, 0.5, bw100M, 90, 10),
			tput(b1c, fifo, 16, bw100M, 60, 40), tput(b2c, fifo, 16, bw100M, 50, 50)}, Reproduced, "16xBDP"},
		{"fig2-bbr2-large-buffer", "missing cell", []experiment.Result{
			tput(b1c, fifo, 16, bw100M, 60, 40)}, NoData, "missing cells"},

		// fig2-reno-fades: Reno's share is above 0.35 at the smallest FIFO
		// buffer and falls below both it and 0.45 at the largest.
		{"fig2-reno-fades", "fades from parity", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 50, 50), tput(rnc, fifo, 16, bw100M, 30, 70)}, Reproduced, ""},
		{"fig2-reno-fades", "small share just above 0.35", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 36, 64), tput(rnc, fifo, 16, bw100M, 20, 80)}, Reproduced, ""},
		{"fig2-reno-fades", "small share at 0.35", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 35, 65), tput(rnc, fifo, 16, bw100M, 20, 80)}, Partial, ""},
		{"fig2-reno-fades", "large share just below 0.45", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 50, 50), tput(rnc, fifo, 16, bw100M, 44, 56)}, Reproduced, ""},
		{"fig2-reno-fades", "large share at 0.45", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 50, 50), tput(rnc, fifo, 16, bw100M, 45, 55)}, Partial, ""},
		{"fig2-reno-fades", "no fade", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 40, 60), tput(rnc, fifo, 16, bw100M, 40, 60)}, Deviates, ""},
		{"fig2-reno-fades", "one buffer size", []experiment.Result{
			tput(rnc, fifo, 2, bw100M, 40, 60)}, NoData, "need ≥2 buffer sizes"},
		{"fig2-reno-fades", "one buffer size, no Reno cells", []experiment.Result{
			tput(cucu, fifo, 2, bw100M, 50, 50)}, NoData, "missing cells"},
		{"fig2-reno-fades", "missing cell", []experiment.Result{
			tput(rnc, fifo, 0.5, bw100M, 50, 50), tput(b1c, fifo, 16, bw100M, 30, 70)}, NoData, "missing cells"},

		// fig4-bbr1-red-dominance: BBRv1's RED share exceeds 0.55 at every
		// buffer size (REPRODUCED) or at more than half of them (PARTIAL).
		{"fig4-bbr1-red-dominance", "all above 0.55", shares(b1c, red, 56, 56, 56), Reproduced, "3/3"},
		{"fig4-bbr1-red-dominance", "two of three", shares(b1c, red, 56, 56, 54), Partial, "2/3"},
		{"fig4-bbr1-red-dominance", "one of three", shares(b1c, red, 56, 54, 54), Deviates, "1/3"},
		{"fig4-bbr1-red-dominance", "half is no majority", shares(b1c, red, 56, 54), Deviates, "1/2"},
		{"fig4-bbr1-red-dominance", "0.55 is no lead", shares(b1c, red, 55, 55, 55), Deviates, "0/3"},
		{"fig4-bbr1-red-dominance", "other disciplines not read",
			append(shares(b1c, red, 56, 56), tput(b1c, fifo, 4, bw100M, 10, 90)), Reproduced, "min share 0.56"},
		{"fig4-bbr1-red-dominance", "missing cells", shares(b1c, fifo, 56), NoData, "missing cells"},

		// fig4-bbr2-red-majority and fig4-htcp-red: the X sender outgets
		// CUBIC under RED at every buffer size, or at more than half.
		{"fig4-bbr2-red-majority", "leads everywhere", shares(b2c, red, 60, 60, 60), Reproduced, "3/3"},
		{"fig4-bbr2-red-majority", "tie is no lead", shares(b2c, red, 60, 60, 50), Partial, "2/3"},
		{"fig4-bbr2-red-majority", "half is no majority", shares(b2c, red, 60, 40), Deviates, "1/2"},
		{"fig4-bbr2-red-majority", "one of three", shares(b2c, red, 60, 50, 40), Deviates, "1/3"},
		{"fig4-bbr2-red-majority", "missing cells", shares(htc, red, 60), NoData, "missing cells"},
		{"fig4-htcp-red", "leads everywhere", shares(htc, red, 60, 60, 60), Reproduced, "3/3"},
		{"fig4-htcp-red", "tie is no lead", shares(htc, red, 60, 60, 50), Partial, "2/3"},
		{"fig4-htcp-red", "half is no majority", shares(htc, red, 60, 40), Deviates, "1/2"},
		{"fig4-htcp-red", "one of three", shares(htc, red, 60, 50, 40), Deviates, "1/3"},
		{"fig4-htcp-red", "missing cells", shares(b2c, red, 60), NoData, "missing cells"},

		// fig4-reno-red-balance: mean Reno-vs-CUBIC RED Jain above 0.95,
		// PARTIAL above 0.85.
		{"fig4-reno-red-balance", "above 0.95", []experiment.Result{jain(rnc, red, 2, bw100M, 0.96)}, Reproduced, ""},
		{"fig4-reno-red-balance", "mean over buffers", []experiment.Result{
			jain(rnc, red, 2, bw100M, 1), jain(rnc, red, 16, bw100M, 0.94)}, Reproduced, "0.970"},
		{"fig4-reno-red-balance", "at 0.95", []experiment.Result{jain(rnc, red, 2, bw100M, 0.95)}, Partial, ""},
		{"fig4-reno-red-balance", "above 0.85", []experiment.Result{jain(rnc, red, 2, bw100M, 0.86)}, Partial, ""},
		{"fig4-reno-red-balance", "at 0.85", []experiment.Result{jain(rnc, red, 2, bw100M, 0.85)}, Deviates, ""},
		{"fig4-reno-red-balance", "missing cells", []experiment.Result{jain(rnc, fifo, 2, bw100M, 1)}, NoData, "missing cells"},

		// fig6-fqcodel-fairness: the worst FQ_CODEL Jain over the paper's
		// pairings above 0.9, PARTIAL above 0.8.
		{"fig6-fqcodel-fairness", "worst above 0.9", fqJain(0.91), Reproduced, "across 18 cells"},
		{"fig6-fqcodel-fairness", "worst at 0.9", fqJain(0.9), Partial, ""},
		{"fig6-fqcodel-fairness", "worst above 0.8", fqJain(0.81), Partial, ""},
		{"fig6-fqcodel-fairness", "worst at 0.8", fqJain(0.8), Deviates, ""},
		{"fig6-fqcodel-fairness", "missing cells", []experiment.Result{jain(b1c, fifo, 2, bw100M, 1)}, NoData, "missing cells"},

		// fig7-fifo-full: the worst intra-CCA FIFO φ at 2xBDP above 0.9,
		// PARTIAL above 0.8.
		{"fig7-fifo-full", "worst above 0.9", fifoFull(0.91), Reproduced, ""},
		{"fig7-fifo-full", "worst at 0.9", fifoFull(0.9), Partial, ""},
		{"fig7-fifo-full", "worst above 0.8", fifoFull(0.81), Partial, ""},
		{"fig7-fifo-full", "worst at 0.8", fifoFull(0.8), Deviates, ""},
		{"fig7-fifo-full", "no 2xBDP cells", []experiment.Result{util(cucu, fifo, 4, bw100M, 1)}, NoData, "missing 2xBDP cells"},

		// fig7-red-lags-highbw: at the highest tier (≥1 Gbps), mean RED φ
		// more than 0.1 below FIFO's; below at all is PARTIAL.
		{"fig7-red-lags-highbw", "gap above 0.1", redLags(0.84), Reproduced, "at 1Gbps"},
		{"fig7-red-lags-highbw", "gap below 0.1", redLags(0.86), Partial, ""},
		{"fig7-red-lags-highbw", "no gap", redLags(0.95), Deviates, ""},
		{"fig7-red-lags-highbw", "no ≥1Gbps tier", []experiment.Result{
			util(cucu, fifo, 2, bw500M, 1), util(cucu, red, 2, bw500M, 0.5)}, NoData, "no ≥1Gbps tier"},
		{"fig7-red-lags-highbw", "missing RED cells", []experiment.Result{util(cucu, fifo, 2, bw1G, 1)}, NoData, "missing cells"},

		// fig7-fqcodel-25g: mean FQ_CODEL φ at 4xBDP more than 0.03 lower
		// at the 25 Gbps tier than at the lowest; lower at all is PARTIAL.
		{"fig7-fqcodel-25g", "gap above 0.03", fq25(0.91), Reproduced, ""},
		{"fig7-fqcodel-25g", "gap below 0.03", fq25(0.93), Partial, ""},
		{"fig7-fqcodel-25g", "no gap", fq25(0.95), Deviates, ""},
		{"fig7-fqcodel-25g", "one tier", []experiment.Result{util(cucu, fqc, 4, bw25G, 0.5)}, NoData, "need multiple bandwidth tiers"},
		{"fig7-fqcodel-25g", "no 25Gbps tier", []experiment.Result{
			util(cucu, fqc, 4, bw100M, 1), util(cucu, fqc, 4, bw10G, 0.5)}, NoData, "no 25Gbps tier"},
		{"fig7-fqcodel-25g", "missing cells", []experiment.Result{
			util(cucu, fqc, 4, bw100M, 1), util(cucu, fqc, 2, bw25G, 0.5)}, NoData, "missing cells"},

		// fig8-bbr1-retrans: mean retransmissions ordered bbr1 > bbr2 >
		// cubic with bbr1 above twice cubic's and reno's; bbr1 above cubic
		// and reno alone is PARTIAL.
		{"fig8-bbr1-retrans", "full ordering", fig8(100, 50, 10, 10), Reproduced, "bbr1=100 bbr2=50 cubic=10 reno=10"},
		{"fig8-bbr1-retrans", "bbr2 not above cubic", fig8(100, 10, 10, 10), Partial, ""},
		{"fig8-bbr1-retrans", "bbr1 twice cubic", fig8(20, 15, 10, 5), Partial, ""},
		{"fig8-bbr1-retrans", "bbr1 twice reno", fig8(20, 15, 5, 10), Partial, ""},
		{"fig8-bbr1-retrans", "bbr1 equals cubic", fig8(10, 5, 10, 5), Deviates, ""},
		{"fig8-bbr1-retrans", "bbr1 below reno", fig8(10, 5, 3, 20), Deviates, ""},
		{"fig8-bbr1-retrans", "mean over buffers and disciplines", join(fig8(-1, 50, 10, 10), []experiment.Result{
			rtx(pair(cca.BBRv1, cca.BBRv1), aqm.KindFIFO, 2, bw100M, 150),
			rtx(pair(cca.BBRv1, cca.BBRv1), aqm.KindRED, 16, bw100M, 50),
			// CoDel is not one of Fig. 8's disciplines.
			rtx(pair(cca.BBRv1, cca.BBRv1), codel, 2, bw100M, 0)}), Reproduced, "bbr1=100"},
		{"fig8-bbr1-retrans", "missing reno", fig8(100, 50, 10, -1), NoData, "missing cells"},

		// red-buffer-flat: CUBIC's RED φ at the two largest buffers differs
		// by less than 0.05, PARTIAL below 0.15.
		{"red-buffer-flat", "within 0.05", flat(0.90, 0.86), Reproduced, "8xBDP vs 16xBDP"},
		{"red-buffer-flat", "within 0.05, other sign", flat(0.86, 0.90), Reproduced, ""},
		{"red-buffer-flat", "above 0.05", flat(0.90, 0.84), Partial, ""},
		{"red-buffer-flat", "below 0.15", flat(0.90, 0.76), Partial, ""},
		{"red-buffer-flat", "above 0.15", flat(0.90, 0.74), Deviates, ""},
		{"red-buffer-flat", "one buffer size", []experiment.Result{util(cucu, red, 2, bw100M, 1)}, NoData, "need ≥2 buffer sizes"},
		{"red-buffer-flat", "one buffer size, no RED cells", []experiment.Result{
			util(cucu, fifo, 2, bw100M, 1)}, NoData, "need ≥2 buffer sizes"},
		{"red-buffer-flat", "missing cell", []experiment.Result{
			util(cucu, red, 8, bw100M, 1), util(rnc, red, 16, bw100M, 1)}, NoData, "missing cells"},
	}

	byID := map[string]Claim{}
	for _, c := range Claims() {
		byID[c.ID] = c
	}
	tested := map[string]bool{}
	for _, tc := range cases {
		c, ok := byID[tc.claim]
		if !ok {
			t.Fatalf("no claim %q", tc.claim)
		}
		tested[tc.claim] = true
		v, detail := c.Check(experiment.Summarize(tc.results))
		if v != tc.want || !strings.Contains(detail, tc.detail) {
			t.Errorf("%s / %s: %s %q, want %s containing %q", tc.claim, tc.name, v, detail, tc.want, tc.detail)
		}
	}
	for id := range byID {
		if !tested[id] {
			t.Errorf("claim %s has no verdict cases", id)
		}
	}
}
