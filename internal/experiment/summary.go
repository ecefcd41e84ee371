package experiment

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/aqm"
	"repro/internal/cca"
	"repro/internal/metrics"
	"repro/internal/units"
)

// CellKey identifies one averaged grid cell (all seeds of one condition).
type CellKey struct {
	Pairing    Pairing
	AQM        aqm.Kind
	QueueBDP   float64
	Bottleneck units.Bandwidth
}

// Cell is the seed-averaged measurement for one condition.
type Cell struct {
	Key         CellKey
	SenderBps   [2]float64 // mean per-sender throughput
	Jain        float64
	Utilization float64
	Retransmits float64 // mean total retransmissions
	// Harm is the asymmetric counterpart to Jain (Ware et al., HotNets
	// '19): the mean, over replicas, of the worse sender's normalized
	// shortfall below its fair share of the bottleneck (capacity/2). Zero
	// when both senders hold their fair share; approaches 1 as one sender
	// is starved. Unlike Jain it also charges utilization collapse: two
	// senders sharing a dead link are perfectly fair but maximally harmed.
	Harm float64
	N    int // replicas averaged

	// Replica spread (sample standard deviations; 0 when N < 2).
	JainStd float64
	UtilStd float64
}

// Summary aggregates a result set by condition.
type Summary struct {
	cells map[CellKey]*Cell
}

// Summarize averages results over seeds, recording the replica spread.
// Errored results (panicked or watchdog-aborted configurations) carry no
// measurements and are skipped.
func Summarize(results []Result) *Summary {
	acc := map[CellKey]*Cell{}
	jains := map[CellKey][]float64{}
	utils := map[CellKey][]float64{}
	for _, r := range results {
		if r.Errored() {
			continue
		}
		if r.Config.SoloFCT {
			// Solo FCT baselines run no long-running flows: their sender
			// throughput, fairness and utilization are not grid science.
			// They exist only as the denominator of HarmFCTMatrix.
			continue
		}
		k := CellKey{r.Config.Pairing, r.Config.AQM, r.Config.QueueBDP, r.Config.Bottleneck}
		c := acc[k]
		if c == nil {
			c = &Cell{Key: k}
			acc[k] = c
		}
		c.SenderBps[0] += r.SenderBps[0]
		c.SenderBps[1] += r.SenderBps[1]
		c.Jain += r.Jain
		c.Utilization += r.Utilization
		c.Retransmits += float64(r.TotalRetransmits)
		c.Harm += resultHarm(r)
		c.N++
		jains[k] = append(jains[k], r.Jain)
		utils[k] = append(utils[k], r.Utilization)
	}
	for k, c := range acc {
		n := float64(c.N)
		c.SenderBps[0] /= n
		c.SenderBps[1] /= n
		c.Jain /= n
		c.Utilization /= n
		c.Retransmits /= n
		c.Harm /= n
		c.JainStd = metrics.Stddev(jains[k])
		c.UtilStd = metrics.Stddev(utils[k])
	}
	return &Summary{cells: acc}
}

// resultHarm is one replica's harm: the worse sender's shortfall below its
// fair share of the bottleneck, capacity/2 standing in for the solo
// baseline (a lone elephant saturates the link, so its fair-share
// entitlement under competition is half of it).
func resultHarm(r Result) float64 {
	fair := float64(r.Config.Bottleneck) / 2
	h := metrics.Harm(fair, r.SenderBps[0])
	if h2 := metrics.Harm(fair, r.SenderBps[1]); h2 > h {
		h = h2
	}
	if math.IsInf(h, 1) { // zero-capacity config: no baseline to be harmed against
		return 0
	}
	return h
}

// Lookup returns the cell for a condition, or nil.
func (s *Summary) Lookup(p Pairing, a aqm.Kind, q float64, bw units.Bandwidth) *Cell {
	return s.cells[CellKey{p, a, q, bw}]
}

// QueueMults returns the distinct buffer multipliers present, ascending.
func (s *Summary) QueueMults() []float64 {
	seen := map[float64]bool{}
	for k := range s.cells {
		seen[k.QueueBDP] = true
	}
	out := make([]float64, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Float64s(out)
	return out
}

// Bandwidths returns the distinct bottleneck bandwidths present, ascending.
func (s *Summary) Bandwidths() []units.Bandwidth {
	seen := map[units.Bandwidth]bool{}
	for k := range s.cells {
		seen[k.Bottleneck] = true
	}
	out := make([]units.Bandwidth, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pairings returns the distinct pairings present, in paper order where
// possible.
func (s *Summary) Pairings() []Pairing {
	seen := map[Pairing]bool{}
	for k := range s.cells {
		seen[k.Pairing] = true
	}
	var out []Pairing
	for _, p := range PaperPairings() {
		if seen[p] {
			out = append(out, p)
			delete(seen, p)
		}
	}
	rest := make([]Pairing, 0, len(seen))
	for p := range seen {
		rest = append(rest, p)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].String() < rest[j].String() })
	return append(out, rest...)
}

// AQMs returns the distinct disciplines present: the paper's in paper
// order, then any other (CoDel) by name.
func (s *Summary) AQMs() []aqm.Kind {
	seen := map[aqm.Kind]bool{}
	for k := range s.cells {
		seen[k.AQM] = true
	}
	var out []aqm.Kind
	for _, a := range aqm.Kinds() {
		if seen[a] {
			out = append(out, a)
			delete(seen, a)
		}
	}
	rest := make([]aqm.Kind, 0, len(seen))
	for a := range seen {
		rest = append(rest, a)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	return append(out, rest...)
}

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Pairing Pairing
	AQM     aqm.Kind
	AvgPhi  float64 // Avg(φ): mean utilization across all conditions
	AvgRR   float64 // Avg(RR): mean retransmissions relative to CUBIC-vs-CUBIC
	AvgJain float64 // Avg(J_index)
	AvgHarm float64 // Avg(H): mean per-cell harm (asymmetric unfairness)
}

// Table3 computes the overall performance comparison: for every pairing ×
// AQM, the utilization, fairness, and CUBIC-normalized retransmission
// ratios averaged over all buffer sizes and bandwidths (eq. 4 and §5.5).
func (s *Summary) Table3() []Table3Row {
	cubicRef := Pairing{cca.Cubic, cca.Cubic}
	var rows []Table3Row
	for _, a := range s.AQMs() {
		for _, p := range s.Pairings() {
			var phis, jains, harms, rrs []float64
			for _, q := range s.QueueMults() {
				for _, bw := range s.Bandwidths() {
					c := s.Lookup(p, a, q, bw)
					if c == nil {
						continue
					}
					phis = append(phis, c.Utilization)
					jains = append(jains, c.Jain)
					harms = append(harms, c.Harm)
					if ref := s.Lookup(cubicRef, a, q, bw); ref != nil {
						rr := metrics.RelativeRetransmissions(uint64(c.Retransmits+0.5), uint64(ref.Retransmits+0.5))
						if !math.IsInf(rr, 1) { // a loss-free reference: no ratio
							rrs = append(rrs, rr)
						}
					}
				}
			}
			if len(phis) == 0 {
				continue
			}
			avgRR := math.NaN() // no CUBIC reference cell with a finite ratio
			if len(rrs) > 0 {
				avgRR = metrics.Mean(rrs)
			}
			rows = append(rows, Table3Row{
				Pairing: p,
				AQM:     a,
				AvgPhi:  metrics.Mean(phis),
				AvgRR:   avgRR,
				AvgJain: metrics.Mean(jains),
				AvgHarm: metrics.Mean(harms),
			})
		}
	}
	slices.SortFunc(rows, func(x, y Table3Row) int { return table3Cmp(x.AQM, x.Pairing, y.AQM, y.Pairing) })
	return rows
}

// table3Cmp orders rows as the paper prints Table 3: grouped by AQM (FIFO,
// RED, FQ_CODEL, then any other by name), the paper's pairings inside in
// printed order, then any other pairing by name.
func table3Cmp(a1 aqm.Kind, p1 Pairing, a2 aqm.Kind, p2 Pairing) int {
	return cmp.Or(
		cmp.Compare(aqmOrder(a1), aqmOrder(a2)),
		cmp.Compare(a1, a2),
		cmp.Compare(pairingOrder(p1), pairingOrder(p2)),
		cmp.Compare(p1.String(), p2.String()),
	)
}

func aqmOrder(a aqm.Kind) int {
	for i, k := range aqm.Kinds() {
		if a == k {
			return i
		}
	}
	return 99
}

func pairingOrder(p Pairing) int {
	// Table 3 order: intra/inter interleaved as printed in the paper.
	order := []Pairing{
		{cca.BBRv1, cca.BBRv1},
		{cca.BBRv1, cca.Cubic},
		{cca.BBRv2, cca.BBRv2},
		{cca.BBRv2, cca.Cubic},
		{cca.HTCP, cca.HTCP},
		{cca.HTCP, cca.Cubic},
		{cca.Reno, cca.Reno},
		{cca.Reno, cca.Cubic},
		{cca.Cubic, cca.Cubic},
	}
	for i, q := range order {
		if p == q {
			return i
		}
	}
	return 99
}
