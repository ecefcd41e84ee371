package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

// window returns the time span covered by the dump's surviving events.
func window(d *telemetry.Dump) (t0, t1 int64, ok bool) {
	first := true
	for _, r := range d.Rings {
		for _, e := range r.Events {
			if first || e.At < t0 {
				t0 = e.At
			}
			if first || e.At > t1 {
				t1 = e.At
			}
			first = false
		}
	}
	return t0, t1, !first
}

// binIndex maps a timestamp into [0, bins).
func binIndex(at, t0, t1 int64, bins int) int {
	if t1 <= t0 {
		return 0
	}
	i := int(float64(at-t0) / float64(t1-t0) * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// binHold buckets events by time and keeps the last picked value in each
// bin, holding the previous value across empty bins (gauge semantics: the
// quantity persists between observations). Returns nil when pick accepts
// no event.
func binHold(evs []telemetry.Event, t0, t1 int64, bins int, pick func(telemetry.Event) (float64, bool)) []float64 {
	vals := make([]float64, bins)
	seen := make([]bool, bins)
	any := false
	for _, e := range evs {
		v, ok := pick(e)
		if !ok {
			continue
		}
		i := binIndex(e.At, t0, t1, bins)
		vals[i] = v
		seen[i] = true
		any = true
	}
	if !any {
		return nil
	}
	// Forward-fill: find the first observed value, backfill the lead, then
	// hold the latest observation across gaps.
	last := 0.0
	for i := 0; i < bins; i++ {
		if seen[i] {
			last = vals[i]
			for j := 0; j < i; j++ {
				vals[j] = last
			}
			break
		}
	}
	for i := 0; i < bins; i++ {
		if seen[i] {
			last = vals[i]
		} else {
			vals[i] = last
		}
	}
	return vals
}

// binCount counts picked events per bin, scaled to events/second. Returns
// nil when pick accepts no event.
func binCount(evs []telemetry.Event, t0, t1 int64, bins int, pick func(telemetry.Event) bool) []float64 {
	vals := make([]float64, bins)
	any := false
	for _, e := range evs {
		if !pick(e) {
			continue
		}
		vals[binIndex(e.At, t0, t1, bins)]++
		any = true
	}
	if !any {
		return nil
	}
	binSec := float64(t1-t0) / float64(bins) / 1e9
	if binSec > 0 {
		for i := range vals {
			vals[i] /= binSec
		}
	}
	return vals
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// stateName resolves an interned CCA state code against the dump's table.
func stateName(d *telemetry.Dump, code int64) string {
	if code < 0 {
		return "(start)"
	}
	if int(code) < len(d.States) {
		return d.States[code]
	}
	return fmt.Sprintf("state#%d", code)
}

// renderDump writes the human-readable timeline report for one telemetry
// dump: per-flow cwnd/pacing sparklines and CCA state transitions, then
// per-port occupancy, drop taxonomy, and per-flow dequeue-rate sparklines.
func renderDump(w io.Writer, d *telemetry.Dump, bins int) {
	t0, t1, ok := window(d)
	if !ok {
		fmt.Fprintln(w, "no events recorded")
		return
	}
	fmt.Fprintf(w, "window %.3fs .. %.3fs (%d rings, %d states interned)\n",
		sec(t0), sec(t1), len(d.Rings), len(d.States))
	for ri := range d.Rings {
		r := &d.Rings[ri]
		label := ""
		if r.Label != "" {
			label = " (" + r.Label + ")"
		}
		fmt.Fprintf(w, "\n%s%s  events=%d total=%d overwritten=%d sample=1/%d\n",
			r.Name, label, len(r.Events), r.Total, r.Dropped, r.SampleN)
		switch r.Kind {
		case "flow":
			renderFlowRing(w, d, r, t0, t1, bins)
		case "port":
			renderPortRing(w, r, t0, t1, bins)
		}
	}
}

func renderFlowRing(w io.Writer, d *telemetry.Dump, r *telemetry.RingDump, t0, t1 int64, bins int) {
	if vals := binHold(r.Events, t0, t1, bins, func(e telemetry.Event) (float64, bool) {
		return float64(e.A), e.Kind == telemetry.KindCwnd
	}); vals != nil {
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "  cwnd     %s  %.0f..%.0f bytes\n", viz.Sparkline(vals), lo, hi)
	}
	if vals := binHold(r.Events, t0, t1, bins, func(e telemetry.Event) (float64, bool) {
		return float64(e.A), e.Kind == telemetry.KindPacing
	}); vals != nil {
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "  pacing   %s  %.2f..%.2f Mbps\n", viz.Sparkline(vals), lo/1e6, hi/1e6)
	}
	if vals := binHold(r.Events, t0, t1, bins, func(e telemetry.Event) (float64, bool) {
		return float64(e.B) / 1e6, e.Kind == telemetry.KindRTT
	}); vals != nil {
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "  srtt     %s  %.2f..%.2f ms\n", viz.Sparkline(vals), lo, hi)
	}
	var transitions []string
	rtos := 0
	hiMoves := 0
	for _, e := range r.Events {
		switch e.Kind {
		case telemetry.KindCCAState:
			transitions = append(transitions, fmt.Sprintf("%.3fs %s→%s",
				sec(e.At), stateName(d, e.A), stateName(d, e.B)))
		case telemetry.KindRTO:
			rtos++
		case telemetry.KindInflightHi:
			hiMoves++
		}
	}
	if len(transitions) > 0 {
		const keep = 8
		if len(transitions) > keep {
			fmt.Fprintf(w, "  states   (%d transitions, last %d) %s\n",
				len(transitions), keep, strings.Join(transitions[len(transitions)-keep:], ", "))
		} else {
			fmt.Fprintf(w, "  states   %s\n", strings.Join(transitions, ", "))
		}
	}
	if rtos > 0 {
		fmt.Fprintf(w, "  rto      %d fires\n", rtos)
	}
	if hiMoves > 0 {
		fmt.Fprintf(w, "  infl_hi  %d bound moves\n", hiMoves)
	}
}

func renderPortRing(w io.Writer, r *telemetry.RingDump, t0, t1 int64, bins int) {
	if vals := binHold(r.Events, t0, t1, bins, func(e telemetry.Event) (float64, bool) {
		return float64(e.A), e.Kind == telemetry.KindEnqueue || e.Kind == telemetry.KindDequeue
	}); vals != nil {
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "  queue    %s  %.0f..%.0f bytes\n", viz.Sparkline(vals), lo, hi)
	}
	var peakB, peakP int64
	drops := map[string]int{}
	marks := map[string]int{}
	faults := 0
	flowSet := map[uint32]bool{}
	for _, e := range r.Events {
		switch e.Kind {
		case telemetry.KindHiWater:
			if e.A > peakB {
				peakB = e.A
			}
			if e.B > peakP {
				peakP = e.B
			}
		case telemetry.KindDrop:
			drops[e.Aux.String()]++
		case telemetry.KindMark:
			marks[e.Aux.String()]++
		case telemetry.KindFault:
			faults++
		case telemetry.KindDequeue:
			flowSet[e.Flow] = true
		}
	}
	if peakB > 0 {
		fmt.Fprintf(w, "  hiwater  %d bytes / %d pkts (within the recorded window)\n", peakB, peakP)
	}
	if len(drops) > 0 {
		fmt.Fprintf(w, "  drops    %s\n", countMap(drops))
	}
	if len(marks) > 0 {
		fmt.Fprintf(w, "  marks    %s\n", countMap(marks))
	}
	if faults > 0 {
		fmt.Fprintf(w, "  faults   %d transitions\n", faults)
	}
	flows := make([]uint32, 0, len(flowSet))
	for f := range flowSet {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	perFlow := make([][]float64, 0, len(flows))
	for _, f := range flows {
		vals := binCount(r.Events, t0, t1, bins, func(e telemetry.Event) bool {
			return e.Kind == telemetry.KindDequeue && e.Flow == f
		})
		if vals == nil {
			continue
		}
		perFlow = append(perFlow, vals)
		_, hi := minMax(vals)
		fmt.Fprintf(w, "  deq f=%-3d %s  peak %.0f pkts/s\n", f, viz.Sparkline(vals), hi)
	}
	if vals := jainSeries(perFlow, bins); vals != nil {
		lo, hi := minMax(vals)
		fmt.Fprintf(w, "  jain(t)  %s  %.3f..%.3f over %d flows\n",
			viz.Sparkline(vals), lo, hi, len(perFlow))
	}
}

// jainSeries computes the Jain fairness index per time bin over the flows'
// dequeue-rate series — the timeline's view of the fairness observatory's
// Jain(t). Jain is scale-invariant, so packet rates stand in for shares.
// Bins where no flow dequeued anything score 1 (an idle link is trivially
// fair). Nil unless at least two flows competed.
func jainSeries(perFlow [][]float64, bins int) []float64 {
	if len(perFlow) < 2 {
		return nil
	}
	vals := make([]float64, bins)
	shares := make([]float64, len(perFlow))
	for i := range vals {
		for fi, f := range perFlow {
			shares[fi] = f[i]
		}
		vals[i] = metrics.Jain(shares)
	}
	return vals
}

// countMap renders a reason-count map deterministically (sorted by reason).
func countMap(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
