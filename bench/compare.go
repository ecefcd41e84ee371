package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// endToEndRuns indexes a result file's untraced runs by workload.
func (rf resultFile) endToEndRuns() map[string]report {
	m := map[string]report{}
	for _, rp := range rf.Runs {
		if rp.Trace == 0 {
			m[rp.Workload] = rp
		}
	}
	return m
}

// verdict judges b against a for one metric. worse is b's worsening as a
// share of a's value; spread is the wider of the two runs' interquartile
// distances over their repetitions, as a share of the median. A row whose
// spread exceeds the bound cannot be called either way.
func verdict(m metricSpec, a, b value) (worse, spread float64, word string) {
	worse = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	for _, v := range []value{a, b} {
		if v.N > 1 && v.Value != 0 {
			spread = math.Max(spread, math.Abs((v.Q3-v.Q1)/v.Value))
		}
	}
	switch {
	case spread > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "outside"
	default:
		word = "within"
	}
	return worse, spread, word
}

// compareFiles prints, for every end-to-end metric on every workload, both
// medians with their quartiles, the relative difference, the bound and a
// verdict, and says whether the simulated statistics are identical.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	ra, rb := fa.endToEndRuns(), fb.endToEndRuns()
	fmt.Fprintf(w, "a: %s (seed %d, %s)\nb: %s (seed %d, %s)\n", pathA, fa.Seed, fa.Host, pathB, fb.Seed, fb.Host)
	outside := 0
	for _, ws := range workloadSpecs {
		a, okA := ra[ws.Name]
		b, okB := rb[ws.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "\n%s: missing from one file\n", ws.Name)
			continue
		}
		same := "no"
		if a.Digest == b.Digest && a.Counts == b.Counts {
			same = "yes"
		}
		fmt.Fprintf(w, "\n%s  (repetitions a %d, b %d; simulated statistics identical: %s)\n", ws.Name, a.Reps, b.Reps, same)
		fmt.Fprintf(w, "  %-30s %12s %25s %12s %25s %8s %6s %7s  %s\n", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "diff", "bound", "spread", "verdict")
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
			_, spread, word := verdict(m, va, vb)
			if word == "outside" {
				outside++
			}
			fmt.Fprintf(w, "  %-30s %12.5g %25s %12.5g %25s %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				m.Name, va.Value, quartileText(va), vb.Value, quartileText(vb),
				100*(vb.Value-va.Value)/va.Value, 100*m.Bound, 100*spread, word)
		}
	}
	fmt.Fprintf(w, "\n%d rows outside their bound\n", outside)
	return nil
}

func quartileText(v value) string {
	if v.N <= 1 {
		return "-"
	}
	return fmt.Sprintf("[%.5g, %.5g]", v.Q1, v.Q3)
}
