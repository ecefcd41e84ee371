package paper

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// recordedSweep loads the checked-in sweep results (the ones EXPERIMENTS.md
// is generated from) in file-name order, with their non-empty notes.
// Skips the test when no recorded results are present (e.g. a fresh
// checkout) — run `cmd/sweep` into results/ to enable it.
func recordedSweep(t *testing.T) (all []experiment.Result, notes []string) {
	t.Helper()
	dir := filepath.Join("..", "..", "results")
	paths, _ := filepath.Glob(filepath.Join(dir, "b*.json"))
	if len(paths) == 0 {
		t.Skip("no recorded sweep results under results/")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := experiment.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		all = append(all, rs.Results...)
		if rs.Note != "" {
			notes = append(notes, rs.Note)
		}
	}
	return all, notes
}

// TestRecordedSweepReproduces grades the recorded sweep against the
// paper's claims.
func TestRecordedSweepReproduces(t *testing.T) {
	all, _ := recordedSweep(t)
	s := experiment.Summarize(all)

	reproduced, deviates := 0, 0
	for _, c := range Claims() {
		v, detail := c.Check(s)
		t.Logf("%-24s %-10s %s", c.ID, v, detail)
		switch v {
		case Reproduced:
			reproduced++
		case Deviates:
			deviates++
		}
	}
	if reproduced < 8 {
		t.Errorf("only %d claims reproduced on the recorded sweep", reproduced)
	}
	if deviates > 2 {
		t.Errorf("%d claims deviate on the recorded sweep", deviates)
	}
}

// reportHeadingRenames maps each "### Figure" heading of the report goldens
// to the catalogue heading that replaced it; nothing else in the report
// changed when its figure blocks moved onto the catalogue.
var reportHeadingRenames = strings.NewReplacer(
	"### Figure 2 family (per-sender throughput, fifo)\n", "### Figure 2: per-sender throughput, AQM=fifo\n",
	"### Figure 4 family (per-sender throughput, red)\n", "### Figure 4: per-sender throughput, AQM=red\n",
	"### Figure 3 (Jain's index, fifo)\n", "### Figure 3: Jain's fairness index, AQM=fifo\n",
	"### Figure 5 (Jain's index, red)\n", "### Figure 5: Jain's fairness index, AQM=red\n",
	"### Figure 6 (Jain's index, fq_codel)\n", "### Figure 6: Jain's fairness index, AQM=fq_codel\n",
	"### Figure 7 (link utilization, intra-CCA)\n", "### Figure 7: overall link utilization (intra-CCA)\n",
	"### Figure 8 (retransmissions, intra-CCA)\n", "### Figure 8: retransmissions (intra-CCA)\n",
)

// TestRecordedSweepRenderingGolden renders every cmd/figures -fig × -style
// output and the cmd/report document, with and without figures, from the
// recorded sweep, and compares them byte for byte with testdata/. The
// goldens are the output of those commands before every figure layout
// moved into the Figures catalogue:
//
//	in=$(ls results/b*.json | paste -sd,)
//	figures -in $in -fig F -style S    > testdata/figures-F-S.txt
//	report  -in $in -figures=true|false -out testdata/report{-figures,}.md
//
// Only the report's "### Figure" headings changed since; the test maps
// them through reportHeadingRenames. Regenerating results/ on today's
// defaults (the re-baseline of ROADMAP item 1, slice B) must regenerate
// these goldens once, with the commands above.
func TestRecordedSweepRenderingGolden(t *testing.T) {
	all, notes := recordedSweep(t)
	s := experiment.Summarize(all)
	golden := func(name string) string {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	check := func(name, got, want string) {
		if got == want {
			return
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("%s: line %d differs:\n got %q\nwant %q", name, i+1, gl[i], wl[i])
				return
			}
		}
		t.Errorf("%s: %d lines, want %d", name, len(gl), len(wl))
	}
	for _, style := range []string{"table", "chart"} {
		for _, fig := range []string{"2", "3", "4", "5", "6", "7", "8", "table3", "all"} {
			got, err := RenderFigures(s, fig, style == "chart")
			if err != nil {
				t.Fatal(err)
			}
			name := "figures-" + fig + "-" + style + ".txt"
			check(name, got, golden(name))
		}
	}
	note := strings.Join(notes, "; ")
	for name, figures := range map[string]bool{"report.md": false, "report-figures.md": true} {
		got := Report(all, ReportOptions{Note: note, IncludeFigures: figures})
		check(name, got, reportHeadingRenames.Replace(golden(name)))
	}
}
