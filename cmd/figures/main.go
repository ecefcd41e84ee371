// Command figures renders the paper's figures and tables from a sweep
// result set produced by cmd/sweep. -fig selects one by number (2–8),
// table3, or all; paper.Figures declares each one's AQMs, buffer sizes,
// pairings and metric, and the EXPERIMENTS.md report renders the same
// declarations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/paper"
)

func main() {
	var (
		in    = flag.String("in", "results.json", "sweep results JSON (comma-separated list merges sets)")
		fig   = flag.String("fig", "all", "which figure to render: 2|3|4|5|6|7|8|table3|all")
		style = flag.String("style", "table", "rendering style: table (numbers) or chart (bars/heatmaps)")
	)
	flag.Parse()

	var all []experiment.Result
	for _, path := range strings.Split(*in, ",") {
		rs, err := experiment.LoadFile(strings.TrimSpace(path))
		if err != nil {
			fatal(err)
		}
		all = append(all, rs.Results...)
	}
	out, err := paper.RenderFigures(experiment.Summarize(all), *fig, *style == "chart")
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
