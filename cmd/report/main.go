// Command report generates EXPERIMENTS.md — the paper-vs-measured record —
// from one or more sweep result sets. A set may be a local file or an
// http(s) URL, e.g. a sweepd results endpoint — the daemon's GET
// /v1/sweeps/{id}/report serves this same render path, so fetching the
// results here and rendering locally produces the identical document.
//
//	report -in results.json -out EXPERIMENTS.md
//	report -in results/b100m.json,results/b1g.json -figures -out EXPERIMENTS.md
//	report -in http://localhost:8422/v1/sweeps/<id>/results -out -
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/paper"
)

func main() {
	var (
		in      = flag.String("in", "results.json", "sweep results JSON (comma-separated list merges sets)")
		out     = flag.String("out", "EXPERIMENTS.md", "output markdown path ('-' for stdout)")
		figures = flag.Bool("figures", true, "append rendered figure panels")
	)
	flag.Parse()

	var all []experiment.Result
	var notes []string
	for _, path := range strings.Split(*in, ",") {
		rs, err := loadSet(strings.TrimSpace(path))
		if err != nil {
			fatal(err)
		}
		all = append(all, rs.Results...)
		if rs.Note != "" {
			notes = append(notes, rs.Note)
		}
	}
	if len(all) == 0 {
		fatal(fmt.Errorf("no results in %s", *in))
	}

	md := paper.Report(all, paper.ReportOptions{
		Note:           strings.Join(notes, "; "),
		IncludeFigures: *figures,
	})
	if *out == "-" {
		fmt.Print(md)
		return
	}
	if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "report: wrote %s (%d results summarized)\n", *out, len(all))
}

// loadSet reads a ResultSet from a local path or, for http(s) sources such
// as a sweepd /v1/sweeps/{id}/results endpoint, over the network.
func loadSet(src string) (*experiment.ResultSet, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return experiment.LoadFile(src)
	}
	resp, err := http.Get(src)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch %s: %s", src, resp.Status)
	}
	return experiment.ReadJSON(resp.Body)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
