// Command timeline renders recorded flight-recorder telemetry (NDJSON from
// tcpfair -telemetry-out, sweep -trace-dir, or sweepd /v1/sweeps/{id}/trace)
// as terminal timelines: per-flow cwnd/pacing/srtt sparklines with CCA state
// transitions, and per-port queue-occupancy sparklines with the drop/mark
// taxonomy and per-flow dequeue rates.
//
// Examples:
//
//	timeline -in run.ndjson
//	tcpfair -cca1 bbr1 -cca2 cubic -telemetry-out /dev/stdout -quiet | timeline -in -
//	curl -s localhost:8422/v1/sweeps/<id>/trace | timeline -in -
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/telemetry"
)

func main() {
	var (
		in   = flag.String("in", "-", "telemetry NDJSON input path (\"-\" = stdin)")
		bins = flag.Int("bins", 60, "time-axis resolution of the rendered sparklines")
	)
	flag.Parse()
	if *bins < 1 {
		fatal(fmt.Errorf("-bins must be >= 1, got %d", *bins))
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}

	sections, err := splitStreams(data)
	if err != nil {
		fatal(err)
	}
	if len(sections) == 0 {
		fatal(fmt.Errorf("no telemetry dumps in input"))
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if s.Config != "" {
			fmt.Fprintf(out, "=== config %s (%s) ===\n", s.Config, s.ID)
		}
		renderDump(out, s.Dump, *bins)
	}
}

// section is one telemetry dump plus the sweepd stream header (if any) that
// introduced it.
type section struct {
	Config string
	ID     string
	Dump   *telemetry.Dump
}

// splitStreams parses input that is either a single telemetry NDJSON dump or
// a sweepd /trace stream: dumps separated by {"config":...,"id":...} header
// lines. telemetry.ParseNDJSON is strict, so headers must be stripped before
// handing each chunk to it.
func splitStreams(data []byte) ([]section, error) {
	var sections []section
	var cur section
	var chunk bytes.Buffer
	flush := func() error {
		if strings.TrimSpace(chunk.String()) == "" {
			return nil
		}
		d, err := telemetry.ParseNDJSON(bytes.NewReader(chunk.Bytes()))
		if err != nil {
			return err
		}
		cur.Dump = d
		sections = append(sections, cur)
		chunk.Reset()
		return nil
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var h telemetry.StreamHeader
		if err := json.Unmarshal(line, &h); err == nil && h.Config != "" {
			if err := flush(); err != nil {
				return nil, err
			}
			cur = section{Config: h.Config, ID: h.ID}
			continue
		}
		chunk.Write(line)
		chunk.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return sections, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "timeline:", err)
	os.Exit(1)
}
