package experiment

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestGridSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    GridSpec
		wantErr string // substring; "" = valid
	}{
		{"zero value is the full default grid", GridSpec{}, ""},
		{"bandwidth subset", GridSpec{Bandwidths: "100Mbps,1Gbps"}, ""},
		{"queue subset", GridSpec{Queues: "0.5,2,16"}, ""},
		{"aqm subset", GridSpec{AQMs: "fifo,fq_codel"}, ""},
		{"pairing subset", GridSpec{Pairings: "bbr1:cubic,reno:reno"}, ""},
		{"whitespace tolerated", GridSpec{Pairings: " bbr1 : cubic , reno:reno "}, ""},
		{"faults preset", GridSpec{Faults: "flap"}, ""},
		{"everything at once", GridSpec{
			Bandwidths: "1Gbps", Queues: "2", AQMs: "red", Pairings: "cubic:cubic",
			Seeds: 3, Duration: "6s", MaxWall: "1m", Configs: 2, Faults: "flap",
		}, ""},

		{"unknown bandwidth unit", GridSpec{Bandwidths: "100Parsecs"}, "bandwidth"},
		{"negative queue", GridSpec{Queues: "-1"}, "buffer multiplier"},
		{"zero queue", GridSpec{Queues: "0"}, "buffer multiplier"},
		{"unparseable queue", GridSpec{Queues: "deep"}, "buffer multiplier"},
		{"unknown aqm", GridSpec{AQMs: "codel2"}, "aqm"},
		{"unknown cca in pairing", GridSpec{Pairings: "bbr9:cubic"}, "pairing"},
		{"pairing missing colon", GridSpec{Pairings: "bbr1cubic"}, "want cca1:cca2"},
		{"pairing with empty half", GridSpec{Pairings: ":cubic"}, "pairing"},
		{"bad duration", GridSpec{Duration: "six seconds"}, "duration"},
		{"negative duration", GridSpec{Duration: "-2s"}, "duration"},
		{"bad max wall", GridSpec{MaxWall: "soon"}, "duration"},
		{"negative configs", GridSpec{Configs: -1}, "negative"},
		{"bad fault spec", GridSpec{Faults: "ge:pgb=notanumber"}, "faults"},

		{"paper grid at five seeds", GridSpec{Seeds: 5}, ""},
		{"one cell at the grid cap", GridSpec{Bandwidths: "100Mbps", Queues: "2", AQMs: "fifo",
			Pairings: "cubic:cubic", Seeds: maxGridConfigs}, ""},
		{"one cell past the grid cap", GridSpec{Bandwidths: "100Mbps", Queues: "2", AQMs: "fifo",
			Pairings: "cubic:cubic", Seeds: maxGridConfigs + 1}, "exceeds"},
		{"paper grid past the grid cap", GridSpec{Seeds: 1 << 16}, "exceeds"},
		{"seed count that overflows the grid size", GridSpec{Seeds: math.MaxInt}, "exceeds"},
		{"huge seed count over an empty list", GridSpec{Pairings: ",", Seeds: math.MaxInt}, "exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Plan()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Plan() = %v, want ok", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Plan() accepted %+v, want error containing %q", c.spec, c.wantErr)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.wantErr)) {
				t.Fatalf("Plan() = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

func TestGridSpecExpand(t *testing.T) {
	spec := GridSpec{Bandwidths: "100Mbps", Queues: "2", AQMs: "fifo",
		Pairings: "reno:reno,cubic:cubic", Seeds: 2, Duration: "3s"}
	cfgs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 { // 2 pairings × 2 seeds
		t.Fatalf("expanded %d configs, want 4", len(cfgs))
	}
	for _, c := range cfgs {
		if c.Duration.Seconds() != 3 {
			t.Fatalf("duration override not applied: %v", c.Duration)
		}
		if c.Bottleneck != 100*units.MegabitPerSec {
			t.Fatalf("bandwidth subset not applied: %v", c.Bottleneck)
		}
	}
	// Truncation keeps the canonical grid prefix.
	spec.Configs = 3
	cfgs, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("truncated to %d configs, want 3", len(cfgs))
	}
}

// TestGridSpecKeyCanonicalization: equivalent spellings must share a
// content address; different grids must not.
func TestGridSpecKeyCanonicalization(t *testing.T) {
	key := func(s GridSpec) string {
		t.Helper()
		p, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p.Key
	}
	a := GridSpec{Bandwidths: "100Mbps, 1Gbps", Queues: "2.0,16", Pairings: "bbr1:cubic"}
	b := GridSpec{Bandwidths: "0.1Gbps,1000Mbps", Queues: "2,16", Pairings: " bbr1 : cubic "}
	if key(a) != key(b) {
		t.Errorf("equivalent spellings got different keys: %s vs %s", key(a), key(b))
	}
	c := GridSpec{Bandwidths: "100Mbps,1Gbps", Queues: "2,16", Pairings: "bbr2:cubic"}
	if key(a) == key(c) {
		t.Error("different pairings share a key")
	}
	d := a
	d.Seeds = 1 // the implicit default made explicit
	if key(a) != key(d) {
		t.Error("seeds=0 and seeds=1 should canonicalize identically")
	}
	e := a
	e.Audit = true // audit is part of the spec (job identity), unlike config identity
	if key(a) == key(e) {
		t.Error("audit toggle should change the spec key")
	}
}

// TestGridSpecFlagsMatchJSON: a spec parsed from the canonical CLI flags
// must equal the same spec arriving as a JSON body — the property that lets
// cmd/sweep -remote and a local run share one parser.
func TestGridSpecFlagsMatchJSON(t *testing.T) {
	var fromFlags GridSpec
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fromFlags.RegisterFlags(fs)
	err := fs.Parse([]string{
		"-bws", "100Mbps", "-queues", "2,16", "-aqms", "red", "-pairings", "bbr1:cubic",
		"-seeds", "2", "-duration", "6s", "-faults", "flap", "-configs", "3",
		"-max-events", "500", "-max-wall", "1m", "-audit",
	})
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON GridSpec
	body := `{"bandwidths":"100Mbps","queues":"2,16","aqms":"red","pairings":"bbr1:cubic",
		"seeds":2,"duration":"6s","faults":"flap","configs":3,"max_events":500,
		"max_wall":"1m","audit":true}`
	if err := json.Unmarshal([]byte(body), &fromJSON); err != nil {
		t.Fatal(err)
	}
	if fromFlags != fromJSON {
		t.Fatalf("flag and JSON parses disagree:\nflags: %+v\njson:  %+v", fromFlags, fromJSON)
	}
	pf, err := fromFlags.Plan()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := fromJSON.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if pf.Key != pj.Key {
		t.Fatalf("keys disagree: %s vs %s", pf.Key, pj.Key)
	}
}

// TestGridSpecNoteDeterministic: the provenance note must be identical
// however the spec was spelled, since it is embedded in served result sets,
// and planning a plan's canonical spec must reproduce the plan.
func TestGridSpecNoteDeterministic(t *testing.T) {
	plan := func(s GridSpec) Plan {
		t.Helper()
		p, err := s.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := plan(GridSpec{Bandwidths: "100Mbps", Queues: "2", Pairings: "reno:reno", Faults: "flap"})
	b := plan(GridSpec{Bandwidths: "0.1Gbps", Queues: "2.0", Pairings: " reno:reno ", Faults: "flap"})
	ca := plan(a.Spec)
	if a.Note != b.Note || a.Note != ca.Note {
		t.Fatalf("notes differ:\n%s\n%s\n%s", a.Note, b.Note, ca.Note)
	}
	if ca.Spec != a.Spec || ca.Key != a.Key {
		t.Fatalf("re-planning the canonical spec moved it: %+v %s vs %+v %s", ca.Spec, ca.Key, a.Spec, a.Key)
	}
	if !strings.Contains(a.Note, "faults=") || !strings.Contains(a.Note, "spec=") {
		t.Fatalf("note missing provenance fields: %s", a.Note)
	}
}

// TestGridSpecKeyNotePinned pins the content address and provenance note
// of preset, inline-JSON, @file and dumbbell spellings of each spec value.
// Both are part of result identity (journals, caches and served result
// sets are keyed by them), so a change to how specs are parsed must leave
// every value here unchanged.
func TestGridSpecKeyNotePinned(t *testing.T) {
	const (
		faultsJSON = `{"flaps":[{"at_ns":1000000000,"down_ns":200000000}]}`
		topoJSON   = `{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"name":"l","from":"a","to":"b"}],"senders":[{"name":"s","path":["l"],"return":["l"]}]}`
		flowsJSON  = `{"populations":[{"name":"web","mean_arrival_ns":100000000,"size_p5_bytes":2000,"size_p95_bytes":50000,"cca":"reno"}]}`
	)
	dir := t.TempDir()
	file := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return "@" + path
	}
	cases := []struct {
		faults, topo, flows string
		seeds               int
		key, note           string
	}{
		{"", "", "", 0, "8e3f64ba48a8b204",
			"grid sweep: 1 configs, seeds=1, paperScale=false, spec=8e3f64ba48a8b204"},
		{"ge:pgb=0.01,bad=1+flap:at=10s,down=500ms", "", "", 0, "bf5a6a33ad608839",
			"grid sweep: 1 configs, seeds=1, paperScale=false, faults=ge0.01-0.1-0-1+flap10s-500ms, spec=bf5a6a33ad608839"},
		{faultsJSON, "", "", 0, "0ea2d434abd9c9e3",
			"grid sweep: 1 configs, seeds=1, paperScale=false, faults=flap1s-200ms, spec=0ea2d434abd9c9e3"},
		{file("faults.json", faultsJSON), "", "", 0, "0ea2d434abd9c9e3",
			"grid sweep: 1 configs, seeds=1, paperScale=false, faults=flap1s-200ms, spec=0ea2d434abd9c9e3"},
		{"", "parking-lot-3", "", 0, "e9aa917db12d2e9a",
			"grid sweep: 1 configs, seeds=1, paperScale=false, topo=parking-lot-3, spec=e9aa917db12d2e9a"},
		{"", "reverse-path:factor=0.005", "", 0, "5abd984119742f14",
			"grid sweep: 1 configs, seeds=1, paperScale=false, topo=reverse-path-x0.005, spec=5abd984119742f14"},
		{"", topoJSON, "", 0, "32487e6f89ad6525",
			"grid sweep: 1 configs, seeds=1, paperScale=false, topo=graph-1fd731d1, spec=32487e6f89ad6525"},
		{"", file("topo.json", topoJSON), "", 0, "32487e6f89ad6525",
			"grid sweep: 1 configs, seeds=1, paperScale=false, topo=graph-1fd731d1, spec=32487e6f89ad6525"},
		{"", "dumbbell", "", 0, "8e3f64ba48a8b204",
			"grid sweep: 1 configs, seeds=1, paperScale=false, spec=8e3f64ba48a8b204"},
		{"", "", "mice:arrival=100ms,p95=1MB+elephants:cca=bbr1", 0, "a0847dc7b2bbf8e9",
			"grid sweep: 2 configs, seeds=1, paperScale=false, flows=mice-100ms-64.00KB-1.00MB-cubic+elephants-2s-8.00MB-64.00MB-bbr1, spec=a0847dc7b2bbf8e9"},
		{"", "", flowsJSON, 0, "6e0439ca47b7aefd",
			"grid sweep: 2 configs, seeds=1, paperScale=false, flows=web-100ms-2.00KB-50.00KB-reno, spec=6e0439ca47b7aefd"},
		{"", "", file("flows.json", flowsJSON), 0, "6e0439ca47b7aefd",
			"grid sweep: 2 configs, seeds=1, paperScale=false, flows=web-100ms-2.00KB-50.00KB-reno, spec=6e0439ca47b7aefd"},
		{"flap", "cross-traffic:cca=bbr1", "mixed", 2, "53bd4648e8c201c7",
			"grid sweep: 4 configs, seeds=2, paperScale=false, faults=flap5s-200ms, topo=cross-traffic-bbr1, flows=mice-200ms-64.00KB-2.00MB-cubic+elephants-2s-8.00MB-64.00MB-cubic, spec=53bd4648e8c201c7"},
	}
	for _, c := range cases {
		s := GridSpec{Bandwidths: "100Mbps", Queues: "2", AQMs: "fifo", Pairings: "bbr1:cubic",
			Duration: "3s", Seeds: c.seeds, Faults: c.faults, Topo: c.topo, Flows: c.flows}
		p, err := s.Plan()
		if err != nil {
			t.Errorf("%+v: %v", s, err)
			continue
		}
		if p.Key != c.key {
			t.Errorf("Key(faults=%q topo=%q flows=%q) = %s, want %s", c.faults, c.topo, c.flows, p.Key, c.key)
		}
		if p.Note != c.note {
			t.Errorf("Note(faults=%q topo=%q flows=%q):\n got %s\nwant %s", c.faults, c.topo, c.flows, p.Note, c.note)
		}
		cfgs, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Configs, cfgs) {
			t.Errorf("Plan(faults=%q topo=%q flows=%q).Configs differ from Expand()", c.faults, c.topo, c.flows)
		}
	}
}
