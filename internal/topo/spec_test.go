package topo

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cca"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

func TestPresetsValidate(t *testing.T) {
	specs := map[string]Spec{
		"dumbbell":        DumbbellSpec(),
		"parking-lot-1":   ParkingLotSpec(1),
		"parking-lot-3":   ParkingLotSpec(3),
		"parking-lot-8":   ParkingLotSpec(8),
		"reverse-path":    ReversePathSpec(0, 0),
		"cross-traffic":   CrossTrafficSpec(""),
		"cross-traffic-b": CrossTrafficSpec("bbr1"),
	}
	for name, s := range specs {
		n := s.Normalize()
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestParsePresets(t *testing.T) {
	cases := []struct {
		spec string
		id   string
	}{
		{"dumbbell", "dumbbell"},
		{"parking-lot", "parking-lot-3"},
		{"parking-lot-5", "parking-lot-5"},
		{"parking-lot:hops=2", "parking-lot-2"},
		{"reverse-path", "reverse-path-x0.01"},
		{"reverse-path:factor=0.005", "reverse-path-x0.005"},
		{"reverse-path:factor=0.02,buf=131072", "reverse-path-x0.02"},
		{"cross-traffic", "cross-traffic-cubic"},
		{"cross-traffic:cca=bbr1", "cross-traffic-bbr1"},
	}
	for _, c := range cases {
		s, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if s.ID() != c.id {
			t.Errorf("Parse(%q).ID() = %q, want %q", c.spec, s.ID(), c.id)
		}
	}
	if s, err := Parse(""); err != nil || s != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil, nil", s, err)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"bogus-topology", "unknown preset"},
		{"parking-lot:hops=0", "hops must be"},
		{"parking-lot:hops=17", "hops must be"},
		{"parking-lot-x", "hop count"},
		{"parking-lot:hops=3,color=red", "unknown key"},
		{"reverse-path:factor=0", "factor must be"},
		{"reverse-path:factor=2", "factor must be"},
		{"reverse-path:factor=NaN", "factor must be"},
		{"reverse-path:buf=-1", "buf must be"},
		{"dumbbell:frob=1", "unknown key"},
		{"dumbbell:frob", "want key=value"},
		{"{not json", "parse spec JSON"},
		{"@/nonexistent/spec.json", "read spec"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}

// mutate applies f to a copy of the dumbbell and returns it.
func mutate(f func(*Spec)) *Spec {
	s := DumbbellSpec()
	f(&s)
	return &s
}

func TestValidateRejectsMalformedGraphs(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"no nodes", &Spec{Links: []LinkSpec{{Name: "l", From: "a", To: "b"}}}, "at least one node"},
		{"no senders", mutate(func(s *Spec) { s.Senders = nil }), "no senders"},
		{"dup node", mutate(func(s *Spec) { s.Nodes = append(s.Nodes, NodeSpec{Name: "r1"}) }), "duplicate node"},
		{"dup link", mutate(func(s *Spec) { s.Links = append(s.Links, s.Links[1]) }), "duplicate link"},
		{"dangling from", mutate(func(s *Spec) { s.Links[0].From = "ghost" }), "unknown node"},
		{"dangling to", mutate(func(s *Spec) { s.Links[0].To = "ghost" }), "unknown node"},
		{"self loop", mutate(func(s *Spec) { s.Links[0].To = s.Links[0].From }), "self-loop"},
		{"bad role", mutate(func(s *Spec) { s.Links[0].Role = "warp" }), "unknown role"},
		{"negative rate", mutate(func(s *Spec) { s.Links[0].Rate = -1 }), "negative rate"},
		{"rate conflict", mutate(func(s *Spec) { s.Links[0].Rate = 1e6; s.Links[0].RateFactor = 0.5 }), "mutually exclusive"},
		{"negative delay", mutate(func(s *Spec) { s.Links[0].Delay = -time.Second; s.Links[0].DelayRTTFrac = 0 }), "negative delay"},
		{"delay conflict", mutate(func(s *Spec) { s.Links[0].Delay = time.Millisecond }), "mutually exclusive"},
		{"bad queue kind", mutate(func(s *Spec) { s.Links[0].Queue = &QueueSpec{Kind: "codel2"} }), "unknown discipline"},
		{"negative capacity", mutate(func(s *Spec) { s.Links[0].Queue = &QueueSpec{Capacity: -5} }), "negative queue capacity"},
		{"bad monitor", mutate(func(s *Spec) { s.Monitor = "nope" }), "monitor names unknown link"},
		{"dup sender", mutate(func(s *Spec) { s.Senders[1].Name = "s1" }), "duplicate sender"},
		{"empty route", mutate(func(s *Spec) { s.Senders[0].Path = nil }), "empty path route"},
		{"unknown route link", mutate(func(s *Spec) { s.Senders[0].Path = []string{"warp"} }), "unknown link"},
		{"disconnected route", mutate(func(s *Spec) { s.Senders[0].Path = []string{"c1->r1", "r2->srv"} }), "route breaks"},
		{"route cycle", mutate(func(s *Spec) {
			s.Links = append(s.Links, LinkSpec{Name: "r2->r1b", From: "r2", To: "r1"})
			s.Senders[0].Path = []string{"c1->r1", "r1->r2", "r2->r1b"}
		}), "cycle"},
		{"too many flows", mutate(func(s *Spec) { s.Senders[0].Flows = maxFlows + 1 }), "exceeds"},
	}
	for _, c := range cases {
		n := c.spec.Normalize()
		err := n.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestIsDumbbell(t *testing.T) {
	if !IsDumbbell(nil) {
		t.Error("nil spec is the dumbbell")
	}
	d := DumbbellSpec()
	if !IsDumbbell(&d) {
		t.Error("preset dumbbell not recognized")
	}
	// Cosmetic respellings must still fold to the dumbbell.
	cos := DumbbellSpec()
	cos.Links[1].Role = " Bottleneck "
	cos.Monitor = " r1->r2 "
	if !IsDumbbell(&cos) {
		t.Error("cosmetically respelled dumbbell not recognized")
	}
	pl := ParkingLotSpec(3)
	if IsDumbbell(&pl) {
		t.Error("parking lot mistaken for the dumbbell")
	}
	// Same graph, different name: not canonically the dumbbell (name is
	// identity — it lands in ID and filenames).
	renamed := DumbbellSpec()
	renamed.Name = "dumbbell2"
	if IsDumbbell(&renamed) {
		t.Error("renamed dumbbell treated as canonical")
	}
}

// TestIsDumbbellConcurrent starts from a cold canonical-dumbbell cache and
// calls IsDumbbell from 8 goroutines at once, as concurrent
// Config.Normalize calls do; under -race a lazily filled cache without
// synchronization is reported here.
func TestIsDumbbellConcurrent(t *testing.T) {
	dumbbellCanonical = sync.OnceValue(canonicalDumbbell)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, d := ParkingLotSpec(3), DumbbellSpec()
			if IsDumbbell(&pl) {
				errs <- "parking lot mistaken for the dumbbell"
			}
			if !IsDumbbell(&d) {
				errs <- "preset dumbbell not recognized"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestSpecKeyAndID(t *testing.T) {
	d := DumbbellSpec()
	pl := ParkingLotSpec(3)
	if d.Key() == pl.Key() {
		t.Error("distinct graphs share a content key")
	}
	if pl.ID() != "parking-lot-3" {
		t.Errorf("ID = %q", pl.ID())
	}
	anon := DumbbellSpec()
	anon.Name = ""
	if id := anon.ID(); !strings.HasPrefix(id, "graph-") || len(id) != len("graph-")+8 {
		t.Errorf("anonymous spec ID = %q, want graph-<hash8>", id)
	}
	// Key is order-sensitive on links (construction order is science: it
	// fixes RNG derivation order), so a reordered graph is a different key.
	swapped := DumbbellSpec()
	swapped.Links[2], swapped.Links[3] = swapped.Links[3], swapped.Links[2]
	swapped.Name = d.Name
	if swapped.Key() == d.Key() {
		t.Error("link order does not affect the content key")
	}
}

// TestBuildDemuxRouting: a built parking lot must deliver every class's
// packets end to end through shared bottlenecks — the demux-per-divergent-
// link wiring — and account all goodput on the right class.
func TestBuildDemuxRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	n, err := Build(eng, ParkingLotSpec(2), Params{
		Bottleneck: 20 * units.MegabitPerSec,
		RTT:        40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumClasses() != 3 {
		t.Fatalf("classes = %d, want 3 (long, hop1, hop2)", n.NumClasses())
	}
	for ci := 0; ci < n.NumClasses(); ci++ {
		f := n.AddFlow(ci, tcp.Config{}, cca.MustNew(cca.Cubic))
		eng.Schedule(0, f.Conn.Start)
	}
	eng.RunFor(3 * time.Second)
	for ci := 0; ci < n.NumClasses(); ci++ {
		if g := n.ClassGoodput(ci); g <= 0 {
			t.Errorf("class %d (%s) moved no data", ci, n.ClassSpec(ci).Name)
		}
	}
	// The long class crosses both bottlenecks; hop classes exactly one.
	mc := n.MonitorClasses()
	if len(mc) != 2 { // long + hop1 cross b1
		t.Errorf("monitor classes = %v, want [long hop1] indices", mc)
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	pl := ParkingLotSpec(2)
	data, err := json.Marshal(pl.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Parse(string(data))
	if err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if rt.Key() != pl.Key() {
		t.Errorf("identity lost in JSON round trip: %s vs %s", rt.Key(), pl.Key())
	}
}

// TestParseRefusesSilentInputs: a misspelled JSON field, trailing data
// after the JSON value, a repeated preset key and a second preset clause
// are refused rather than silently dropped or overwritten.
func TestParseRefusesSilentInputs(t *testing.T) {
	const graph = `"nodes":[{"name":"a"},{"name":"b"}],"links":[{"name":"l","from":"a","to":"b"}],"senders":[{"name":"s","path":["l"],"return":["l"]}]`
	cases := []struct{ spec, want string }{
		{`{` + graph + `,"monitr":"l"}`, `unknown field "monitr"`},
		{`{` + graph + `}}`, "trailing data"},
		{"parking-lot:hops=2,hops=5", `parking-lot: repeated key "hops"`},
		{"reverse-path:factor=0.5,buf=1,factor=0.1", `reverse-path: repeated key "factor"`},
		{"cross-traffic:cca=bbr1,cca=reno", `cross-traffic: repeated key "cca"`},
		{"dumbbell+parking-lot", `one preset per topology, got a second clause "parking-lot"`},
		{"dumbbell+", "empty preset clause"},
	}
	if _, err := Parse(`{` + graph + `}`); err != nil {
		t.Fatalf("base graph rejected: %v", err)
	}
	for _, c := range cases {
		s, err := Parse(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %+v, %v; want error containing %q", c.spec, s, err, c.want)
		}
	}
}
