package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// buildDump exercises every event kind, both ring kinds, state interning,
// and ring wraparound — the canonical fixture the codec tests round-trip.
func buildDump(t *testing.T) (*Tracer, *Dump) {
	t.Helper()
	tr := New(Options{RingCap: 8, SampleN: 1, FlightTail: 4})
	f1 := tr.Flow(1, "bbr1")
	f2 := tr.Flow(2, "cubic")
	pt := tr.Port("r1->r2")

	f1.CCAState(0, "startup")
	f1.Cwnd(1_000, 14480, 1<<30)
	f1.Pacing(1_000, 250_000_000)
	f1.RTT(2_000, 62_000_000, 62_500_000)
	f1.CCAState(3_000, "drain")
	f1.CCAState(4_000, "probe_bw")
	f1.InflightHi(5_000, 90_000, 120_000)
	f1.RTO(6_000, 250_000_000, 2)

	f2.CCAState(0, "slow_start")
	f2.Cwnd(1_500, 29000, 1<<30)
	f2.Cwnd(1_500, 29000, 1<<30) // dedup: must not produce a second event

	pt.Enqueue(1_000, 1, 1514, 1)
	pt.Enqueue(1_100, 2, 3028, 2)
	pt.Dequeue(1_200, 1, 1514, 200)
	pt.Drop(1_300, 2, DropTail, 1514, 3028)
	pt.Mark(1_400, 1, MarkRED, 1514, 1514)
	pt.Fault(2_000, FaultDown, 0, 3)
	pt.Fault(2_500, FaultUp, 0, 0)

	return tr, tr.Dump()
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(Options{RingCap: 4})
	f := tr.Flow(7, "reno")
	for i := int64(1); i <= 10; i++ {
		f.Cwnd(i, i*100, 1)
	}
	d := tr.Dump()
	r := d.Rings[0]
	if r.Total != 10 || r.Dropped != 6 || len(r.Events) != 4 {
		t.Fatalf("ring accounting: total=%d dropped=%d len=%d, want 10/6/4",
			r.Total, r.Dropped, len(r.Events))
	}
	// Oldest-first snapshot of the surviving window.
	for i, ev := range r.Events {
		if want := int64(7+i) * 100; ev.A != want {
			t.Fatalf("event %d: cwnd=%d, want %d", i, ev.A, want)
		}
	}
}

func TestSamplingKeepsMandatoryKinds(t *testing.T) {
	tr := New(Options{RingCap: 1024, SampleN: 10})
	f := tr.Flow(1, "cubic")
	p := tr.Port("q")
	for i := int64(0); i < 100; i++ {
		f.Cwnd(i, 1000+i, 1) // all distinct: dedup never fires
		p.Enqueue(i, 1, 1514*(i%3+1), i%3+1)
	}
	p.Drop(200, 1, DropCoDel, 1514, 0)
	f.RTO(201, 1_000_000, 1)
	f.CCAState(202, "recovery")

	d := tr.Dump()
	counts := map[Kind]int{}
	for _, r := range d.Rings {
		for _, ev := range r.Events {
			counts[ev.Kind]++
		}
	}
	if counts[KindCwnd] != 10 {
		t.Errorf("sampled cwnd events = %d, want 10 (1-in-10 of 100)", counts[KindCwnd])
	}
	if counts[KindDrop] != 1 || counts[KindRTO] != 1 || counts[KindCCAState] != 1 {
		t.Errorf("mandatory kinds decimated: drop=%d rto=%d state=%d, want 1 each",
			counts[KindDrop], counts[KindRTO], counts[KindCCAState])
	}
	if counts[KindHiWater] == 0 {
		t.Errorf("high-watermark events missing under sampling")
	}
}

func TestCCAStateInterningAndDedup(t *testing.T) {
	tr := New(Options{})
	f := tr.Flow(1, "bbr2")
	f.CCAState(0, "startup")
	f.CCAState(1, "startup") // unchanged: no event
	f.CCAState(2, "probe_bw:up")
	f.CCAState(3, "startup") // revisit: re-uses the interned code
	d := tr.Dump()
	if !reflect.DeepEqual(d.States, []string{"startup", "probe_bw:up"}) {
		t.Fatalf("state table = %v", d.States)
	}
	evs := d.Rings[0].Events
	if len(evs) != 3 {
		t.Fatalf("got %d state events, want 3: %v", len(evs), evs)
	}
	// First transition comes from code -1 ("no state yet").
	if evs[0].A != -1 || evs[0].B != 0 || evs[1].B != 1 || evs[2].B != 0 {
		t.Fatalf("transition codes wrong: %v", evs)
	}
	if tr.StateName(evs[1].B) != "probe_bw:up" {
		t.Fatalf("StateName(%d) = %q", evs[1].B, tr.StateName(evs[1].B))
	}
}

func TestNilTracersAreNoOps(t *testing.T) {
	var f *FlowTracer
	var p *PortTracer
	// Must not panic; exercised exactly as the gated-but-unchecked sites do.
	f.Cwnd(1, 2, 3)
	f.Pacing(1, 2)
	f.CCAState(1, "x")
	f.InflightHi(1, 2, 3)
	f.RTT(1, 2, 3)
	f.RTO(1, 2, 3)
	p.Enqueue(1, 1, 2, 3)
	p.Dequeue(1, 1, 2, 3)
	p.Drop(1, 1, DropTail, 2, 3)
	p.Mark(1, 1, MarkRED, 2, 3)
	p.Fault(1, FaultDown, 0, 0)
	if b, k := p.Peak(); b != 0 || k != 0 {
		t.Fatal("nil PortTracer Peak not zero")
	}
}

// TestNDJSONGoldenRoundTrip is the satellite's schema contract: encode →
// parse → deep-equal, over a dump that covers every kind, aux, both ring
// kinds, and a wrapped ring.
func TestNDJSONGoldenRoundTrip(t *testing.T) {
	_, d := buildDump(t)
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, d); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := ParseNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\nencoded:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip not identity:\nwant %+v\ngot  %+v\nencoded:\n%s", d, got, buf.String())
	}
	// Schema stability: field order and names are part of the contract.
	first, _, _ := strings.Cut(buf.String(), "\n")
	if first != `{"v":1,"states":["startup","drain","probe_bw","slow_start"]}` {
		t.Fatalf("header line changed: %s", first)
	}
	if !strings.Contains(buf.String(), `"ev":"drop","aux":"tail"`) {
		t.Fatalf("drop reason not serialized:\n%s", buf.String())
	}
}

func TestParseNDJSONRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no header":      `{"ring":"flow:1","kind":"flow","cap":4,"sample_n":1,"total":0,"dropped":0}`,
		"bad version":    `{"v":2,"states":[]}`,
		"unknown kind":   "{\"v\":1,\"states\":[]}\n{\"ring\":\"x\",\"kind\":\"flow\",\"cap\":1,\"sample_n\":1,\"total\":1,\"dropped\":0}\n{\"r\":\"x\",\"t\":1,\"ev\":\"warp\",\"flow\":1,\"a\":0,\"b\":0}",
		"unknown aux":    "{\"v\":1,\"states\":[]}\n{\"ring\":\"x\",\"kind\":\"flow\",\"cap\":1,\"sample_n\":1,\"total\":1,\"dropped\":0}\n{\"r\":\"x\",\"t\":1,\"ev\":\"drop\",\"aux\":\"gremlin\",\"flow\":1,\"a\":0,\"b\":0}",
		"orphan event":   "{\"v\":1,\"states\":[]}\n{\"r\":\"ghost\",\"t\":1,\"ev\":\"cwnd\",\"flow\":1,\"a\":0,\"b\":0}",
		"duplicate ring": "{\"v\":1,\"states\":[]}\n{\"ring\":\"x\",\"kind\":\"flow\",\"cap\":1,\"sample_n\":1,\"total\":0,\"dropped\":0}\n{\"ring\":\"x\",\"kind\":\"flow\",\"cap\":1,\"sample_n\":1,\"total\":0,\"dropped\":0}",
		"overfull ring":  "{\"v\":1,\"states\":[]}\n{\"ring\":\"x\",\"kind\":\"flow\",\"cap\":1,\"sample_n\":1,\"total\":0,\"dropped\":0}\n{\"r\":\"x\",\"t\":1,\"ev\":\"cwnd\",\"flow\":1,\"a\":0,\"b\":0}",
		"not json":       "{\"v\":1,\"states\":[]}\nwat",
		"bad ring kind":  "{\"v\":1,\"states\":[]}\n{\"ring\":\"x\",\"kind\":\"queue\",\"cap\":1,\"sample_n\":1,\"total\":0,\"dropped\":0}",
	}
	for name, in := range cases {
		if _, err := ParseNDJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted malformed input", name)
		}
	}
}

func TestTailNDJSONWindowsEveryRing(t *testing.T) {
	tr := New(Options{RingCap: 64, FlightTail: 3})
	f := tr.Flow(1, "htcp")
	p := tr.Port("r1->r2")
	for i := int64(0); i < 20; i++ {
		f.Cwnd(i, 100+i, 1)
		p.Enqueue(i, 1, 1514, 1)
	}
	d, err := ParseNDJSON(strings.NewReader(tr.TailNDJSON(0)))
	if err != nil {
		t.Fatalf("tail dump does not parse: %v", err)
	}
	for _, r := range d.Rings {
		if len(r.Events) > 3 {
			t.Errorf("ring %s tail has %d events, want <= FlightTail=3", r.Name, len(r.Events))
		}
		if len(r.Events) == 0 {
			t.Errorf("ring %s tail empty", r.Name)
		}
		// The window keeps the *latest* events.
		if last := r.Events[len(r.Events)-1].At; last != 19 {
			t.Errorf("ring %s tail ends at t=%d, want 19", r.Name, last)
		}
	}
}

func TestDumpPortOrderIsStable(t *testing.T) {
	tr := New(Options{})
	tr.Port("z-last")
	tr.Port("a-first")
	tr.Flow(3, "reno")
	d := tr.Dump()
	var names []string
	for _, r := range d.Rings {
		names = append(names, r.Name)
	}
	want := []string{"flow:3", "port:a-first", "port:z-last"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ring order = %v, want %v", names, want)
	}
}

// TestPassWaitsForTheClock: a pass recorded ahead of the clock enters the
// ring only once the clock reaches it, ahead of any later record, exactly
// as the Enqueue and Dequeue it stands for would have been recorded then,
// sampling included. Fails if Pass writes the ring at once.
func TestPassWaitsForTheClock(t *testing.T) {
	for _, sampleN := range []int{1, 2} {
		var now int64
		passed := New(Options{RingCap: 16, SampleN: sampleN})
		passed.SetClock(func() int64 { return now })
		p := passed.Port("d")
		ref := New(Options{RingCap: 16, SampleN: sampleN}).Port("d")

		p.Enqueue(10, 1, 500, 1)
		ref.Enqueue(10, 1, 500, 1)
		p.Pass(100, 100, 2, 400)
		p.Pass(200, 200, 3, 600) // lifts the high-watermark at 200
		if got := passed.Dump().Rings[0].Total; got != uint64(1+1/sampleN) {
			t.Fatalf("sample 1-in-%d: %d records before the clock reaches a pass", sampleN, got)
		}
		ref.Enqueue(100, 2, 400, 1)
		ref.Dequeue(100, 2, 0, 0)
		p.Dequeue(150, 1, 0, 140) // settles the pass at 100, not the one at 200
		ref.Dequeue(150, 1, 0, 140)
		now = 250
		ref.Enqueue(200, 3, 600, 1)
		ref.Dequeue(200, 3, 0, 0)
		if b, _ := p.Peak(); b != 600 {
			t.Fatalf("sample 1-in-%d: high-watermark %d after the clock passed 200, want 600", sampleN, b)
		}
		got := passed.Dump().Rings[0]
		want := snapshotRing("port:d", "port", "", &ref.ring, sampleN, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sample 1-in-%d: ring\n got %+v\nwant %+v", sampleN, got, want)
		}
	}
}

// TestPassReplaysTheBacklog: passes that wait behind earlier ones enter the
// ring as the queue they bypass would have recorded them: each arrival with
// the backlog it joins, each start with the backlog it leaves and its
// sojourn, in time order. Of an arrival and a start at one instant, the one
// scheduled first comes first: the start if the packet ahead of the
// starting one started before the arrival was recorded, else the arrival.
// Fails if Pass records a waiting packet as crossing an empty queue, or
// orders a tie by anything but scheduling.
func TestPassReplaysTheBacklog(t *testing.T) {
	type step struct {
		now             int64 // the clock at Pass
		at, start, size int64
	}
	type rec struct {
		enq       bool
		at        int64
		q, n, soj int64
	}
	// A full packet, two short ones behind it, and a third arriving exactly
	// as the second starts. The second started (at 1000) after the third
	// was recorded at 900, so the arrival's event was scheduled first.
	arrivalFirst := []step{{0, 100, 100, 900}, {50, 200, 1000, 300}, {60, 300, 1300, 500}, {900, 1300, 1800, 200}}
	// The same, but the third is recorded at 1100, after the second began.
	startFirst := []step{{0, 100, 100, 900}, {50, 200, 1000, 300}, {60, 300, 1300, 500}, {1100, 1300, 1800, 200}}
	for _, c := range []struct {
		name  string
		steps []step
		want  []rec
	}{
		{"arrival first", arrivalFirst, []rec{
			{true, 100, 900, 1, 0}, {false, 100, 0, 0, 0},
			{true, 200, 300, 1, 0}, {true, 300, 800, 2, 0},
			{false, 1000, 500, 1, 800},
			{true, 1300, 700, 2, 0}, {false, 1300, 200, 1, 1000},
			{false, 1800, 0, 0, 500},
		}},
		{"start first", startFirst, []rec{
			{true, 100, 900, 1, 0}, {false, 100, 0, 0, 0},
			{true, 200, 300, 1, 0}, {true, 300, 800, 2, 0},
			{false, 1000, 500, 1, 800},
			{false, 1300, 0, 0, 1000}, {true, 1300, 200, 1, 0},
			{false, 1800, 0, 0, 500},
		}},
	} {
		var now int64
		passed := New(Options{RingCap: 64, SampleN: 1})
		passed.SetClock(func() int64 { return now })
		p := passed.Port("d")
		ref := New(Options{RingCap: 64, SampleN: 1}).Port("d")
		for i, s := range c.steps {
			now = s.now
			p.Pass(s.at, s.start, uint32(i), s.size)
		}
		flows := map[int64]uint32{}
		for i, s := range c.steps {
			flows[s.at] = uint32(i)
		}
		starts := map[int64]uint32{}
		for i, s := range c.steps {
			starts[s.start] = uint32(i)
		}
		for _, r := range c.want {
			if r.enq {
				ref.Enqueue(r.at, flows[r.at], r.q, r.n)
			} else {
				ref.Dequeue(r.at, starts[r.at], r.q, r.soj)
			}
		}
		now = 2000
		got := passed.Dump().Rings[0]
		want := snapshotRing("port:d", "port", "", &ref.ring, 1, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ring\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}
