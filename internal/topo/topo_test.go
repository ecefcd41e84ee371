package topo

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/audit"
	"repro/internal/cca"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// dumbbell builds the paper preset on eng with par (zero fields select the
// Params defaults).
func dumbbell(t *testing.T, eng *sim.Engine, par Params) *Network {
	t.Helper()
	n, err := Build(eng, DumbbellSpec(), par)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fifo2BDP is a 2×BDP FIFO at 100 Mbps over the 62 ms paper RTT.
var fifo2BDP = aqm.Config{
	Kind:     aqm.KindFIFO,
	Capacity: units.QueueBytes(100*units.MegabitPerSec, 62*time.Millisecond, 2, 8960),
}

func TestConfigDefaults(t *testing.T) {
	par := Params{Bottleneck: units.GigabitPerSec}
	if err := par.defaults(); err != nil {
		t.Fatal(err)
	}
	if par.EdgeBW != 25*units.GigabitPerSec || par.CoreBW != 100*units.GigabitPerSec {
		t.Errorf("edge/core defaults: %v %v", par.EdgeBW, par.CoreBW)
	}
	if par.RTT != 62*time.Millisecond {
		t.Errorf("RTT default: %v", par.RTT)
	}
	if par.Queue.Capacity <= 0 {
		t.Error("queue capacity not defaulted")
	}
	var bad Params
	if err := bad.defaults(); err == nil {
		t.Error("zero bottleneck should error")
	}
}

func TestDumbbellRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	d := dumbbell(t, eng, Params{Bottleneck: units.GigabitPerSec})
	f := d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic))
	f.Conn.Start()
	eng.RunFor(3 * time.Second)
	min := f.Conn.MinRTT()
	if min < 62*time.Millisecond || min > 66*time.Millisecond {
		t.Fatalf("measured min RTT = %v, want ≈62ms", min)
	}
}

func TestDumbbellSingleFlowUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	d := dumbbell(t, eng, Params{Bottleneck: 100 * units.MegabitPerSec, Queue: fifo2BDP})
	f := d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic))
	f.Conn.Start()
	dur := 30 * time.Second
	eng.RunFor(dur)
	rate := float64(d.ClassGoodput(0)) * 8 / dur.Seconds()
	if rate < 0.85*100e6 {
		t.Fatalf("utilization %.2f Mbps", rate/1e6)
	}
}

func TestTwoSendersShareBottleneck(t *testing.T) {
	eng := sim.NewEngine(1)
	d := dumbbell(t, eng, Params{Bottleneck: 100 * units.MegabitPerSec, Queue: fifo2BDP})
	f0 := d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Cubic))
	f1 := d.AddFlow(1, tcp.Config{}, cca.MustNew(cca.Cubic))
	f0.Conn.Start()
	f1.Conn.Start()
	dur := 60 * time.Second
	eng.RunFor(dur)
	g0 := float64(d.ClassGoodput(0))
	g1 := float64(d.ClassGoodput(1))
	total := (g0 + g1) * 8 / dur.Seconds()
	if total < 0.85*100e6 {
		t.Fatalf("combined utilization only %.1f Mbps", total/1e6)
	}
	ratio := g0 / g1
	if ratio < 0.6 || ratio > 1.7 {
		t.Fatalf("identical CUBIC flows wildly unfair: %.0f vs %.0f (ratio %.2f)", g0, g1, ratio)
	}
}

func TestDemuxUnknownFlowReleased(t *testing.T) {
	d := NewDemux()
	p := packet.New()
	p.Flow = 99
	d.Receive(0, p) // must not panic
}

// TestDemuxFlowIndexed: the table grows to the highest ID registered, and
// an ID past its end or unregistered takes the unknown-flow path, which
// releases the packet and keeps the auditor's ledger balanced.
func TestDemuxFlowIndexed(t *testing.T) {
	a := audit.New("demux-test")
	d := NewDemux()
	d.aud = a
	var got []packet.FlowID
	r := netem.ReceiverFunc(func(_ sim.Time, p *packet.Packet) {
		got = append(got, p.Flow)
		a.PacketConsumed()
		packet.Release(p)
	})
	for _, step := range []struct {
		id   packet.FlowID
		size int
	}{{3, 4}, {7, 8}, {5, 8}} {
		d.Register(step.id, r)
		if len(d.rs) != step.size {
			t.Fatalf("after Register(%d) the table holds %d slots, want %d", step.id, len(d.rs), step.size)
		}
	}
	d.Unregister(1000) // past the end: a no-op
	d.Unregister(7)
	if len(d.rs) != 8 {
		t.Fatalf("Unregister resized the table to %d slots", len(d.rs))
	}
	for _, id := range []packet.FlowID{3, 5, 7, 4, 0, 8, 1000, math.MaxUint32} {
		a.PacketCreated()
		p := packet.New()
		p.Flow = id
		d.Receive(0, p)
	}
	if want := []packet.FlowID{3, 5}; !slices.Equal(got, want) {
		t.Fatalf("delivered flows %v, want %v", got, want)
	}
	if a.Created() != a.Consumed() {
		t.Fatalf("ledger: %d packets created, %d consumed", a.Created(), a.Consumed())
	}
	a.Finish()
}

func TestSenderAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	d := dumbbell(t, eng, Params{Bottleneck: units.GigabitPerSec})
	d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Reno))
	d.AddFlow(0, tcp.Config{}, cca.MustNew(cca.Reno))
	d.AddFlow(1, tcp.Config{}, cca.MustNew(cca.Cubic))
	if len(d.Flows()) != 3 {
		t.Fatalf("flows = %d", len(d.Flows()))
	}
	if len(d.ClassFlows(0)) != 2 || len(d.ClassFlows(1)) != 1 {
		t.Fatal("sender grouping wrong")
	}
	ids := map[packet.FlowID]bool{}
	for _, f := range d.Flows() {
		if ids[f.ID] {
			t.Fatal("duplicate flow ID")
		}
		ids[f.ID] = true
	}
}

func TestAddFlowPanicsOnBadSender(t *testing.T) {
	eng := sim.NewEngine(1)
	d := dumbbell(t, eng, Params{Bottleneck: units.GigabitPerSec})
	defer func() {
		if recover() == nil {
			t.Error("want panic for class 2 on the two-class dumbbell")
		}
	}()
	d.AddFlow(2, tcp.Config{}, cca.MustNew(cca.Reno))
}

func TestBottleneckCarriesConfiguredAQM(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, kind := range aqm.Kinds() {
		d, err := Build(eng, DumbbellSpec(), Params{
			Bottleneck: units.GigabitPerSec,
			Queue:      aqm.Config{Kind: kind, Capacity: 1 << 20},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := d.Monitor().Queue().Name(); got != string(kind) {
			t.Errorf("bottleneck queue = %s, want %s", got, kind)
		}
	}
}
