package netem

import (
	"slices"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func data(size units.ByteSize) *packet.Packet {
	p := packet.New()
	p.Kind = packet.Data
	p.Size = size
	return p
}

// linkVariants are the two ways a lossless port can serialize: fused (no
// fault armed) and the event path (a fault armed, here a
// zero loss rate). events is how many engine events one packet crossing an
// idle port costs on each.
var linkVariants = []struct {
	name   string
	arm    func(po *Port)
	events uint64
}{
	{"fused", func(*Port) {}, 1},
	{"event-path", func(po *Port) { po.SetLoss(0) }, 2},
}

var mixedSizes = []units.ByteSize{40, 64, 576, 1500, 8960, 9000}

// TestLinkLatency: on an idle port the one-way delay is the serialization
// time plus the propagation delay, to the nanosecond, for every size. Fails
// if a fused packet is delivered a propagation delay after its dequeue
// rather than after its last bit leaves (at := now + delay in complete).
func TestLinkLatency(t *testing.T) {
	const rate, delay = 10 * units.GigabitPerSec, 3 * time.Millisecond
	for _, v := range linkVariants {
		t.Run(v.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			var sentAt, gotAt sim.Time
			rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
				gotAt = now
				packet.Release(p)
			})
			po := NewPort(eng, "p", rate, delay, nil, rec)
			v.arm(po)
			for i, size := range mixedSizes {
				eng.RunFor(time.Duration(i+1) * 7 * time.Millisecond) // idle gap, odd start times
				sentAt = eng.Now()
				po.Send(data(size))
				eng.Run()
				want := units.TransmissionTime(size, rate) + delay
				if got := (gotAt - sentAt).Std(); got != want {
					t.Errorf("%d B: one-way delay %v, want %v", size, got, want)
				}
			}
			if got, want := eng.Executed(), v.events*uint64(len(mixedSizes)); got != want {
				t.Errorf("executed %d events for %d packets, want %d", got, len(mixedSizes), want)
			}
		})
	}
}

// TestLinkRate: the k-th packet of a mixed-size back-to-back burst offered
// at t0 arrives at t0 + Σ_{i≤k} tx_i + delay. Fails if an arrival during a
// fused serialization starts at once instead of arming the serializer's
// timer (drop the !Reached case from kick).
func TestLinkRate(t *testing.T) {
	const rate, delay = units.GigabitPerSec, 2 * time.Millisecond
	for _, v := range linkVariants {
		t.Run(v.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			var got []sim.Time
			rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
				got = append(got, now)
				packet.Release(p)
			})
			po := NewPort(eng, "p", rate, delay, aqm.NewFIFO(1<<30), rec)
			v.arm(po)
			eng.RunFor(5 * time.Millisecond)
			t0 := eng.Now()
			var want []sim.Time
			done := t0
			for k := 0; k < 60; k++ {
				size := mixedSizes[(k*7)%len(mixedSizes)]
				po.Send(data(size))
				done += sim.Duration(units.TransmissionTime(size, rate))
				want = append(want, done+sim.Duration(delay))
			}
			eng.Run()
			if !slices.Equal(got, want) {
				t.Fatalf("burst arrivals\n got  %v\n want %v", got, want)
			}
			var bytes units.ByteSize
			for k := 0; k < 60; k++ {
				bytes += mixedSizes[(k*7)%len(mixedSizes)]
			}
			if po.TxPackets() != 60 || po.TxBytes() != bytes {
				t.Fatalf("tx counters: %d pkts %d bytes, want 60 pkts %d bytes", po.TxPackets(), po.TxBytes(), bytes)
			}
		})
	}
}

func TestPortQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", 10*units.MegabitPerSec, 0, aqm.NewFIFO(20_000), sink)
	for i := 0; i < 10; i++ { // 89.6KB offered into a 20KB queue
		po.Send(data(8960))
	}
	eng.Run()
	if po.Queue().Stats().Dropped == 0 {
		t.Fatal("expected tail drops")
	}
	if sink.Packets+po.Queue().Stats().Dropped != 10 {
		t.Fatalf("conservation: %d delivered + %d dropped != 10",
			sink.Packets, po.Queue().Stats().Dropped)
	}
}

func TestPathChaining(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	p3 := NewPort(eng, "p3", 1*units.GigabitPerSec, 5*time.Millisecond, nil, sink)
	p2 := NewPort(eng, "p2", 1*units.GigabitPerSec, 5*time.Millisecond, nil, nil)
	p1 := NewPort(eng, "p1", 1*units.GigabitPerSec, 5*time.Millisecond, nil, nil)
	path := NewPath(p1, p2, p3)
	path.Inject(0, data(1000))
	eng.Run()
	if sink.Packets != 1 {
		t.Fatal("packet lost in path")
	}
	// Three hops: 3 × (8us serialization + 5ms propagation).
	wantMin := sim.Duration(15 * time.Millisecond)
	if sink.LastAt < wantMin {
		t.Fatalf("delivered too early: %v < %v", sink.LastAt, wantMin)
	}
}

func TestEmptyPathReleases(t *testing.T) {
	path := NewPath()
	path.Inject(0, data(1000)) // must not panic or leak
}

func TestBottleneckQueueing(t *testing.T) {
	// Fast ingress into a slow egress builds a queue at the slow port.
	eng := sim.NewEngine(1)
	sink := &Sink{}
	slow := NewPort(eng, "slow", 10*units.MegabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	fast := NewPort(eng, "fast", 1*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), slow)
	maxQ := 0
	for i := 0; i < 50; i++ {
		fast.Send(data(8960))
	}
	// Sample queue length as the simulation progresses.
	for i := 0; i < 100; i++ {
		eng.Schedule(time.Duration(i)*100*time.Microsecond, func() {
			if l := slow.Queue().Len(); l > maxQ {
				maxQ = l
			}
		})
	}
	eng.Run()
	if maxQ < 10 {
		t.Fatalf("no queue built at bottleneck (max %d)", maxQ)
	}
	if sink.Packets != 50 {
		t.Fatalf("delivered %d, want 50", sink.Packets)
	}
}

func TestReceiverFunc(t *testing.T) {
	called := false
	var r Receiver = ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		called = true
		packet.Release(p)
	})
	r.Receive(0, data(100))
	if !called {
		t.Fatal("ReceiverFunc not invoked")
	}
}

func TestNilDstReleases(t *testing.T) {
	eng := sim.NewEngine(1)
	po := NewPort(eng, "p", 1*units.GigabitPerSec, 0, nil, nil)
	po.Send(data(100))
	eng.Run()
	if po.TxPackets() != 1 {
		t.Fatal("packet should still be transmitted")
	}
}

func BenchmarkPortForwarding(b *testing.B) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", 25*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po.Send(data(8960))
		eng.Run()
	}
}

func TestSojournStats(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	// 10 Mbps: each 8960B packet serializes in ~7.17ms, so the 5th packet
	// queues for ~4 serialization times.
	po := NewPort(eng, "p", 10*units.MegabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	if po.Sojourn() != (SojournStats{}) {
		t.Fatal("empty port should report zero sojourn")
	}
	for i := 0; i < 5; i++ {
		po.Send(data(8960))
	}
	eng.Run()
	st := po.Sojourn()
	if st.Max < 25*time.Millisecond || st.Max > 35*time.Millisecond {
		t.Fatalf("max sojourn = %v, want ~4×7.17ms", st.Max)
	}
	if st.Mean <= 0 || st.Mean > st.Max {
		t.Fatalf("mean sojourn = %v (max %v)", st.Mean, st.Max)
	}
}
