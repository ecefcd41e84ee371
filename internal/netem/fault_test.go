package netem

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLossInjectionRate: uniform injected loss drops a binomial share of
// the packets, within 4σ of n·p at each rate. Fails if the loss decision is
// drawn twice per packet (the rate roughly doubles).
func TestLossInjectionRate(t *testing.T) {
	const n = 100_000
	for _, p := range []float64{0.001, 0.01, 0.1} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			eng := sim.NewEngine(1)
			sink := &Sink{}
			po := NewPort(eng, "lossy", 10*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
			po.SetLoss(p)
			for sent := 0; sent < n; sent += 1000 {
				for i := 0; i < 1000; i++ {
					po.Send(data(1000))
				}
				eng.Run()
			}
			lost := float64(po.LossDrops())
			mean, sigma := n*p, math.Sqrt(n*p*(1-p))
			if math.Abs(lost-mean) > 4*sigma {
				t.Fatalf("loss %g dropped %.0f of %d, want %.0f ± %.0f (4σ)", p, lost, n, mean, 4*sigma)
			}
			if sink.Packets+po.LossDrops() != n {
				t.Fatalf("conservation: %d delivered + %d lost != %d", sink.Packets, po.LossDrops(), n)
			}
		})
	}
}

func TestLossClamping(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", units.GigabitPerSec, 0, nil, sink)
	po.SetLoss(-0.5) // clamps to 0
	po.Send(data(100))
	eng.Run()
	if sink.Packets != 1 {
		t.Fatal("negative loss rate should clamp to 0")
	}
	po.SetLoss(2) // clamps to 1
	po.Send(data(100))
	eng.Run()
	if po.LossDrops() != 1 {
		t.Fatal("loss rate >1 should clamp to 1 (drop everything)")
	}
}

func TestZeroLossDefault(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "p", units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	for i := 0; i < 1000; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if po.LossDrops() != 0 || sink.Packets != 1000 {
		t.Fatal("ports must be lossless by default")
	}
}

// TestPortRNGSeededFromEngine: fault randomness must derive from the
// engine's seeded RNG — same seed ⇒ identical drop pattern, different
// seed ⇒ different pattern.
func TestPortRNGSeededFromEngine(t *testing.T) {
	pattern := func(seed uint64) string {
		eng := sim.NewEngine(seed)
		var got []byte
		rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
			got = append(got, byte('0'+p.Seq%10))
			packet.Release(p)
		})
		po := NewPort(eng, "lossy", 10*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
		po.SetLoss(0.2)
		for i := 0; i < 2000; i++ {
			p := data(1000)
			p.Seq = int64(i)
			po.Send(p)
		}
		eng.Run()
		return string(got)
	}
	a, b, c := pattern(42), pattern(42), pattern(43)
	if a != b {
		t.Fatal("same engine seed produced different loss patterns")
	}
	if a == c {
		t.Fatal("different engine seeds produced identical loss patterns")
	}
}

// TestGilbertElliottBurstiness: with lossGood=0 and lossBad=1 every packet
// sent in the bad state is lost, so the lost share must match the chain's
// stationary bad fraction pGB/(pGB+pBG) and loss runs must average 1/pBG
// packets. Each tolerance is 4σ: for the bad fraction, the asymptotic
// variance of a two-state chain's occupancy, π(1-π)(1+λ)/(1-λ)/n with
// λ = 1-pGB-pBG; for the burst mean, the geometric run length's standard
// deviation √(1-pBG)/pBG over √(runs observed). Fails if the chain's
// transition probabilities are swapped.
func TestGilbertElliottBurstiness(t *testing.T) {
	eng := sim.NewEngine(3)
	const n = 200_000
	delivered := make([]bool, n)
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		delivered[p.Seq] = true
		packet.Release(p)
	})
	po := NewPort(eng, "ge", 10*units.GigabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
	const pGB, pBG = 0.02, 0.2
	po.SetGELoss(pGB, pBG, 0, 1)
	for i := 0; i < n; i++ {
		p := data(1000)
		p.Seq = int64(i)
		po.Send(p)
		if i%1000 == 999 {
			eng.Run()
		}
	}
	eng.Run()

	pi, lambda := pGB/(pGB+pBG), 1-pGB-pBG // ≈ 9.1 % bad
	frac := float64(po.LossDrops()) / n
	if tol := 4 * math.Sqrt(pi*(1-pi)*(1+lambda)/(1-lambda)/n); math.Abs(frac-pi) > tol {
		t.Fatalf("GE lost share %.4f, want %.4f ± %.4f (4σ)", frac, pi, tol)
	}

	// Mean length of consecutive-loss runs.
	runs, cur := 0, 0
	sum := 0
	for _, ok := range delivered {
		if !ok {
			cur++
			continue
		}
		if cur > 0 {
			runs++
			sum += cur
			cur = 0
		}
	}
	if cur > 0 {
		runs++
		sum += cur
	}
	if runs == 0 {
		t.Fatal("no loss bursts observed")
	}
	mean := float64(sum) / float64(runs)
	if tol := 4 * math.Sqrt(1-pBG) / pBG / math.Sqrt(float64(runs)); math.Abs(mean-1/pBG) > tol {
		t.Fatalf("GE mean burst length %.3f over %d runs, want %.3f ± %.3f (4σ)", mean, runs, 1/pBG, tol)
	}
}

// TestLinkFlapDrainsQueueAndRecovers: taking a port down must flush its
// queue, destroy traffic offered while down, and resume cleanly on up.
func TestLinkFlapDrainsQueueAndRecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	sink := &Sink{}
	po := NewPort(eng, "flappy", units.MegabitPerSec, 0, aqm.NewFIFO(1<<30), sink)
	for i := 0; i < 100; i++ {
		po.Send(data(1000)) // ~0.8s of backlog at 1 Mbps
	}
	eng.RunFor(10 * time.Millisecond) // a couple of packets get through
	deliveredBefore := sink.Packets

	po.SetDown(true)
	if !po.Down() {
		t.Fatal("Down() should report true")
	}
	if po.Queue().Len() != 0 {
		t.Fatalf("queue not drained on carrier loss: %d packets left", po.Queue().Len())
	}
	if po.DownDrops() == 0 {
		t.Fatal("queue drain dropped nothing")
	}
	// Let the packet that was mid-serialization at carrier loss finish; it
	// is destroyed too (the link was down when its last bit left).
	eng.RunFor(20 * time.Millisecond)
	drainDrops := po.DownDrops()
	po.Send(data(1000)) // offered while down
	eng.RunFor(80 * time.Millisecond)
	if sink.Packets != deliveredBefore {
		t.Fatalf("packets delivered while down: %d > %d", sink.Packets, deliveredBefore)
	}
	if po.DownDrops() != drainDrops+1 {
		t.Fatalf("send while down not dropped: %d vs %d", po.DownDrops(), drainDrops+1)
	}

	po.SetDown(false)
	for i := 0; i < 10; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if sink.Packets < deliveredBefore+10 {
		t.Fatalf("port did not recover after flap: %d delivered", sink.Packets)
	}
}

// TestBandwidthStepChangesServiceRate: after SetRate the serialization
// time of subsequent packets must reflect the new rate.
func TestBandwidthStepChangesServiceRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []sim.Time
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		times = append(times, now)
		packet.Release(p)
	})
	po := NewPort(eng, "step", 8*units.MegabitPerSec, 0, aqm.NewFIFO(1<<30), rec)
	// 1000-byte packets at 8 Mbps serialize in 1 ms.
	for i := 0; i < 4; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	po.SetRate(800 * units.KilobitPerSec) // 10 ms per packet
	for i := 0; i < 4; i++ {
		po.Send(data(1000))
	}
	eng.Run()
	if len(times) != 8 {
		t.Fatalf("delivered %d of 8", len(times))
	}
	fast := (times[3] - times[0]).Std()
	slow := (times[7] - times[4]).Std()
	if slow < 8*fast {
		t.Fatalf("rate step barely changed pacing: fast window %v, slow window %v", fast, slow)
	}
	po.SetRate(0) // ignored: rate must stay positive
	if po.Rate() != 800*units.KilobitPerSec {
		t.Fatal("SetRate(0) should be ignored")
	}
}

// TestDelayStepShiftsDelivery: SetDelay must change the propagation delay
// of subsequent deliveries, and shrinking it must not reorder in-flight
// packets in the default (monotonic) mode.
func TestDelayStepShiftsDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	var seqs []int64
	var times []sim.Time
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		seqs = append(seqs, p.Seq)
		times = append(times, now)
		packet.Release(p)
	})
	po := NewPort(eng, "rtts", 10*units.GigabitPerSec, 10*time.Millisecond,
		aqm.NewFIFO(1<<30), rec)
	p0 := data(1000)
	p0.Seq = 0
	po.Send(p0)
	// While packet 0 is in flight with a 10 ms delay, shrink the delay to
	// zero and send packet 1: it must not overtake packet 0.
	eng.RunFor(time.Millisecond)
	po.SetDelay(0)
	if po.Delay() != 0 {
		t.Fatal("Delay() should report the stepped value")
	}
	p1 := data(1000)
	p1.Seq = 1
	po.Send(p1)
	eng.Run()
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Fatalf("delay shrink reordered delivery: %v", seqs)
	}
	if times[1] < times[0] {
		t.Fatalf("non-monotonic delivery times: %v", times)
	}
}
