package netem

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// fusedSchedule is a seeded arrival schedule for one port: bursts, idle
// gaps and mixed sizes, with arrivals placed exactly when the serializer
// frees up and 1 ns before it.
type fusedSchedule struct {
	arrivals    []fusedArrival
	checkpoints []sim.Time // RunUntil ends, several in mid-serialization
	atFree      int        // arrivals landing exactly as a packet finishes
	beforeFree  int        // arrivals landing 1 ns before it
}

type fusedArrival struct {
	at    sim.Time
	sizes []units.ByteSize
	// early schedules the next arrival before sending, so that an arrival
	// at the instant a serialization ends can dispatch on either side of
	// the port's tx-done key.
	early bool
}

func newFusedSchedule(seed uint64, rate units.Bandwidth) fusedSchedule {
	rng := sim.NewRNG(seed)
	var s fusedSchedule
	var now, free sim.Time // free: when the serializer finishes its backlog
	for i := 0; i < 600; i++ {
		switch rng.Intn(6) {
		case 0:
			if free > now {
				s.atFree++
			}
			now = max(now, free)
		case 1:
			if free-1 > now {
				s.beforeFree++
			}
			now = max(now, free-1)
		case 2: // idle gap
			now = max(now, free) + sim.Time(1+rng.Intn(200_000))
		case 3: // same instant as the previous arrival
		default: // somewhere inside the current serialization, or just after
			now += sim.Time(rng.Intn(40_000))
		}
		a := fusedArrival{at: now, early: rng.Intn(2) == 0}
		for n := 1 + max(0, rng.Intn(8)-4); n > 0; n-- {
			size := mixedSizes[rng.Intn(len(mixedSizes))]
			a.sizes = append(a.sizes, size)
			tx := sim.Duration(units.TransmissionTime(size, rate))
			if i%40 == 0 {
				s.checkpoints = append(s.checkpoints, max(now, free)+tx/2)
			}
			free = max(now, free) + tx
		}
		if i%55 == 0 {
			s.checkpoints = append(s.checkpoints, free) // the run ends as a packet finishes
		}
		s.arrivals = append(s.arrivals, a)
	}
	slices.Sort(s.checkpoints)
	return s
}

// portObservation is everything a port exposes, sampled at every arrival
// and at the end of every RunUntil, plus every delivery.
type portObservation struct {
	samples    []string
	deliveries []string
	executed   uint64
	ring       []string // D's trace ring (observeFold)
	waited     int      // D's traced dequeues with a sojourn
}

// fusedQueues builds each discipline with knobs that let it act on the
// schedule's short backlogs: RED's thresholds sit a few packets deep, and
// CoDel's target and interval span a few serializations, so RED drops and
// CoDel enters and leaves its dropping state.
var fusedQueues = []struct {
	kind aqm.Kind
	new  func() aqm.Queue
}{
	{aqm.KindFIFO, func() aqm.Queue { return aqm.NewFIFO(1 << 30) }},
	{aqm.KindRED, func() aqm.Queue { return aqm.NewRED(64_000, false, aqm.REDParams{Seed: 1}) }},
	{aqm.KindCoDel, func() aqm.Queue {
		return aqm.NewCoDel(1<<30, false, aqm.CoDelParams{Target: 20 * time.Microsecond, Interval: 100 * time.Microsecond})
	}},
	{aqm.KindFQCoDel, func() aqm.Queue {
		return aqm.NewFQCoDel(1<<30, false, aqm.FQCoDelParams{Flows: 16, Quantum: 1500,
			CoDel: aqm.CoDelParams{Target: 20 * time.Microsecond, Interval: 100 * time.Microsecond}})
	}},
}

// observePort drives s through one port over q, on the event path if
// unfuse. Packets cycle through four flows, so FQ-CoDel schedules among
// several.
func observePort(s fusedSchedule, rate units.Bandwidth, q aqm.Queue, unfuse bool) portObservation {
	eng := sim.NewEngine(1)
	var obs portObservation
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		obs.deliveries = append(obs.deliveries, fmt.Sprintf("#%d@%d", p.Seq, now))
		packet.Release(p)
	})
	po := NewPort(eng, "p", rate, time.Millisecond, q, rec)
	if unfuse {
		po.Unfuse()
	}
	sample := func(where string) {
		b, n := po.PeakQueue()
		obs.samples = append(obs.samples, fmt.Sprintf("%s@%d: tx %d pkts %d B, queue %d, peak %d B %d pkts, sojourn %+v, %+v",
			where, eng.Now(), po.TxPackets(), po.TxBytes(), po.Queue().Len(), b, n, po.Sojourn(), po.Queue().Stats()))
	}
	seq := int64(0)
	var arrive func(i int)
	next := func(i int) {
		if i+1 < len(s.arrivals) {
			eng.Schedule((s.arrivals[i+1].at - eng.Now()).Std(), func() { arrive(i + 1) })
		}
	}
	arrive = func(i int) {
		a := s.arrivals[i]
		if a.early {
			next(i)
		}
		sample(fmt.Sprint("arrival ", i))
		for _, size := range a.sizes {
			p := data(size)
			p.Seq, p.Flow = seq, packet.FlowID(seq%4)
			seq++
			po.Send(p)
		}
		if !a.early {
			next(i)
		}
	}
	eng.Schedule(s.arrivals[0].at.Std(), func() { arrive(0) })
	for _, end := range s.checkpoints {
		eng.RunUntil(end)
		sample("run end")
	}
	eng.Run()
	sample("drained")
	obs.executed = eng.Executed()
	return obs
}

// TestFusedMatchesEventPath drives one seeded schedule through a fused port
// and through the same port after Unfuse, for each discipline. Every
// delivery (packet and time, in order) and every reading of the port's
// counters, queue, high-watermark, sojourn and discipline counters — at
// each arrival and at each run end, including ends in mid-serialization —
// must match. Fails if the serializer timer is not armed for an arrival
// behind a fused packet, if TxPackets and TxBytes count a fused packet at
// its dequeue, or (FQ-CoDel) if a fused port skips the empty Dequeue its
// skipped tx-done owes the discipline.
func TestFusedMatchesEventPath(t *testing.T) {
	const rate = units.GigabitPerSec
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := newFusedSchedule(seed, rate)
			if s.atFree < 20 || s.beforeFree < 20 {
				t.Fatalf("schedule lands %d arrivals at a serialization's end and %d 1 ns before; want ≥20 each",
					s.atFree, s.beforeFree)
			}
			for _, q := range fusedQueues {
				t.Run(string(q.kind), func(t *testing.T) {
					fused := observePort(s, rate, q.new(), false)
					ref := observePort(s, rate, q.new(), true)
					if fused.executed >= ref.executed {
						t.Fatalf("fused port executed %d events, event path %d: nothing was fused", fused.executed, ref.executed)
					}
					if i := firstDiff(fused.deliveries, ref.deliveries); i >= 0 {
						t.Fatalf("delivery %d differs: fused %s, event path %s", i, at(fused.deliveries, i), at(ref.deliveries, i))
					}
					if i := firstDiff(fused.samples, ref.samples); i >= 0 {
						t.Fatalf("sample %d differs:\n fused      %s\n event path %s", i, at(fused.samples, i), at(ref.samples, i))
					}
				})
			}
		})
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// foldSchedule is a seeded arrival schedule for an upstream port U feeding
// a port D at the same rate, one byte per nanosecond, so that same-size
// packets sent back to back reach D exactly as it finishes the one before.
// Arrivals are also placed so that their first packet reaches D exactly
// when D's serializer frees up, 1 ns before it, and 1 ns after it.
type foldSchedule struct {
	arrivals    []fusedArrival
	checkpoints []sim.Time // RunUntil ends, in D's serialization or before a packet reaches D
	atFree      int        // arrivals whose first packet reaches D exactly as it frees up
	beforeFree  int        // ... 1 ns before it
}

const (
	foldRate  = 8 * units.GigabitPerSec // 1 ns per byte
	foldDelay = 50 * time.Microsecond   // U's propagation delay
)

func newFoldSchedule(seed uint64) foldSchedule {
	rng := sim.NewRNG(seed)
	var s foldSchedule
	d := sim.Duration(foldDelay)
	// freeU and freeD: when U's and D's serializers finish their backlogs.
	var now, freeU, freeD sim.Time
	for i := 0; i < 600; i++ {
		a := fusedArrival{early: rng.Intn(2) == 0}
		for n := 1 + max(0, rng.Intn(7)-3); n > 0; n-- {
			a.sizes = append(a.sizes, mixedSizes[rng.Intn(len(mixedSizes))])
		}
		// land: the arrival time at which the first packet reaches D at t1.
		land := func(t1 sim.Time) bool {
			at := t1 - d - sim.Time(a.sizes[0])
			if at < max(now, freeU) {
				return false
			}
			now = at
			return true
		}
		switch rng.Intn(7) {
		case 0:
			if land(freeD) {
				s.atFree++
			}
		case 1:
			if land(freeD - 1) {
				s.beforeFree++
			}
		case 2:
			land(freeD + 1)
		case 3: // idle gap
			now = max(now, freeU, freeD-d) + sim.Time(1+rng.Intn(200_000))
		case 4: // same instant as the previous arrival
		default:
			now += sim.Time(rng.Intn(4_000))
		}
		a.at = now
		for j, size := range a.sizes {
			freeU = max(now, freeU) + sim.Time(size)
			t1 := freeU + d
			startD := max(t1, freeD)
			freeD = startD + sim.Time(size)
			if (i+j)%23 == 0 {
				s.checkpoints = append(s.checkpoints, startD+sim.Time(size)/2)
			}
			if (i+j)%31 == 0 {
				s.checkpoints = append(s.checkpoints, t1-sim.Time(rng.Intn(int(d))))
			}
		}
		s.arrivals = append(s.arrivals, a)
	}
	slices.Sort(s.checkpoints)
	return s
}

// observeFold drives s into U and records U's readings and D's trace
// high-watermark at every arrival and run end, every delivery past D, and
// D's trace ring. fold chains U to D with Fold rather than SetDst; unfuseD
// puts D on the event path.
func observeFold(s foldSchedule, fold, unfuseD bool) portObservation {
	eng := sim.NewEngine(1)
	trc := telemetry.New(telemetry.Options{RingCap: 1 << 13, SampleN: 1})
	eng.SetTracer(trc)
	var obs portObservation
	rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
		obs.deliveries = append(obs.deliveries, fmt.Sprintf("#%d@%d", p.Seq, now))
		packet.Release(p)
	})
	d := NewPort(eng, "D", foldRate, time.Millisecond, aqm.NewFIFO(1<<30), rec)
	u := NewPort(eng, "U", foldRate, foldDelay, aqm.NewFIFO(1<<30), nil)
	if unfuseD {
		d.Unfuse()
	}
	if fold {
		u.Fold(d)
	} else {
		u.SetDst(d)
	}
	// No result reads a folded port's counters or its queue (see
	// Port.Fold); its trace records what the queue would have held.
	sample := func(where string) {
		b, n := u.PeakQueue()
		db, dn := d.trc.Peak()
		obs.samples = append(obs.samples, fmt.Sprintf("%s@%d U: tx %d pkts %d B, queue %d, peak %d B %d pkts, sojourn %+v; D: traced peak %d B %d pkts",
			where, eng.Now(), u.TxPackets(), u.TxBytes(), u.Queue().Len(), b, n, u.Sojourn(), db, dn))
	}
	seq := int64(0)
	var arrive func(i int)
	next := func(i int) {
		if i+1 < len(s.arrivals) {
			eng.Schedule((s.arrivals[i+1].at - eng.Now()).Std(), func() { arrive(i + 1) })
		}
	}
	arrive = func(i int) {
		a := s.arrivals[i]
		if a.early {
			next(i)
		}
		sample(fmt.Sprint("arrival ", i))
		for _, size := range a.sizes {
			p := data(size)
			p.Seq, p.Flow = seq, packet.FlowID(seq%4)
			seq++
			u.Send(p)
		}
		if !a.early {
			next(i)
		}
	}
	eng.Schedule(s.arrivals[0].at.Std(), func() { arrive(0) })
	for _, end := range s.checkpoints {
		eng.RunUntil(end)
		sample("run end")
	}
	eng.Run()
	sample("drained")
	obs.executed = eng.Executed()
	for _, r := range trc.Dump().Rings {
		if r.Name == "port:D" {
			for _, e := range r.Events {
				obs.ring = append(obs.ring, fmt.Sprintf("%+v", e))
				if e.Kind == telemetry.KindDequeue && e.B > 0 {
					obs.waited++
				}
			}
			if r.Dropped > 0 {
				panic("D's trace ring overflowed")
			}
		}
	}
	return obs
}

// TestFoldedMatchesEventPath drives one seeded schedule through a port U
// that folds its packets onto the fused port D, through the same pair
// without folding, and through it with D on the event path. Every delivery
// (packet and time, in order), every reading of U's counters, queue,
// high-watermark and sojourn, and D's trace high-watermark — at each
// arrival and at each run end, including ends while D serializes a folded
// packet and before one reaches D — must match, and so must D's trace ring,
// record for record, backlogs included: it holds what D's queue held,
// which folded packets bypass while they wait. Fails if a folded packet
// starts before D is free, or if D's trace records one that waits as
// crossing an empty queue.
func TestFoldedMatchesEventPath(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := newFoldSchedule(seed)
			if s.atFree < 20 || s.beforeFree < 20 {
				t.Fatalf("schedule lands %d arrivals on D as it frees up and %d 1 ns before; want ≥20 each",
					s.atFree, s.beforeFree)
			}
			folded := observeFold(s, true, false)
			if folded.waited < 20 {
				t.Fatalf("%d folded packets waited for D; want ≥20", folded.waited)
			}
			for _, ref := range []struct {
				name string
				obs  portObservation
			}{
				{"unfolded", observeFold(s, false, false)},
				{"event path", observeFold(s, true, true)},
			} {
				if folded.executed >= ref.obs.executed {
					t.Fatalf("folded pair executed %d events, %s %d: nothing was folded", folded.executed, ref.name, ref.obs.executed)
				}
				if i := firstDiff(folded.deliveries, ref.obs.deliveries); i >= 0 {
					t.Fatalf("delivery %d differs: folded %s, %s %s", i, at(folded.deliveries, i), ref.name, at(ref.obs.deliveries, i))
				}
				if i := firstDiff(folded.samples, ref.obs.samples); i >= 0 {
					t.Fatalf("sample %d differs:\n folded %s\n %-6s %s", i, at(folded.samples, i), ref.name, at(ref.obs.samples, i))
				}
				if i := firstDiff(folded.ring, ref.obs.ring); i >= 0 {
					t.Fatalf("D's trace record %d differs:\n folded %s\n %-6s %s", i, at(folded.ring, i), ref.name, at(ref.obs.ring, i))
				}
			}
		})
	}
}

// TestFoldWaitsBehindFullSegment sends full segments each followed by a
// short one through U into D at the same rate, back to back: each short
// segment reaches D while D still serializes the full one, and each full
// one reaches D exactly as D finishes the short one. Every packet must fold
// (no delivery on U's wire: the engine runs only the sends and D's
// deliveries) and reach the end exactly when it does unfolded. Fails if
// fold refuses a packet because D is still serializing.
func TestFoldWaitsBehindFullSegment(t *testing.T) {
	const pairs = 200
	run := func(fold bool) ([]string, uint64) {
		eng := sim.NewEngine(1)
		var got []string
		rec := ReceiverFunc(func(now sim.Time, p *packet.Packet) {
			got = append(got, fmt.Sprintf("#%d@%d", p.Seq, now))
			packet.Release(p)
		})
		d := NewPort(eng, "D", foldRate, time.Millisecond, nil, rec)
		u := NewPort(eng, "U", foldRate, foldDelay, nil, nil)
		if fold {
			u.Fold(d)
		} else {
			u.SetDst(d)
		}
		// Each send lands as U frees up (1 ns per byte), after U's tx-done
		// key, so U takes every packet on its fused path.
		seq := int64(0)
		var tick sim.Timer
		tick.Init(eng, sim.HandlerFunc(func(any) {
			size := units.ByteSize(9000)
			if seq%2 == 1 {
				size = 100
			}
			p := data(size)
			p.Seq = seq
			u.Send(p)
			if seq++; seq < 2*pairs {
				tick.Reset(time.Duration(size))
			}
		}), nil)
		tick.Reset(0)
		eng.Run()
		return got, eng.Executed()
	}
	folded, fev := run(true)
	unfolded, uev := run(false)
	if i := firstDiff(folded, unfolded); i >= 0 {
		t.Fatalf("delivery %d differs: folded %s, unfolded %s", i, at(folded, i), at(unfolded, i))
	}
	if want := uint64(2 * 2 * pairs); fev != want {
		t.Fatalf("folded run executed %d events for %d packets, want %d (a send and a delivery from D each); unfolded %d",
			fev, 2*pairs, want, uev)
	}
}
