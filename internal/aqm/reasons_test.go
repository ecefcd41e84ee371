package aqm

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestDropMarkReasons pins, for every loss path of every discipline, the
// trace event it records (kind, reason, flow, time, packet bytes and the
// backlog it reports) and the Stats delta it causes. Each case builds a
// queue, drives it to the brink of one loss, and then performs the single
// operation that must cross it.
func TestDropMarkReasons(t *testing.T) {
	const ms = sim.Time(time.Millisecond)
	ect := func(p *packet.Packet) *packet.Packet { p.ECN = packet.ECT0; return p }
	fill := func(q Queue, flow packet.FlowID, n int, size units.ByteSize) {
		for i := 0; i < n; i++ {
			q.Enqueue(0, mkData(flow, size))
		}
	}
	// redBrink returns a RED queue holding three 1000-byte packets whose
	// average sits at avg and whose drop lottery is sure to fire.
	redBrink := func(ecn bool, avg float64) *RED {
		q := NewRED(1_200_000, ecn, REDParams{Seed: 1})
		fill(q, 1, 3, 1000)
		q.avg = avg
		q.count = 1 << 20
		return q
	}
	// codelBrink returns q with its next dequeue at 110 ms the first one
	// past firstAboveTime: ten 1000-byte packets of flow enqueued at 0 (then
	// three 500-byte packets of flow 2 when other is set), one dequeued at
	// 10 ms to start the interval.
	codelBrink := func(q Queue, flow packet.FlowID, ecn packet.ECN, other bool) Queue {
		for i := 0; i < 10; i++ {
			p := mkData(flow, 1000)
			p.ECN = ecn
			q.Enqueue(0, p)
		}
		if other {
			fill(q, 2, 3, 500)
		}
		packet.Release(q.Dequeue(10 * ms))
		return q
	}

	cases := []struct {
		name  string
		setup func() Queue
		op    func(Queue) // the one operation that crosses the brink
		want  telemetry.Event
		delta Stats
	}{
		{
			name:  "fifo tail",
			setup: func() Queue { q := NewFIFO(2500); fill(q, 1, 2, 1000); return q },
			op:    func(q Queue) { q.Enqueue(7, mkData(3, 1000)) },
			want:  telemetry.Event{At: 7, Flow: 3, Kind: telemetry.KindDrop, Aux: telemetry.DropTail, A: 1000, B: 2000},
			delta: Stats{Dropped: 1, DroppedBytes: 1000},
		},
		{
			name:  "red early",
			setup: func() Queue { return redBrink(false, 200_000) },
			op:    func(q Queue) { q.Enqueue(9, mkData(5, 1500)) },
			want:  telemetry.Event{At: 9, Flow: 5, Kind: telemetry.KindDrop, Aux: telemetry.DropREDEarly, A: 1500, B: 3000},
			delta: Stats{Dropped: 1, DroppedBytes: 1500},
		},
		{
			name:  "red forced",
			setup: func() Queue { return redBrink(false, 900_000) },
			op:    func(q Queue) { q.Enqueue(9, mkData(5, 1500)) },
			want:  telemetry.Event{At: 9, Flow: 5, Kind: telemetry.KindDrop, Aux: telemetry.DropREDForced, A: 1500, B: 3000},
			delta: Stats{Dropped: 1, DroppedBytes: 1500},
		},
		{
			name: "red hard limit",
			setup: func() Queue {
				q := NewRED(2500, false, REDParams{MinTh: 100_000, MaxTh: 200_000})
				fill(q, 1, 2, 1000)
				return q
			},
			op:    func(q Queue) { q.Enqueue(4, mkData(2, 1000)) },
			want:  telemetry.Event{At: 4, Flow: 2, Kind: telemetry.KindDrop, Aux: telemetry.DropTail, A: 1000, B: 2000},
			delta: Stats{Dropped: 1, DroppedBytes: 1000},
		},
		{
			name:  "red mark",
			setup: func() Queue { return redBrink(true, 200_000) },
			op:    func(q Queue) { q.Enqueue(9, ect(mkData(5, 1500))) },
			want:  telemetry.Event{At: 9, Flow: 5, Kind: telemetry.KindMark, Aux: telemetry.MarkRED, A: 1500, B: 3000},
			delta: Stats{Enqueued: 1, Marked: 1},
		},
		{
			name:  "codel door",
			setup: func() Queue { q := NewCoDel(2500, false, CoDelParams{}); fill(q, 1, 2, 1000); return q },
			op:    func(q Queue) { q.Enqueue(6, mkData(4, 1000)) },
			want:  telemetry.Event{At: 6, Flow: 4, Kind: telemetry.KindDrop, Aux: telemetry.DropOverlimit, A: 1000, B: 2000},
			delta: Stats{Dropped: 1, DroppedBytes: 1000},
		},
		{
			name:  "codel control law drop",
			setup: func() Queue { return codelBrink(NewCoDel(1<<20, false, CoDelParams{}), 6, packet.NotECT, false) },
			op:    func(q Queue) { packet.Release(q.Dequeue(110 * ms)) },
			// Backlog behind the victim: 10 - 1 dequeued - 1 dropped.
			want:  telemetry.Event{At: int64(110 * ms), Flow: 6, Kind: telemetry.KindDrop, Aux: telemetry.DropCoDel, A: 1000, B: 8000},
			delta: Stats{Dequeued: 1, Dropped: 1, DroppedBytes: 1000},
		},
		{
			name:  "codel mark",
			setup: func() Queue { return codelBrink(NewCoDel(1<<20, true, CoDelParams{}), 6, packet.ECT0, false) },
			op:    func(q Queue) { packet.Release(q.Dequeue(110 * ms)) },
			want:  telemetry.Event{At: int64(110 * ms), Flow: 6, Kind: telemetry.KindMark, Aux: telemetry.MarkCoDel, A: 1000, B: 8000},
			delta: Stats{Dequeued: 1, Marked: 1},
		},
		{
			name: "fq_codel eviction",
			setup: func() Queue {
				q := NewFQCoDel(10_000, false, FQCoDelParams{})
				fill(q, 1, 5, 1500)
				fill(q, 2, 1, 1000)
				return q
			},
			// 10,500 bytes offered: the fattest flow (1) loses its head.
			op:    func(q Queue) { q.Enqueue(8, mkData(2, 2000)) },
			want:  telemetry.Event{At: 8, Flow: 1, Kind: telemetry.KindDrop, Aux: telemetry.DropOverlimit, A: 1500, B: 9000},
			delta: Stats{Enqueued: 1, Dropped: 1, DroppedBytes: 1500},
		},
		{
			// The CoDel law inside FQ-CoDel reports its flow queue's
			// backlog, not the discipline's: flow 2's 1500 bytes are
			// excluded.
			name:  "fq_codel control law drop",
			setup: func() Queue { return codelBrink(NewFQCoDel(1<<20, false, FQCoDelParams{}), 1, packet.NotECT, true) },
			op:    func(q Queue) { packet.Release(q.Dequeue(110 * ms)) },
			want:  telemetry.Event{At: int64(110 * ms), Flow: 1, Kind: telemetry.KindDrop, Aux: telemetry.DropCoDel, A: 1000, B: 8000},
			delta: Stats{Dequeued: 1, Dropped: 1, DroppedBytes: 1000},
		},
		{
			name:  "fq_codel mark",
			setup: func() Queue { return codelBrink(NewFQCoDel(1<<20, true, FQCoDelParams{}), 1, packet.ECT0, true) },
			op:    func(q Queue) { packet.Release(q.Dequeue(110 * ms)) },
			want:  telemetry.Event{At: int64(110 * ms), Flow: 1, Kind: telemetry.KindMark, Aux: telemetry.MarkCoDel, A: 1000, B: 8000},
			delta: Stats{Dequeued: 1, Marked: 1},
		},
	}
	if packet.FlowHash(1, 0, 1024) == packet.FlowHash(2, 0, 1024) {
		t.Fatal("flows 1 and 2 share an FQ-CoDel bucket; pick other flow IDs")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.setup()
			tr := telemetry.New(telemetry.Options{})
			q.(TraceSink).SetTrace(tr.Port("q"))
			before := q.Stats()
			tc.op(q)
			after := q.Stats()

			got := Stats{
				Enqueued:     after.Enqueued - before.Enqueued,
				Dequeued:     after.Dequeued - before.Dequeued,
				Dropped:      after.Dropped - before.Dropped,
				Marked:       after.Marked - before.Marked,
				DroppedBytes: after.DroppedBytes - before.DroppedBytes,
			}
			if got != tc.delta {
				t.Errorf("stats delta = %+v, want %+v", got, tc.delta)
			}
			evs := tr.Dump().Rings[0].Events
			if len(evs) != 1 {
				t.Fatalf("recorded %d events, want exactly 1: %+v", len(evs), evs)
			}
			if evs[0] != tc.want {
				t.Errorf("event = %+v, want %+v", evs[0], tc.want)
			}
			if err := q.(SelfChecker).SelfCheck(); err != nil {
				t.Error(err)
			}
		})
	}
}
