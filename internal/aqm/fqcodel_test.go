package aqm

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestFQCoDelDefaults(t *testing.T) {
	q := NewFQCoDel(1_000_000, false, FQCoDelParams{})
	if q.p.Flows != 1024 || q.p.Quantum != 8960 {
		t.Fatalf("defaults: %+v", q.p)
	}
	if q.p.CoDel.Target != 5*time.Millisecond || q.p.CoDel.Interval != 100*time.Millisecond {
		t.Fatalf("codel defaults: %+v", q.p.CoDel)
	}
}

func TestFQCoDelSingleFlowFIFOOrder(t *testing.T) {
	q := NewFQCoDel(1_000_000, false, FQCoDelParams{})
	for i := 0; i < 10; i++ {
		p := mkData(7, 1000)
		p.Seq = int64(i)
		q.Enqueue(0, p)
	}
	for i := 0; i < 10; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("out of order at %d: %v", i, p)
		}
		packet.Release(p)
	}
}

func TestFQCoDelRoundRobinFairness(t *testing.T) {
	// Two backlogged flows with equal packet sizes must be served ~1:1
	// regardless of how unequal their backlogs are.
	q := NewFQCoDel(100_000_000, false, FQCoDelParams{})
	for i := 0; i < 900; i++ {
		q.Enqueue(0, mkData(1, 8960))
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(0, mkData(2, 8960))
	}
	served := map[packet.FlowID]int{}
	for i := 0; i < 200; i++ {
		p := q.Dequeue(0)
		if p == nil {
			break
		}
		served[p.Flow]++
		packet.Release(p)
	}
	if served[2] < 90 {
		t.Fatalf("thin flow starved: served %v", served)
	}
}

// TestFQCoDelDRRWeightsBySize checks RFC 8290's byte-based deficit round
// robin under unequal packet sizes: while two flows stay backlogged, their
// cumulative bytes served differ by at most one quantum plus one maximum
// packet at the end of every full round, whatever sizes they send. A
// scheduler that charged per packet instead of per byte would let the flow
// with the larger packets pull ahead by a multiple of the size ratio each
// round.
func TestFQCoDelDRRWeightsBySize(t *testing.T) {
	const backlog = 2_000_000 // bytes queued per flow
	for _, sz := range [][2]units.ByteSize{{8960, 1120}, {8960, 1500}, {1500, 64}} {
		t.Run(fmt.Sprintf("%d_%d", sz[0], sz[1]), func(t *testing.T) {
			q := NewFQCoDel(1<<30, false, FQCoDelParams{})
			var fqs [2]*flowQueue
			for i, size := range sz {
				flow := packet.FlowID(i + 1)
				fqs[i] = &q.queues[packet.FlowHash(flow, q.p.Perturb, q.p.Flows)]
				for n := units.ByteSize(0); n < backlog; n += size {
					q.Enqueue(0, mkData(flow, size))
				}
			}
			if fqs[0] == fqs[1] {
				t.Fatal("flows 1 and 2 share a bucket")
			}
			bound := int64(q.p.Quantum + max(sz[0], sz[1]))
			var served [2]int64
			prev, rounds := packet.FlowID(0), 0
			for fqs[0].bytes > 0 && fqs[1].bytes > 0 {
				p := q.Dequeue(0)             // zero sojourn: CoDel never drops
				if p.Flow == 1 && prev == 2 { // flow 2's turn closed a round
					rounds++
					if gap := served[0] - served[1]; gap > bound || -gap > bound {
						t.Fatalf("round %d: served %d vs %d bytes, gap %d > quantum + max packet = %d",
							rounds, served[0], served[1], gap, bound)
					}
				}
				served[p.Flow-1] += int64(p.Size)
				prev = p.Flow
				packet.Release(p)
			}
			if rounds < 100 {
				t.Fatalf("only %d full rounds with both flows backlogged", rounds)
			}
		})
	}
}

func TestFQCoDelOverLimitDropsFromFattest(t *testing.T) {
	q := NewFQCoDel(100_000, false, FQCoDelParams{})
	// Flow 1 is fat, flow 2 thin.
	for i := 0; i < 11; i++ {
		q.Enqueue(0, mkData(1, 8960))
	}
	q.Enqueue(0, mkData(2, 1000))
	// Push it over the 100 KB limit; the victim must come from flow 1.
	q.Enqueue(0, mkData(1, 8960))
	if q.Bytes() > q.Capacity() {
		t.Fatalf("still over limit: %d > %d", q.Bytes(), q.Capacity())
	}
	if q.Stats().Dropped == 0 {
		t.Fatal("expected an over-limit drop")
	}
	// The thin flow's packet must still be there: drain and look for it.
	seen2 := false
	for {
		p := q.Dequeue(0)
		if p == nil {
			break
		}
		if p.Flow == 2 {
			seen2 = true
		}
		packet.Release(p)
	}
	if !seen2 {
		t.Fatal("thin flow's packet was evicted; fat-flow eviction broken")
	}
}

func TestFQCoDelSojournDropping(t *testing.T) {
	// Packets that sat in the queue far longer than target for more than
	// an interval must start being dropped by CoDel.
	q := NewFQCoDel(100_000_000, false, FQCoDelParams{})
	e := sim.Time(0)
	for i := 0; i < 2000; i++ {
		q.Enqueue(e, mkData(1, 8960))
	}
	// Dequeue slowly: every dequeue happens 50ms after the packets went in,
	// so sojourn stays far above the 5ms target.
	now := sim.Duration(50 * time.Millisecond)
	drops0 := q.Stats().Dropped
	for i := 0; i < 1500; i++ {
		now += sim.Duration(2 * time.Millisecond)
		p := q.Dequeue(now)
		if p == nil {
			break
		}
		packet.Release(p)
	}
	if q.Stats().Dropped == drops0 {
		t.Fatal("CoDel never dropped despite persistent 50ms+ sojourn")
	}
}

func TestFQCoDelNoDropsWhenSojournLow(t *testing.T) {
	q := NewFQCoDel(100_000_000, false, FQCoDelParams{})
	now := sim.Time(0)
	for i := 0; i < 5000; i++ {
		q.Enqueue(now, mkData(1, 8960))
		now += sim.Duration(100 * time.Microsecond)
		p := q.Dequeue(now)
		if p == nil {
			t.Fatal("expected a packet")
		}
		packet.Release(p)
	}
	if d := q.Stats().Dropped; d != 0 {
		t.Fatalf("dropped %d packets with sub-target sojourn", d)
	}
}

func TestFQCoDelECNMarks(t *testing.T) {
	q := NewFQCoDel(100_000_000, true, FQCoDelParams{})
	for i := 0; i < 2000; i++ {
		p := mkData(1, 8960)
		p.ECN = packet.ECT0
		q.Enqueue(0, p)
	}
	now := sim.Duration(50 * time.Millisecond)
	marked := 0
	for i := 0; i < 1500; i++ {
		now += sim.Duration(2 * time.Millisecond)
		p := q.Dequeue(now)
		if p == nil {
			break
		}
		if p.ECN == packet.CE {
			marked++
		}
		packet.Release(p)
	}
	if marked == 0 || q.Stats().Marked == 0 {
		t.Fatal("ECN-capable packets should be CE-marked, not dropped")
	}
	if q.Stats().Dropped != 0 {
		t.Fatalf("ECT packets were dropped (%d) despite ECN mode", q.Stats().Dropped)
	}
}

func TestFQCoDelConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		q := NewFQCoDel(200_000, false, FQCoDelParams{})
		now := sim.Time(0)
		deq := 0
		for _, op := range ops {
			now += sim.Time(op)
			if op%4 == 0 {
				if p := q.Dequeue(now); p != nil {
					deq++
					packet.Release(p)
				}
			} else {
				q.Enqueue(now, mkData(packet.FlowID(op%7), units.ByteSize(op%5000)+100))
			}
			if q.Bytes() > q.Capacity() || q.Bytes() < 0 || q.Len() < 0 {
				return false
			}
		}
		s := q.Stats()
		// Offered = dequeued-by-caller + all drops + still queued.
		return s.Enqueued == uint64(deq)+s.Dropped+uint64(q.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFQCoDelBackloggedFlows(t *testing.T) {
	q := NewFQCoDel(10_000_000, false, FQCoDelParams{})
	for f := packet.FlowID(0); f < 20; f++ {
		q.Enqueue(0, mkData(f, 1000))
	}
	if got := q.BackloggedFlows(); got < 15 {
		t.Errorf("BackloggedFlows = %d, want ~20 (some hash collisions allowed)", got)
	}
}

func BenchmarkFQCoDelEnqueueDequeue(b *testing.B) {
	q := NewFQCoDel(1<<30, false, FQCoDelParams{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(sim.Time(i), mkData(packet.FlowID(i%64), 8960))
		if p := q.Dequeue(sim.Time(i)); p != nil {
			packet.Release(p)
		}
	}
}
