package aqm

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func mkData(flow packet.FlowID, size units.ByteSize) *packet.Packet {
	p := packet.New()
	p.Kind = packet.Data
	p.Flow = flow
	p.Size = size
	return p
}

func TestFIFOBasicOrder(t *testing.T) {
	q := NewFIFO(100_000)
	for i := 0; i < 5; i++ {
		p := mkData(packet.FlowID(i), 1000)
		p.Seq = int64(i)
		if !q.Enqueue(0, p) {
			t.Fatalf("enqueue %d dropped", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 5000 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	for i := 0; i < 5; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d got %v", i, p)
		}
		packet.Release(p)
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestFIFOTailDrop(t *testing.T) {
	q := NewFIFO(2500)
	if !q.Enqueue(0, mkData(1, 1000)) || !q.Enqueue(0, mkData(1, 1000)) {
		t.Fatal("first two should fit")
	}
	if q.Enqueue(0, mkData(1, 1000)) {
		t.Fatal("third should be tail-dropped")
	}
	s := q.Stats()
	if s.Dropped != 1 || s.Enqueued != 2 || s.DroppedBytes != 1000 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFIFONeverExceedsCapacity(t *testing.T) {
	// Property: under any arrival/departure pattern, occupancy <= capacity.
	f := func(ops []uint8) bool {
		q := NewFIFO(10_000)
		for _, op := range ops {
			if op%3 == 0 {
				p := q.Dequeue(0)
				if p != nil {
					packet.Release(p)
				}
			} else {
				q.Enqueue(0, mkData(1, units.ByteSize(op%50)*100+100))
			}
			if q.Bytes() > q.Capacity() {
				return false
			}
			if q.Bytes() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFIFOConservation(t *testing.T) {
	// enqueued = dequeued + still queued, drops accounted separately.
	q := NewFIFO(50_000)
	enq := 0
	for i := 0; i < 100; i++ {
		if q.Enqueue(0, mkData(1, 1000)) {
			enq++
		}
		if i%3 == 0 {
			if p := q.Dequeue(0); p != nil {
				packet.Release(p)
			}
		}
	}
	s := q.Stats()
	if int(s.Enqueued) != enq {
		t.Fatalf("enqueued %d vs %d", s.Enqueued, enq)
	}
	if int(s.Dequeued)+q.Len() != enq {
		t.Fatalf("conservation: deq %d + len %d != enq %d", s.Dequeued, q.Len(), enq)
	}
}

func TestRingGrowth(t *testing.T) {
	var r ring[*packet.Packet]
	const n = 1000
	for i := 0; i < n; i++ {
		p := packet.New()
		p.Seq = int64(i)
		r.push(p)
	}
	// Interleave pops and pushes to exercise wraparound.
	for i := 0; i < 500; i++ {
		p := r.pop()
		if p.Seq != int64(i) {
			t.Fatalf("pop %d got %d", i, p.Seq)
		}
		packet.Release(p)
	}
	for i := 0; i < 500; i++ {
		p := packet.New()
		p.Seq = int64(n + i)
		r.push(p)
	}
	for i := 500; i < n+500; i++ {
		p := r.pop()
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("pop %d got %v", i, p)
		}
		packet.Release(p)
	}
	if r.pop() != nil || r.len() != 0 {
		t.Fatal("ring should be empty")
	}
}

func TestRingPeek(t *testing.T) {
	var r ring[*packet.Packet]
	if r.front() != nil {
		t.Fatal("front on empty should be nil")
	}
	p := packet.New()
	p.Seq = 42
	r.push(p)
	if got := r.front(); got == nil || got.Seq != 42 {
		t.Fatalf("front got %v", got)
	}
	if r.len() != 1 {
		t.Fatal("front must not consume")
	}
	packet.Release(r.pop())
}

func TestFIFOEnqueueTimestamps(t *testing.T) {
	q := NewFIFO(10_000)
	now := sim.Time(12345)
	q.Enqueue(now, mkData(1, 500))
	p := q.Dequeue(now + 10)
	if p.EnqueueAt != now {
		t.Errorf("EnqueueAt = %d, want %d", p.EnqueueAt, now)
	}
	packet.Release(p)
}

func BenchmarkFIFOEnqueueDequeue(b *testing.B) {
	q := NewFIFO(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(sim.Time(i), mkData(1, 8960))
		packet.Release(q.Dequeue(sim.Time(i)))
	}
}
