package aqm

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// FuzzAQMQueueOps drives every discipline with an arbitrary interleaving of
// enqueues (varying sizes and flow IDs), dequeues, idle gaps, and ECN — the
// byte stream is the op schedule. After every operation the universal queue
// invariants must hold (occupancy within [0, capacity], offered = dequeued +
// dropped + queued) and the discipline's own SelfCheck must pass; after a
// full drain the books must close exactly.
func FuzzAQMQueueOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2, 2})
	f.Add([]byte{1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15})
	f.Add([]byte("enqueue a lot then drain and check the books"))
	burst := make([]byte, 256)
	for i := range burst {
		burst[i] = byte(i * 7) // mixed ops, sizes and flows
	}
	f.Add(burst)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []Kind{KindFIFO, KindRED, KindCoDel, KindFQCoDel} {
			for _, ecn := range []bool{false, true} {
				fuzzQueueStream(t, kind, ecn, data)
			}
		}
	})
}

func fuzzQueueStream(t *testing.T, kind Kind, ecn bool, data []byte) {
	t.Helper()
	q, err := New(Config{
		Kind:     kind,
		Capacity: 30_000,
		ECN:      ecn,
		RED:      REDParams{Seed: 42},
		FQCoDel:  FQCoDelParams{Perturb: 42, Flows: 16}, // few buckets: force flow collisions
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := q.(SelfChecker)
	now := sim.Time(0)
	var offered uint64

	checkOp := func(op string) {
		if b := q.Bytes(); b < 0 || b > q.Capacity() {
			t.Fatalf("%s/%v after %s: occupancy %d outside [0, %d] (input %x)",
				kind, ecn, op, b, q.Capacity(), data)
		}
		if q.Len() < 0 {
			t.Fatalf("%s/%v after %s: negative length %d", kind, ecn, op, q.Len())
		}
		st := q.Stats()
		if acc := st.Dequeued + st.Dropped + uint64(q.Len()); offered != acc {
			t.Fatalf("%s/%v after %s: offered=%d != dequeued=%d + dropped=%d + queued=%d (input %x)",
				kind, ecn, op, offered, st.Dequeued, st.Dropped, q.Len(), data)
		}
		if err := sc.SelfCheck(); err != nil {
			t.Fatalf("%s/%v after %s: %v (input %x)", kind, ecn, op, err, data)
		}
	}

	for _, b := range data {
		// Time advances with the stream so CoDel's sojourn law engages on
		// slow-drain patterns and stays dormant on fast ones.
		now += sim.Time(b) * sim.Time(50_000) // up to 12.75 ms per op
		switch b % 3 {
		case 0, 1: // enqueue, two-thirds of ops: queues must saturate
			p := packet.New()
			p.Kind = packet.Data
			p.Flow = packet.FlowID(b >> 3)
			p.Size = units.ByteSize(64 + int(b)*23)
			if ecn {
				p.ECN = packet.ECT0
			}
			offered++
			q.Enqueue(now, p)
			checkOp("enqueue")
		case 2:
			if p := q.Dequeue(now); p != nil {
				packet.Release(p)
			}
			checkOp("dequeue")
		}
	}

	// Drain and close the books: every packet ever offered is now either
	// dequeued or dropped, and the empty queue holds zero bytes.
	for {
		p := q.Dequeue(now)
		if p == nil {
			break
		}
		packet.Release(p)
		now += sim.Time(10_000)
		checkOp("drain")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("%s/%v drained to len=%d bytes=%d", kind, ecn, q.Len(), q.Bytes())
	}
	st := q.Stats()
	if st.Dequeued+st.Dropped != offered {
		t.Fatalf("%s/%v final books: dequeued=%d + dropped=%d != offered=%d",
			kind, ecn, st.Dequeued, st.Dropped, offered)
	}
	if err := sc.SelfCheck(); err != nil {
		t.Fatalf("%s/%v after drain: %v", kind, ecn, err)
	}
}

// TestSelfCheckDetectsCorruption corrupts one internal structure at a time
// and requires SelfCheck to report it as an error rather than pass or panic.
func TestSelfCheckDetectsCorruption(t *testing.T) {
	fifo := func() *FIFO {
		q := NewFIFO(100_000)
		q.Enqueue(0, mkData(1, 1000))
		return q
	}
	fq := func() *FQCoDel {
		q := NewFQCoDel(100_000, false, FQCoDelParams{Flows: 16})
		q.Enqueue(0, mkData(1, 1000))
		return q
	}
	for _, tc := range []struct {
		name string
		q    func() SelfChecker
	}{
		{"buffer bytes", func() SelfChecker { q := fifo(); q.bytes++; return q }},
		{"buffer balance", func() SelfChecker { q := fifo(); q.stats.Enqueued++; return q }},
		{"codel door drops", func() SelfChecker { q := NewCoDel(1000, false, CoDelParams{}); q.doorDrops++; return q }},
		{"fq_codel list index", func() SelfChecker { q := fq(); q.oldFlows.push(99); return q }},
		{"fq_codel list duplicate", func() SelfChecker { q := fq(); q.newFlows.push(q.newFlows.front()); return q }},
		{"fq_codel list state", func() SelfChecker { q := fq(); q.queues[q.newFlows.front()].state = fqOld; return q }},
	} {
		if err := tc.q().SelfCheck(); err == nil {
			t.Errorf("%s: corruption not reported", tc.name)
		}
	}
}
