package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPoolReuseZeroes(t *testing.T) {
	pool := NewPool(nil)
	p := pool.New()
	p.Seq = 99
	p.Flow = 7
	p.Retrans = true
	Release(p)
	q := pool.New()
	if q != p {
		t.Fatal("pool did not reuse the released packet")
	}
	if q.Seq != 0 || q.Flow != 0 || q.Retrans || q.free || q.owner != pool {
		t.Fatalf("pooled packet not zeroed: %+v", q)
	}
	Release(q)
	Release(nil) // must not panic
}

// TestPacketSize: the pool's bookkeeping fits the 112-byte size class, with
// the free flag in AppLimited's tail padding and the forwarding fields in
// the first cache line.
func TestPacketSize(t *testing.T) {
	var p Packet
	if got := unsafe.Sizeof(p); got != 112 {
		t.Errorf("Packet is %d bytes, want 112", got)
	}
	if off := unsafe.Offsetof(p.free); off != unsafe.Offsetof(p.AppLimited)+1 {
		t.Errorf("free flag at offset %d, want right after AppLimited", off)
	}
	if end := unsafe.Offsetof(p.EnqueueAt) + unsafe.Sizeof(p.EnqueueAt); end > 64 {
		t.Errorf("forwarding fields end at byte %d, past the first cache line", end)
	}
}

// TestDoubleReleasePanicsUnaudited: without an auditor a double release
// still refuses to put one packet on the free stack twice.
func TestDoubleReleasePanicsUnaudited(t *testing.T) {
	pool := NewPool(nil)
	p := pool.New()
	Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
		if n := len(pool.free); n != pool.total {
			t.Fatalf("free stack holds %d of %d packets", n, pool.total)
		}
	}()
	Release(p)
}

func TestString(t *testing.T) {
	d := &Packet{Kind: Data, Flow: 3, Seq: 100, DataLen: 8900}
	if got := d.String(); got != "data{flow=3 seq=100 len=8900}" {
		t.Errorf("data String = %q", got)
	}
	a := &Packet{Kind: Ack, Flow: 3, CumAck: 9000}
	if got := a.String(); got != "ack{flow=3 cum=9000}" {
		t.Errorf("ack String = %q", got)
	}
}

func TestFlowHashInRange(t *testing.T) {
	f := func(flow uint32, perturb uint64, nb uint16) bool {
		n := int(nb%2048) + 1
		h := FlowHash(FlowID(flow), perturb, n)
		return h >= 0 && h < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowHashDeterministic(t *testing.T) {
	if FlowHash(5, 1, 1024) != FlowHash(5, 1, 1024) {
		t.Error("hash not deterministic")
	}
}

func TestFlowHashDisperses(t *testing.T) {
	// 500 flows into 1024 buckets should mostly avoid collisions.
	buckets := map[int]int{}
	for f := FlowID(0); f < 500; f++ {
		buckets[FlowHash(f, 42, 1024)]++
	}
	max := 0
	for _, c := range buckets {
		if c > max {
			max = c
		}
	}
	if max > 5 {
		t.Errorf("hash badly skewed: max bucket load %d", max)
	}
	if len(buckets) < 300 {
		t.Errorf("hash collides too much: only %d distinct buckets", len(buckets))
	}
}

func TestFlowHashPerturbationChangesMapping(t *testing.T) {
	moved := 0
	for f := FlowID(0); f < 200; f++ {
		if FlowHash(f, 1, 1024) != FlowHash(f, 2, 1024) {
			moved++
		}
	}
	if moved < 150 {
		t.Errorf("perturbation barely changes mapping: %d/200 moved", moved)
	}
}

func TestFlowHashSingleBucket(t *testing.T) {
	if FlowHash(123, 9, 1) != 0 || FlowHash(123, 9, 0) != 0 {
		t.Error("degenerate bucket counts must map to 0")
	}
}

func BenchmarkPoolCycle(b *testing.B) {
	b.ReportAllocs()
	pool := NewPool(nil)
	for i := 0; i < b.N; i++ {
		p := pool.New()
		p.Seq = int64(i)
		Release(p)
	}
}

func BenchmarkFlowHash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FlowHash(FlowID(i), 42, 1024)
	}
}
