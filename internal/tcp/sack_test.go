package tcp

import (
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestSegDequeFind covers both halves of find: the direct index
// (seq − front.seq)/front.len, and the binary search it falls back to when
// the segment at that index does not start at seq.
func TestSegDequeFind(t *testing.T) {
	const mss = 8900
	// segs returns n contiguous MSS segments from seq, then the given tails.
	segs := func(seq int64, n int, tails ...int64) []seg {
		var out []seg
		for i := 0; i < n; i++ {
			out = append(out, seg{seq: seq, len: mss})
			seq += mss
		}
		for _, l := range tails {
			out = append(out, seg{seq: seq, len: l})
			seq += l
		}
		return out
	}
	cases := []struct {
		name   string
		rotate int // segments pushed and popped first, so the ring wraps
		segs   []seg
		misses []int64
	}{
		{name: "index hit on a wrapped ring", rotate: 40, segs: segs(1_000_000, 50)},
		{name: "short final segment under LimitBytes", segs: segs(0, 20, 1234)},
		{name: "seq below the front", rotate: 10, segs: segs(10*mss, 10),
			misses: []int64{0, 9 * mss, 10*mss - 1}},
		{name: "seq past the back", segs: segs(0, 10, 100),
			misses: []int64{10*mss + 100, 11 * mss, 1 << 40}},
		{name: "seq between segments", rotate: 13, segs: segs(0, 10),
			misses: []int64{1, mss - 1, 5*mss + 60, 9*mss + 1}},
		{name: "short front: index past the end, fallback", segs: segs(0, 0, 100, mss, mss, mss, mss, mss)},
		{name: "long front: index on the wrong segment, fallback", rotate: 30,
			segs: segs(0, 1, 100, 100, 100, 60, mss), misses: []int64{mss + 50, mss + 301}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d segDeque
			if d.find(0) != nil {
				t.Fatal("find on an empty deque")
			}
			for i := 0; i < tc.rotate; i++ {
				d.push(-1, mss)
			}
			for i := 0; i < tc.rotate; i++ {
				d.pop()
			}
			for _, s := range tc.segs {
				d.push(s.seq, s.len)
			}
			if tc.rotate > 0 && d.head+d.n <= len(d.buf) {
				t.Fatalf("ring does not wrap: head %d, %d segments, capacity %d", d.head, d.n, len(d.buf))
			}
			for i, want := range tc.segs {
				if s := d.find(want.seq); s != d.at(i) || *s != want {
					t.Errorf("find(%d) = %+v, want segment %d, %+v", want.seq, s, i, want)
				}
			}
			for _, seq := range tc.misses {
				if s := d.find(seq); s != nil {
					t.Errorf("find(%d) = segment at %d, want nil", seq, s.seq)
				}
			}
		})
	}
}

// TestNoSpuriousRetransmissions: with SACK-accurate loss detection, the
// retransmission count must closely track the actual drop count — delivered
// segments above a hole must never be resent.
func TestNoSpuriousRetransmissions(t *testing.T) {
	cc := &stubCC{fixedCwnd: 200 * 8900}
	n := newTestNet(t, 100*units.MegabitPerSec, 31*time.Millisecond,
		aqm.NewFIFO(30*8960), cc, Config{})
	n.conn.Start()
	n.eng.RunFor(20 * time.Second)
	drops := n.bott.Queue().Stats().Dropped
	rtx := n.conn.Stats().Retransmits
	if drops == 0 {
		t.Skip("no drops in this configuration")
	}
	// Every drop needs one retransmission; re-drops of retransmissions add
	// a few more. More than 1.5× indicates spurious marking.
	if float64(rtx) > 1.5*float64(drops)+10 {
		t.Fatalf("spurious retransmissions: %d rtx for %d drops", rtx, drops)
	}
	if rtx < uint64(float64(drops)*0.8) {
		t.Fatalf("missing retransmissions: %d rtx for %d drops", rtx, drops)
	}
}

// TestInjectedLossRecovery: random 1% wire loss (not queue drops) must be
// recovered exactly, with goodput intact and retransmissions ≈ losses.
func TestInjectedLossRecovery(t *testing.T) {
	eng := sim.NewEngine(1)
	cc := &stubCC{fixedCwnd: 64 * 8900}
	back := netem.NewPort(eng, "back", 100*units.GigabitPerSec, 5*time.Millisecond, nil, nil)
	fwd := netem.NewPort(eng, "fwd", 1*units.GigabitPerSec, 5*time.Millisecond, aqm.NewFIFO(1<<30), nil)
	fwd.SetLoss(0.01)
	conn := NewConn(eng, 1, Config{LimitBytes: 20_000_000}, cc, func(p *packet.Packet) { fwd.Send(p) })
	rcv := NewReceiver(eng, 1, 60, func(p *packet.Packet) { back.Send(p) })
	fwd.SetDst(rcv)
	back.SetDst(conn)
	done := false
	conn.OnDone(func(*Conn) { done = true })
	conn.Start()
	eng.RunFor(60 * time.Second)
	if !done {
		t.Fatalf("transfer incomplete: acked %d/20000000", conn.Stats().BytesAcked)
	}
	if rcv.Goodput() != 20_000_000 {
		t.Fatalf("goodput %d", rcv.Goodput())
	}
	lost := fwd.LossDrops()
	rtx := conn.Stats().Retransmits
	if rtx < lost || float64(rtx) > 1.6*float64(lost)+10 {
		t.Fatalf("rtx %d vs injected losses %d", rtx, lost)
	}
}

// TestSackedSegmentNotRetransmittedOnRTO: segments known delivered must not
// be resent even when the RTO fires and everything else is.
func TestSackedSegmentNotRetransmittedOnRTO(t *testing.T) {
	eng := sim.NewEngine(1)
	cc := &stubCC{fixedCwnd: 8 * 8900}
	var delivered []int64
	// Custom path: drop the FIRST data packet only, deliver the rest, then
	// blackhole all ACKs after the dupacks so the sender must RTO.
	dropFirst := true
	ackCount := 0
	var conn *Conn
	var rcv *Receiver
	rcv = NewReceiver(eng, 1, 60, func(p *packet.Packet) {
		ackCount++
		if ackCount > 5 {
			packet.Release(p) // blackhole later ACKs to force RTO
			return
		}
		a := p
		eng.Schedule(time.Millisecond, func() { conn.Receive(eng.Now(), a) })
	})
	inject := func(p *packet.Packet) {
		if dropFirst && p.Kind == packet.Data && p.Seq == 0 && !p.Retrans {
			dropFirst = false
			packet.Release(p)
			return
		}
		if p.Kind == packet.Data {
			delivered = append(delivered, p.Seq)
		}
		d := p
		eng.Schedule(time.Millisecond, func() { rcv.Receive(eng.Now(), d) })
	}
	conn = NewConn(eng, 1, Config{LimitBytes: 8 * 8900}, cc, inject)
	conn.Start()
	eng.RunFor(5 * time.Second)

	// Count duplicate deliveries of segments 1..4 (they were SACKed before
	// the blackhole; the RTO should resend seq 0 and the un-SACKed tail,
	// not the SACKed ones again and again).
	seen := map[int64]int{}
	for _, s := range delivered {
		seen[s]++
	}
	for seq, cnt := range seen {
		if seq >= 8900 && seq < 5*8900 && cnt > 2 {
			t.Errorf("SACKed segment %d delivered %d times", seq, cnt)
		}
	}
}

// TestReceiverDuplicateAccounting: duplicates must be counted and not
// corrupt goodput.
func TestReceiverDuplicateAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	var acks []*packet.Packet
	rcv := NewReceiver(eng, 1, 60, func(p *packet.Packet) { acks = append(acks, p) })
	mk := func(seq int64) *packet.Packet {
		p := packet.New()
		p.Kind = packet.Data
		p.Flow = 1
		p.Seq = seq
		p.DataLen = 100
		p.Size = 160
		return p
	}
	rcv.Receive(0, mk(0))
	rcv.Receive(0, mk(0)) // duplicate in-order
	rcv.Receive(0, mk(300))
	rcv.Receive(0, mk(300)) // duplicate out-of-order
	rcv.Receive(0, mk(100))
	rcv.Receive(0, mk(200)) // fills the hole; merges 300
	if got := rcv.Goodput(); got != 400 {
		t.Fatalf("goodput = %d, want 400", got)
	}
	if rcv.DupSegments() != 2 {
		t.Fatalf("dups = %d, want 2", rcv.DupSegments())
	}
	if rcv.BytesIn() != 600 {
		t.Fatalf("bytesIn = %d, want 600", rcv.BytesIn())
	}
	// Last ACK must cumulatively cover everything.
	last := acks[len(acks)-1]
	if last.CumAck != 400 {
		t.Fatalf("final cumack = %d", last.CumAck)
	}
	for _, a := range acks {
		packet.Release(a)
	}
}

// TestNonDataToReceiverIgnored: stray ACKs arriving at a receiver are
// dropped without effect.
func TestNonDataToReceiverIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	sent := 0
	rcv := NewReceiver(eng, 1, 60, func(p *packet.Packet) { sent++; packet.Release(p) })
	a := packet.New()
	a.Kind = packet.Ack
	rcv.Receive(0, a)
	if sent != 0 || rcv.Goodput() != 0 {
		t.Fatal("ACK should be ignored by receiver")
	}
}

// TestConnIgnoresDataPackets: stray data packets arriving at a sender are
// dropped without effect.
func TestConnIgnoresDataPackets(t *testing.T) {
	eng := sim.NewEngine(1)
	cc := &stubCC{fixedCwnd: 8900}
	conn := NewConn(eng, 1, Config{}, cc, func(p *packet.Packet) { packet.Release(p) })
	d := packet.New()
	d.Kind = packet.Data
	conn.Receive(0, d)
	if conn.Stats().Acks != 0 {
		t.Fatal("data packet counted as ACK")
	}
}
