package tcp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// frontScan is markLost without its cursor: it walks the scoreboard from
// the front, skipping lost and SACKed segments, and marks lost every one
// sent before trigSentAt up to the first that was not. It returns the
// bytes marked and the marked sequence numbers in marking order.
func frontScan(segs []seg, trigSentAt sim.Time) (int64, []int64) {
	var bytes int64
	var marked []int64
	for i := range segs {
		s := &segs[i]
		if s.lost || s.sacked {
			continue
		}
		if s.lastSentAt >= trigSentAt {
			break
		}
		s.lost = true
		bytes += s.len
		marked = append(marked, s.seq)
	}
	return bytes, marked
}

// scoreboard copies the connection's outstanding segments, front first.
func scoreboard(c *Conn) []seg {
	out := make([]seg, c.segs.len())
	for i := range out {
		out[i] = *c.segs.at(i)
	}
	return out
}

// TestMarkLostMatchesFrontScan drives a connection's scoreboard through
// random sends and retransmissions (trySend), SACKs, cumulative ACKs that
// wrap the ring, and RTOs, and checks every markLost call against a scan
// from the front of a copy: the same bytes marked, the same rtxQ entries
// in the same order, and the same scoreboard afterwards. A retransmission
// must rewind the loss cursor; without the rewind a lost retransmission
// below the cursor is never marked again and this test fails.
func TestMarkLostMatchesFrontScan(t *testing.T) {
	var calls, remarked int
	for seed := uint64(1); seed <= 20; seed++ {
		eng := sim.NewEngine(seed)
		rng := sim.NewRNG(seed)
		c := NewConn(eng, 1, Config{}, &stubCC{}, packet.Release)
		c.Start()
		for step := 0; step < 2000; step++ {
			// Distinct send times, all far inside the 1 s initial RTO.
			eng.RunFor(time.Microsecond)
			switch op := rng.Intn(10); {
			case op < 3: // send: retransmissions first, then new data
				c.SetCwnd(c.inflight + int64(1+rng.Intn(8))*c.MSS())
				c.trySend()
			case op < 5: // SACK a random outstanding segment
				if n := c.segs.len(); n > 0 {
					if s := c.segs.at(rng.Intn(n)); !s.sacked {
						s.sacked = true
						if s.lost {
							s.lost = false
						} else {
							c.inflight -= s.len
						}
					}
				}
			case op < 6: // cumulative ACK of up to three front segments
				for k := rng.Intn(4); k > 0 && c.segs.len() > 0; k-- {
					s := c.segs.front()
					if !s.lost && !s.sacked {
						c.inflight -= s.len
					}
					c.sndUna = s.seq + s.len
					c.segs.pop()
				}
			case op < 7:
				if rng.Intn(20) == 0 {
					c.onRTO()
				}
			default:
				want := scoreboard(c)
				trig := sim.Time(1 + rng.Intn(int(eng.Now())))
				wantBytes, wantQ := frontScan(want, trig)
				q0 := c.rtxQ.len()
				got := c.markLost(trig)
				calls++
				if got != wantBytes || !slices.Equal(c.rtxQ.buf[c.rtxQ.head+q0:], wantQ) {
					t.Fatalf("seed %d step %d: markLost(%d) marked %d bytes, rtxQ += %v; front scan marks %d bytes, %v",
						seed, step, trig, got, c.rtxQ.buf[c.rtxQ.head+q0:], wantBytes, wantQ)
				}
				if have := scoreboard(c); !slices.Equal(have, want) {
					t.Fatalf("seed %d step %d: scoreboard after markLost differs from the front scan's:\n got  %+v\n want %+v",
						seed, step, have, want)
				}
				for _, s := range want {
					if s.lost && s.sentCount > 1 && slices.Contains(wantQ, s.seq) {
						remarked++
					}
				}
			}
		}
	}
	if calls < 1000 || remarked < 100 {
		t.Fatalf("weak run: %d markLost calls, %d lost retransmissions re-marked", calls, remarked)
	}
}

// mapModel is the receiver's out-of-order bookkeeping as a map from
// segment start to length, the reference the span list must match.
type mapModel struct {
	rcvNxt, bytesIn int64
	dups            uint64
	ooo             map[int64]int64
}

func (m *mapModel) receive(seq, n int64) {
	m.bytesIn += n
	switch {
	case seq == m.rcvNxt:
		m.rcvNxt += n
		for {
			l, ok := m.ooo[m.rcvNxt]
			if !ok {
				break
			}
			delete(m.ooo, m.rcvNxt)
			m.rcvNxt += l
		}
	case seq > m.rcvNxt:
		if _, dup := m.ooo[seq]; dup {
			m.dups++
		} else {
			m.ooo[seq] = n
		}
	default:
		m.dups++
	}
}

// TestReceiverSpansMatchMapModel feeds random arrival permutations of a
// transfer's segments, with retransmitted copies of random segments mixed
// in, to a Receiver and to mapModel; Goodput, DupSegments and BytesIn must
// agree after every arrival. A span list that stops joining a new segment
// with the span just above it leaves adjacent spans unmerged, and the
// in-order merge then stops short.
func TestReceiverSpansMatchMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		// Segment boundaries are fixed per transfer: mostly one MSS,
		// with short segments mixed in.
		var starts, lens []int64
		var total int64
		for i := 0; i < 64; i++ {
			l := int64(8900)
			if rng.Intn(5) == 0 {
				l = int64(1 + rng.Intn(8900))
			}
			starts, lens = append(starts, total), append(lens, l)
			total += l
		}
		order := make([]int, len(starts))
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		for k := 0; k < 32; k++ {
			at := rng.Intn(len(order) + 1)
			order = slices.Insert(order, at, rng.Intn(len(starts)))
		}

		eng := sim.NewEngine(seed)
		r := NewReceiver(eng, 1, 60, packet.Release)
		m := &mapModel{ooo: make(map[int64]int64)}
		for k, i := range order {
			p := packet.New()
			p.Kind = packet.Data
			p.Seq, p.DataLen = starts[i], lens[i]
			r.Receive(eng.Now(), p)
			m.receive(starts[i], lens[i])
			if r.Goodput() != m.rcvNxt || r.DupSegments() != m.dups || r.BytesIn() != m.bytesIn {
				t.Fatalf("seed %d arrival %d (segment %d at %d): goodput %d, dups %d, bytes in %d; map model %d, %d, %d",
					seed, k, i, starts[i], r.Goodput(), r.DupSegments(), r.BytesIn(), m.rcvNxt, m.dups, m.bytesIn)
			}
		}
		if r.Goodput() != total || len(r.ooo) != 0 {
			t.Fatalf("seed %d: goodput %d of %d with %d spans left", seed, r.Goodput(), total, len(r.ooo))
		}
	}
}
