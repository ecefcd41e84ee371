package tcp

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// stateDiff lists every leaf where got differs from want, walking structs,
// arrays and slices field by field (a slice by length and contents, never
// by capacity). Pointers, funcs and interfaces holding pointers compare by
// identity, except that a pointer to the value's own root (a timer's
// handler is its connection) matches a pointer to the other root.
func stateDiff(got, want any) []string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	d := differ{gotRoot: g.Pointer(), wantRoot: w.Pointer()}
	d.walk("", g.Elem(), w.Elem())
	return d.diffs
}

type differ struct {
	gotRoot, wantRoot uintptr
	diffs             []string
}

func (d *differ) walk(path string, g, w reflect.Value) {
	differ := func(format string, args ...any) {
		d.diffs = append(d.diffs, path+": "+fmt.Sprintf(format, args...))
	}
	switch g.Kind() {
	case reflect.Struct:
		for i := 0; i < g.NumField(); i++ {
			d.walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
		}
	case reflect.Array:
		for i := 0; i < g.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
		}
	case reflect.Slice:
		if g.Len() != w.Len() {
			differ("len %d, want %d", g.Len(), w.Len())
			return
		}
		for i := 0; i < g.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
		}
	case reflect.Interface:
		if g.IsNil() || w.IsNil() {
			if g.IsNil() != w.IsNil() {
				differ("nil %v, want nil %v", g.IsNil(), w.IsNil())
			}
			return
		}
		if g.Elem().Type() != w.Elem().Type() {
			differ("holds %v, want %v", g.Elem().Type(), w.Elem().Type())
			return
		}
		d.walk(path, g.Elem(), w.Elem())
	case reflect.Pointer, reflect.Func, reflect.Map, reflect.Chan, reflect.UnsafePointer:
		gp, wp := g.Pointer(), w.Pointer()
		if gp != wp && (gp != d.gotRoot || wp != d.wantRoot) {
			differ("points at %#x, want %#x", gp, wp)
		}
	case reflect.Bool:
		if g.Bool() != w.Bool() {
			differ("%v, want %v", g.Bool(), w.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if g.Int() != w.Int() {
			differ("%d, want %d", g.Int(), w.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if g.Uint() != w.Uint() {
			differ("%d, want %d", g.Uint(), w.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if g.Float() != w.Float() {
			differ("%v, want %v", g.Float(), w.Float())
		}
	case reflect.String:
		if g.String() != w.String() {
			differ("%q, want %q", g.String(), w.String())
		}
	default:
		differ("unhandled kind %v", g.Kind())
	}
}

// pacedCC is stubCC that also paces, so the pacing timer runs, and sets a
// slow-start threshold on loss.
type pacedCC struct{ stubCC }

func (p *pacedCC) OnAck(c *Conn, a AckSample) {
	p.stubCC.OnAck(c, a)
	c.SetPacingRate(units.GigabitPerSec)
}

func (p *pacedCC) OnCongestionEvent(c *Conn) {
	p.stubCC.OnCongestionEvent(c)
	c.SetSSThresh(c.Cwnd() / 2)
}

// dirtyPair runs one flow through loss, SACK, out-of-order arrivals,
// delayed ACKs and a blackhole that backs the RTO off several times, then
// releases it the way topo.ReleaseFlow does (Stop, Close). The returned
// inject funcs are the ones the caller re-initialises with, so a fresh
// pair built with them compares equal field by field.
func dirtyPair(t *testing.T) (eng *sim.Engine, conn *Conn, rcv *Receiver, fwd, ret func(*packet.Packet)) {
	t.Helper()
	eng = sim.NewEngine(1)
	blackhole := false
	fwd = func(p *packet.Packet) {
		// Every seventh first transmission is lost: the segments above
		// it arrive out of order and are SACKed.
		if blackhole || (!p.Retrans && p.Seq/8900%7 == 3) {
			packet.Release(p)
			return
		}
		eng.Schedule(time.Millisecond, func() { rcv.Receive(eng.Now(), p) })
	}
	ret = func(p *packet.Packet) {
		if blackhole {
			packet.Release(p)
			return
		}
		eng.Schedule(time.Millisecond, func() { conn.Receive(eng.Now(), p) })
	}
	cc := &pacedCC{stubCC{fixedCwnd: 32 * 8900}}
	conn = NewConn(eng, 1, Config{LimitBytes: 400 * 8900, ECN: true, DelayedAck: true}, cc, fwd)
	rcv = NewDelayedAckReceiver(eng, 1, 0, ret)
	conn.Start()
	eng.RunFor(30 * time.Millisecond)
	blackhole = true
	eng.RunFor(5 * time.Second) // drains every packet in flight, then RTOs back off

	st := conn.Stats()
	if st.RTOs < 3 || st.Retransmits == 0 || st.CongEvents == 0 {
		t.Fatalf("rig too clean: %+v", st)
	}
	if conn.segs.len() == 0 || conn.rtxQ.len() == 0 || len(rcv.ooo) == 0 || rcv.dupSegments+rcv.acksSent == 0 {
		t.Fatalf("rig too clean: %d outstanding, %d queued for retransmission, %d out-of-order spans",
			conn.segs.len(), conn.rtxQ.len(), len(rcv.ooo))
	}
	if !conn.rtoTimer.Pending() {
		t.Fatal("rig ended with no RTO pending")
	}
	conn.Stop()
	rcv.Close()
	return eng, conn, rcv, fwd, ret
}

// mentions reports whether some diff starts at one of the given fields.
func mentions(diffs []string, field string) bool {
	return slices.ContainsFunc(diffs, func(d string) bool { return strings.HasPrefix(d, "."+field) })
}

// TestConnReinitMatchesNewConn: a sender re-initialised after loss, SACK,
// RTO backoff and pacing reads field by field exactly as NewConn builds one
// on the same engine, and keeps its segment ring's capacity.
func TestConnReinitMatchesNewConn(t *testing.T) {
	eng, conn, _, fwd, _ := dirtyPair(t)
	cfg := Config{MSS: 1460, InitialCwnd: 4, LimitBytes: 50_000}
	cc := &stubCC{}
	fresh := NewConn(eng, 9, cfg, cc, fwd)

	// The comparison must see the dirt it is meant to clear.
	dirty := stateDiff(conn, fresh)
	for _, f := range []string{"id", "cfg", "cc", "segs", "rtxQ", "cwnd", "ssthresh", "pacingRate",
		"nextSendAt", "rtt", "delivered", "roundCount", "stats", "started", "stopped"} {
		if !mentions(dirty, f) {
			t.Errorf("dirty sender does not differ from a fresh one in %s", f)
		}
	}

	ringCap := cap(conn.segs.buf)
	conn.Reinit(9, cfg, cc, fwd)
	// The ring's buffer length is its capacity; its contents are the n
	// entries from head, none after Reinit.
	diffs := slices.DeleteFunc(stateDiff(conn, fresh), func(d string) bool {
		return strings.HasPrefix(d, ".segs.buf")
	})
	if len(diffs) > 0 {
		t.Fatalf("re-initialised sender differs from NewConn:\n%s", strings.Join(diffs, "\n"))
	}
	if cap(conn.segs.buf) != ringCap || ringCap == 0 {
		t.Fatalf("segment ring capacity %d → %d, want it kept", ringCap, cap(conn.segs.buf))
	}
}

// TestReceiverReinitMatchesNewReceiver: a receiver re-initialised after
// out-of-order arrivals, duplicates and delayed ACKs reads field by field
// exactly as a freshly built one, with either ACK policy, and keeps its
// span list's capacity.
func TestReceiverReinitMatchesNewReceiver(t *testing.T) {
	for _, delayAck := range []bool{false, true} {
		t.Run(fmt.Sprintf("delayAck=%v", delayAck), func(t *testing.T) {
			eng, _, rcv, _, ret := dirtyPair(t)
			mk := NewReceiver
			if delayAck {
				mk = NewDelayedAckReceiver
			}
			fresh := mk(eng, 9, 40, ret)

			dirty := stateDiff(rcv, fresh)
			for _, f := range []string{"flow", "hdr", "rcvNxt", "ooo", "bytesIn", "pendingAck", "delTimer", "acksSent"} {
				if !mentions(dirty, f) {
					t.Errorf("dirty receiver does not differ from a fresh one in %s", f)
				}
			}

			spanCap := cap(rcv.ooo)
			rcv.Reinit(9, 40, delayAck, ret)
			if diffs := stateDiff(rcv, fresh); len(diffs) > 0 {
				t.Fatalf("re-initialised receiver differs from a fresh one:\n%s", strings.Join(diffs, "\n"))
			}
			if cap(rcv.ooo) != spanCap || spanCap == 0 {
				t.Fatalf("span list capacity %d → %d, want it kept", spanCap, cap(rcv.ooo))
			}
		})
	}
}

// TestReinitFlowCompletes: a recycled pair carries a new transfer to
// completion exactly as far as a fresh pair does.
func TestReinitFlowCompletes(t *testing.T) {
	eng, conn, rcv, _, _ := dirtyPair(t)
	fwd := func(p *packet.Packet) { eng.Schedule(time.Millisecond, func() { rcv.Receive(eng.Now(), p) }) }
	ret := func(p *packet.Packet) { eng.Schedule(time.Millisecond, func() { conn.Receive(eng.Now(), p) }) }
	conn.Reinit(2, Config{LimitBytes: 1_000_000}, &stubCC{fixedCwnd: 16 * 8900}, fwd)
	rcv.Reinit(2, 60, false, ret)
	done := false
	conn.OnDone(func(*Conn) { done = true })
	conn.Start()
	eng.RunFor(time.Second)
	if !done || rcv.Goodput() != 1_000_000 || conn.Stats().Retransmits != 0 {
		t.Fatalf("recycled flow: done=%v goodput=%d retransmits=%d", done, rcv.Goodput(), conn.Stats().Retransmits)
	}
}
