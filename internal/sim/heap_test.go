package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// TestHeapLessMatchesBefore pins the branch-free comparison down's child
// selection uses to the plain one: less(a, b) is 1 exactly when a sorts
// before b, over the corners of both key words and over random pairs.
func TestHeapLessMatchesBefore(t *testing.T) {
	ats := []Time{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, math.MaxUint64 - 1, math.MaxUint64}
	var keys []entry
	for _, at := range ats {
		for _, seq := range seqs {
			keys = append(keys, entry{at: at, seq: seq})
		}
	}
	check := func(a, b entry) {
		t.Helper()
		want := uint64(0)
		if a.before(&b) {
			want = 1
		}
		if got := less(&a, &b); got != want {
			t.Fatalf("less((%d,%d), (%d,%d)) = %d, before says %d", a.at, a.seq, b.at, b.seq, got, want)
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			check(a, b)
		}
	}
	rng := NewRNG(5)
	for i := 0; i < 100_000; i++ {
		a := entry{at: Time(rng.Uint64()), seq: rng.Uint64()}
		b := entry{at: Time(rng.Uint64()), seq: rng.Uint64()}
		if i%2 == 0 { // equal deadlines: only the seq word decides
			b.at = a.at
		}
		if i%3 == 0 { // small deadlines around zero, adjacent sequences
			a.at, b.at = Time(rng.Intn(5)-2), Time(rng.Intn(5)-2)
			b.seq = a.seq + uint64(rng.Intn(3)) - 1
		}
		check(a, b)
	}
}

// TestHeapAllGroupSizes drives the queue through every size from 1 to 70
// with deadlines that collide, so sifting meets last groups of one, two,
// three and four children and ties that only seq breaks. After every push,
// re-key and removal each slot must record its own index and sort no
// earlier than its parent; draining must yield (at, seq) order.
func TestHeapAllGroupSizes(t *testing.T) {
	rng := NewRNG(17)
	for n := 1; n <= 70; n++ {
		e := NewEngine(1)
		evs := make([]event, n)
		seqs := make([]uint64, n)
		for i := range seqs {
			seqs[i] = uint64(i + 1)
		}
		for i := range seqs { // unique sequence numbers, pushed in random order
			j := i + rng.Intn(n-i)
			seqs[i], seqs[j] = seqs[j], seqs[i]
		}
		key := func() Time { return Time(rng.Intn(n/4 + 2)) }
		for i := range evs {
			e.queue.push(key(), seqs[i], &evs[i])
			checkHeap(t, e)
		}
		next := uint64(n)
		for k := 0; k < n; k++ { // re-key like Timer.ResetKey
			i := rng.Intn(len(e.queue))
			next++
			e.queue[i].at, e.queue[i].seq = key(), next
			e.queue.fix(i)
			checkHeap(t, e)
		}
		for k := 0; k < n/3; k++ {
			e.queue.remove(rng.Intn(len(e.queue)))
			checkHeap(t, e)
		}
		want := slices.Clone(e.queue)
		slices.SortFunc(want, func(a, b entry) int {
			if a.before(&b) {
				return -1
			}
			return 1
		})
		for i := range want {
			if got := e.queue[0]; got.at != want[i].at || got.seq != want[i].seq {
				t.Fatalf("n=%d: pop %d gave (%d,%d), want (%d,%d)", n, i, got.at, got.seq, want[i].at, want[i].seq)
			}
			e.queue[0].ev.idx = -1
			e.queue.pop()
			checkHeap(t, e)
		}
	}
}

// BenchmarkEngineSift measures one dispatch on a heap held at a fixed depth:
// every pooled event schedules a successor at a random deadline, which takes
// the fired root slot and sifts down through the whole heap. At depth 64 the
// heap sits in L1 and the cost is the child selection; at 65,536 it is
// cache misses as well. Must report 0 allocs/op.
func BenchmarkEngineSift(b *testing.B) {
	for _, depth := range []int{64, 65536} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := NewEngine(1)
			rng := NewRNG(3)
			n := 0
			var h HandlerFunc
			h = func(any) {
				if n++; n == b.N {
					e.Stop() // leave the heap undrained: draining is not a sift at depth
					return
				}
				e.ScheduleHandler(time.Duration(rng.Intn(1_000_000)), h, nil)
			}
			for i := 0; i < depth; i++ {
				e.ScheduleHandler(time.Duration(rng.Intn(1_000_000)), h, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
