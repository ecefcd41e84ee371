package aqm

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestEmptyDequeueIgnoresTime pins the rule on Queue.Dequeue that lets a
// fused port defer the call its skipped tx-done owes: on an emptied queue,
// Dequeue returns nil and leaves the same state whatever time it is given.
// Each discipline runs a seeded mix of flows, sizes and sojourns (CoDel's
// target is short enough that it drops), drains, and then twins take one
// empty Dequeue at different times. FQ-CoDel's empty Dequeue must still
// change its state (it retires drained flows), or the deferred call would
// be pinning nothing.
func TestEmptyDequeueIgnoresTime(t *testing.T) {
	codel := CoDelParams{Target: 20 * time.Microsecond, Interval: 100 * time.Microsecond}
	kinds := []struct {
		kind Kind
		new  func() Queue
	}{
		{KindFIFO, func() Queue { return NewFIFO(1 << 20) }},
		{KindRED, func() Queue { return NewRED(64_000, false, REDParams{Seed: 1}) }},
		{KindCoDel, func() Queue { return NewCoDel(1<<20, false, codel) }},
		{KindFQCoDel, func() Queue { return NewFQCoDel(1<<20, false, FQCoDelParams{Flows: 16, Quantum: 1500, CoDel: codel}) }},
	}
	sizes := []units.ByteSize{40, 576, 1500, 9000}
	for _, k := range kinds {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprint(k.kind, "/seed", seed), func(t *testing.T) {
				// drained replays the seeded run on a new queue and empties it;
				// end is when the last packet left.
				drained := func() (q Queue, end sim.Time) {
					q = k.new()
					rng := sim.NewRNG(seed)
					for i := 0; i < 400; i++ {
						end += sim.Time(rng.Intn(30_000))
						for n := rng.Intn(4); n > 0; n-- {
							q.Enqueue(end, mkData(packet.FlowID(rng.Intn(6)), sizes[rng.Intn(len(sizes))]))
						}
						if rng.Intn(3) > 0 {
							q.Dequeue(end)
						}
					}
					for q.Len() > 0 {
						end += 10_000
						q.Dequeue(end)
					}
					return q, end
				}
				untouched, _ := drained()
				early, end := drained()
				late, _ := drained()
				if p := early.Dequeue(end); p != nil {
					t.Fatalf("empty Dequeue returned a packet")
				}
				if p := late.Dequeue(end + sim.Time(time.Second)); p != nil {
					t.Fatalf("empty Dequeue returned a packet")
				}
				if !reflect.DeepEqual(early, late) {
					t.Fatalf("empty Dequeue at %d and a second later left different states:\n %+v\n %+v", end, early, late)
				}
				if k.kind == KindFQCoDel && reflect.DeepEqual(untouched, early) {
					t.Fatalf("empty Dequeue left FQ-CoDel's scheduler as it was")
				}
			})
		}
	}
}
