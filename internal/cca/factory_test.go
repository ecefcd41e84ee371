package cca

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/tcp"
	"repro/internal/units"
)

// registryNames is every name the registry builds, ablation variants
// included, in a fixed order.
func registryNames() []Name {
	var names []Name
	for n := range factories {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// TestResetMatchesConstructor: every registry controller, driven through
// slow start, loss on a half-BDP buffer and an RTO, resets to exactly the
// state its constructor builds.
func TestResetMatchesConstructor(t *testing.T) {
	for _, n := range registryNames() {
		t.Run(string(n), func(t *testing.T) {
			cc := MustNew(n)
			fs := newFlowSim(100*units.MegabitPerSec, 0.5, cc)
			fs.run(12 * time.Second)
			cc.OnRTO(fs.conn)
			if fs.conn.Stats().Retransmits == 0 {
				t.Fatal("the run saw no loss")
			}
			fresh := MustNew(n)
			stateless := reflect.TypeOf(cc).Elem().NumField() == 0 // reno
			if !stateless && reflect.DeepEqual(cc, fresh) {
				t.Fatal("driven controller still equals a fresh one; the check would prove nothing")
			}
			cc.(resetter).reset()
			if !reflect.DeepEqual(cc, fresh) {
				t.Fatalf("after reset:\n%+v\nwant the constructor's\n%+v", cc, fresh)
			}
		})
	}
}

// wrapped is a decorator the factory did not build.
type wrapped struct{ tcp.CongestionControl }

// TestFactoryRecycles: a released controller comes back from the next New
// of its own name only, reset; controllers the registry did not build are
// not taken back.
func TestFactoryRecycles(t *testing.T) {
	var f Factory
	if _, err := f.New("vegas"); err == nil {
		t.Fatal("New(vegas) should fail")
	}
	nohs := f.MustNew(CubicNoHyStart)
	fs := newFlowSim(100*units.MegabitPerSec, 0.5, nohs)
	fs.run(3 * time.Second)
	f.Release(nohs)
	f.Release(wrapped{NewCubic()})

	if got := f.MustNew(Cubic); got == nohs || reflect.TypeOf(got) != reflect.TypeOf(nohs) {
		t.Fatalf("New(cubic) = %T %p, want a fresh *cubic", got, got)
	}
	got := f.MustNew(CubicNoHyStart)
	if got != nohs {
		t.Fatalf("New(%s) built a new controller; want the released one back", CubicNoHyStart)
	}
	if !reflect.DeepEqual(got, NewCubicNoHyStart()) {
		t.Fatalf("recycled controller not in its constructor state: %+v", got)
	}
	if again := f.MustNew(CubicNoHyStart); again == nohs {
		t.Fatal("one released controller handed out twice")
	}
}
