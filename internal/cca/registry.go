package cca

import (
	"fmt"

	"repro/internal/tcp"
)

// Name identifies a congestion-control algorithm.
type Name string

// The paper's five algorithms.
const (
	Reno  Name = "reno"
	Cubic Name = "cubic"
	HTCP  Name = "htcp"
	BBRv1 Name = "bbr1"
	BBRv2 Name = "bbr2"
)

// Ablation variants (not part of the paper's five, but used by the
// design-choice benchmarks in bench_test.go and available to experiments).
const (
	CubicNoHyStart  Name = "cubic-nohystart"
	CubicNoFastConv Name = "cubic-nofastconv"
)

// factories maps names to constructors. Each call returns a fresh,
// per-connection controller instance.
var factories = map[Name]func() tcp.CongestionControl{
	Reno:  func() tcp.CongestionControl { return NewReno() },
	Cubic: func() tcp.CongestionControl { return NewCubic() },
	HTCP:  func() tcp.CongestionControl { return NewHTCP() },
	BBRv1: func() tcp.CongestionControl { return NewBBRv1() },
	BBRv2: func() tcp.CongestionControl { return NewBBRv2() },

	CubicNoHyStart:  func() tcp.CongestionControl { return NewCubicNoHyStart() },
	CubicNoFastConv: func() tcp.CongestionControl { return &cubic{hystart: true, name: CubicNoFastConv} },
}

// New constructs a fresh controller by name.
func New(n Name) (tcp.CongestionControl, error) {
	f, ok := factories[n]
	if !ok {
		return nil, fmt.Errorf("cca: unknown algorithm %q (known: %v)", n, Names())
	}
	return f(), nil
}

// MustNew is New for static names; it panics on unknown names.
func MustNew(n Name) tcp.CongestionControl {
	cc, err := New(n)
	if err != nil {
		panic(err)
	}
	return cc
}

// Factory builds one run's controllers by name and recycles the ones
// handed back: Release resets a finished flow's controller to the state its
// constructor builds, and a later New of the same name returns it instead
// of allocating. The zero Factory is ready to use. Like everything else in
// a run it is single-threaded.
type Factory struct {
	free map[Name][]resetter
}

// resetter is a registry controller: reset restores exactly the state its
// constructor builds.
type resetter interface {
	tcp.CongestionControl
	reset()
}

// New returns a controller of algorithm n in its constructor state: a
// released one when there is one, else a fresh one.
func (f *Factory) New(n Name) (tcp.CongestionControl, error) {
	if free := f.free[n]; len(free) > 0 {
		cc := free[len(free)-1]
		f.free[n] = free[:len(free)-1]
		cc.reset()
		return cc, nil
	}
	return New(n)
}

// MustNew is New for validated names; it panics on unknown names.
func (f *Factory) MustNew(n Name) tcp.CongestionControl {
	cc, err := f.New(n)
	if err != nil {
		panic(err)
	}
	return cc
}

// Release hands back the controller of a flow that will make no further
// calls into it. Controllers the registry did not build (decorators, test
// doubles) are left to the garbage collector.
func (f *Factory) Release(cc tcp.CongestionControl) {
	r, ok := cc.(resetter)
	if !ok {
		return
	}
	if f.free == nil {
		f.free = make(map[Name][]resetter)
	}
	n := Name(r.Name())
	f.free[n] = append(f.free[n], r)
}

// Names lists the paper's five algorithms, sorted. Ablation variants are
// excluded.
func Names() []Name {
	return []Name{BBRv1, BBRv2, Cubic, HTCP, Reno}
}

// Parse validates an algorithm name.
func Parse(s string) (Name, error) {
	if _, ok := factories[Name(s)]; ok {
		return Name(s), nil
	}
	return "", fmt.Errorf("cca: unknown algorithm %q (known: %v)", s, Names())
}
