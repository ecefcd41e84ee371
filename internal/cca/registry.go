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
