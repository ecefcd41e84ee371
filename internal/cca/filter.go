// Package cca implements the five congestion-control algorithms the paper
// studies — Reno (RFC 5681), CUBIC (RFC 8312), H-TCP (Leith & Shorten 2004),
// BBRv1 (Cardwell et al. 2017) and BBRv2 (IETF-106 draft) — against the
// internal/tcp hook interface, plus a registry to construct them by name.
package cca

// minmaxSample is one sample in the windowed filter.
type minmaxSample struct {
	t int64 // timestamp (any monotone unit: rounds or sim time)
	v int64
}

// maxFilter is the Linux kernel's windowed max estimator (lib/minmax.c):
// it tracks the best sample plus two recent runners-up so the estimate
// degrades gracefully when the max leaves the window.
type maxFilter struct {
	window int64
	s      [3]minmaxSample
}

// Get returns the current windowed maximum.
func (f *maxFilter) Get() int64 { return f.s[0].v }

// Update folds in a new sample at time t and returns the new maximum.
func (f *maxFilter) Update(t, v int64) int64 {
	if v >= f.s[0].v || t-f.s[2].t > f.window {
		// New overall max, or the window has fully expired: reset.
		f.s[0] = minmaxSample{t, v}
		f.s[1] = f.s[0]
		f.s[2] = f.s[0]
		return f.s[0].v
	}
	if v >= f.s[1].v {
		f.s[1] = minmaxSample{t, v}
		f.s[2] = f.s[1]
	} else if v >= f.s[2].v {
		f.s[2] = minmaxSample{t, v}
	}
	return f.subwin(t, v)
}

// subwin handles expiry of the leading samples, promoting runners-up.
func (f *maxFilter) subwin(t, v int64) int64 {
	if t-f.s[0].t > f.window {
		f.s[0] = f.s[1]
		f.s[1] = f.s[2]
		f.s[2] = minmaxSample{t, v}
		if t-f.s[0].t > f.window {
			f.s[0] = f.s[1]
			f.s[1] = f.s[2]
		}
	} else if f.s[1].t == f.s[0].t && t-f.s[1].t > f.window/4 {
		f.s[1] = minmaxSample{t, v}
		f.s[2] = f.s[1]
	} else if f.s[2].t == f.s[1].t && t-f.s[2].t > f.window/2 {
		f.s[2] = minmaxSample{t, v}
	}
	return f.s[0].v
}
