package sim

import "unsafe"

// Prefetch hints the CPU to bring the cache line holding *p into L1 ahead
// of a load the caller expects to make soon: a packet a delay line or a
// queue will hand out next, whose fields would otherwise stall the event
// that reads them. It is only a hint — it never faults, even on nil, and
// changes no value — so it cannot alter a result.
func Prefetch[T any](p *T) { prefetch(unsafe.Pointer(p)) }
