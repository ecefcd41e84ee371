package sim

import "testing"

// TestPrefetchDoesNotEscape: the assembly prefetch must be declared
// //go:noescape, or every pointer handed to it is forced onto the heap —
// invisible on the packet path, whose objects live there anyway, but a
// per-call allocation for any caller prefetching a stack value.
func TestPrefetchDoesNotEscape(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		var x [8]uint64
		Prefetch(&x)
	})
	if allocs != 0 {
		t.Fatalf("Prefetch of a stack value allocates %v times per call", allocs)
	}
}
