//go:build amd64 || arm64

package sim

import "unsafe"

// prefetch issues one PREFETCHT0 (amd64) or PRFM PLDL1KEEP (arm64) on p.
//
//go:noescape
func prefetch(p unsafe.Pointer)
