package topo

// SetNoFold turns hop folding off in Build (true) or back on (false).
func SetNoFold(off bool) { testHookNoFold = off }
