//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of Puts on purpose, so the pooled LCTC scratch
// gets re-allocated mid-test and exact allocation counts do not hold.
const raceEnabled = true
