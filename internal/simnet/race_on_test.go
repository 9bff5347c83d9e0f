//go:build race

package simnet

// raceEnabled reports whether the race detector is active: it makes
// sync.Pool drop items at random and its bookkeeping allocates, so
// zero-allocation assertions only hold without it.
const raceEnabled = true
