//go:build !race

package interp

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
