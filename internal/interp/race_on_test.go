//go:build race

package interp

// raceEnabled reports whether the race detector is active; it slows the
// lexer's allocations several times, so wall-time bounds hold only without
// it.
const raceEnabled = true
