//go:build race

package solver

// raceEnabled reports a -race build, whose instrumentation changes what the
// heap holds.
const raceEnabled = true
