//go:build race

package ann

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it (instrumentation allocates).
const raceEnabled = true
