//go:build !race

package apis

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it (instrumentation allocates).
const raceEnabled = false
