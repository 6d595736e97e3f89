//go:build race

package finetune

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it (instrumentation allocates, and
// sync.Pool drops items at random).
const raceEnabled = true
