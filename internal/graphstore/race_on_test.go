//go:build race

package graphstore

// raceEnabled reports whether the race detector instruments this build;
// the retention test skips under it (instrumentation allocates shadow
// memory and keeps what the GC would free).
const raceEnabled = true
