package retrieve

// Helpers the external test package (which may import core) shares with
// this one.
var (
	PaddedRegistry = paddedRegistry
	DenseTopAPIs   = denseTopAPIs
)
