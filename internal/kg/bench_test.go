package kg

import (
	"math/rand"
	"testing"

	"chatgraph/internal/graph"
)

// BenchmarkDetect runs both detectors on the knowledge graph chat_large_cold
// uploads: clean, as the workload sends it ("Clean G" then infers ~740
// missing triples), and with the noise the cleaning experiments inject.
func BenchmarkDetect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clean := graph.KnowledgeGraph(300, 900, rng)
	noisy := clean.Clone()
	InjectNoise(noisy, 30, 10, rng)
	d := NewDetector()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"clean_kg300", clean}, {"noisy_kg300", noisy}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Detect(tc.g)
			}
		})
	}
}

func BenchmarkMineRules(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.KnowledgeGraph(300, 900, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MineRules(g, MineConfig{})
	}
}

// BenchmarkApply is the "Clean G" edit on the knowledge graph
// chat_large_cold uploads: the executor's clone of the interned graph, then
// Apply of every issue Detect reported (~740 additions).
func BenchmarkApply(b *testing.B) {
	g := graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(1)))
	issues := NewDetector().Detect(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Apply(g.Clone(), issues)
	}
}
