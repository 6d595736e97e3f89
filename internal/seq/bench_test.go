package seq

import (
	"math/rand"
	"strings"
	"testing"

	"chatgraph/internal/graph"
)

func BenchmarkSuperGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.PlantedCommunities(5, 40, 0.3, 0.01, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SuperGraph(g)
	}
}

func BenchmarkRenderAll(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.BarabasiAlbert(100, 2, rng)
	paths := PathCover(g, 2, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RenderAll(g, paths, 40)
	}
}

// BenchmarkPromptBlock measures the sequentializer on the repository
// benchmark's own graph shapes at the serving default l = 3: "head" is what
// one chat request pays (the bounded 40 + 20 line block llm.BuildPrompt
// prints), "full" is the whole cover through the same kernel. paths/op is the
// size of the level-0 cover either way — head counts what it does not build.
func BenchmarkPromptBlock(b *testing.B) {
	for _, shape := range []struct {
		name string
		g    *graph.Graph
	}{
		{"sbm200", graph.PlantedCommunities(4, 50, 0.3, 0.02, rand.New(rand.NewSource(4)))},
		{"kg300", graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(5)))},
		{"mol30", graph.Molecule(30, rand.New(rand.NewSource(6)))},
	} {
		opts := Options{MaxLength: 3, Levels: 2}
		run := func(name string, seq func() Result) {
			b.Run(shape.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				var sb strings.Builder
				var paths int
				for i := 0; i < b.N; i++ {
					res := seq()
					sb.Reset()
					RenderHead(&sb, shape.g, res.Paths[:min(40, len(res.Paths))], res.NumPaths)
					if res.NumSuperPaths > 0 {
						RenderHead(&sb, res.Super, res.SuperPaths[:min(20, len(res.SuperPaths))], res.NumSuperPaths)
					}
					paths = res.NumPaths
				}
				b.ReportMetric(float64(paths), "paths/op")
			})
		}
		run("head", func() Result { return SequentializeHead(shape.g, opts, 40, 20) })
		run("full", func() Result { return Sequentialize(shape.g, opts) })
	}
}
