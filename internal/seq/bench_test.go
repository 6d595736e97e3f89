package seq

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"chatgraph/internal/graph"
)

// benchShapes are the graphs the repository benchmark's workloads upload
// (bench/workload.go): chat_large_cold's 4×50 planted-community graph and
// 300-entity knowledge graph, a 30-atom molecule.
type benchShape struct {
	name string
	g    *graph.Graph
}

func benchShapes() []benchShape {
	return []benchShape{
		{"sbm4x50", graph.PlantedCommunities(4, 50, 0.3, 0.02, rand.New(rand.NewSource(4)))},
		{"kg300", graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(5)))},
		{"mol30", graph.Molecule(30, rand.New(rand.NewSource(6)))},
	}
}

func BenchmarkSuperGraph(b *testing.B) {
	for _, shape := range benchShapes()[:2] {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SuperGraph(shape.g)
			}
		})
	}
}

// BenchmarkCoverCount times one count-only path cover at l = 3 (what every
// root past the prompt's head costs) by the list kernel — on the bench's
// shapes, on 300-node random graphs with half, one and two neighbour-list
// entries per bit-row matrix word, and on sparse graphs of 1,000 to 4,000
// nodes: the rows of the crossover table beside graph.bitRowMinFill.
func BenchmarkCoverCount(b *testing.B) {
	shapes := benchShapes()
	super, _ := SuperGraph(shapes[1].g)
	shapes = append(shapes, benchShape{"kg300_super", super})
	for _, fill := range []float64{0.5, 1, 2} {
		// 300 nodes are 5-word rows: mean degree 5·fill.
		g := graph.ErdosRenyi(300, 5*fill/299, rand.New(rand.NewSource(8)))
		shapes = append(shapes, benchShape{"er300_fill" + strconv.FormatFloat(fill, 'g', -1, 64), g})
	}
	for _, n := range []int{1000, 2000, 4000} {
		g := graph.BarabasiAlbert(n, 2, rand.New(rand.NewSource(7)))
		shapes = append(shapes, benchShape{"n" + strconv.Itoa(n) + "_sparse", g})
	}
	for _, shape := range shapes {
		b.Run(shape.name+"/list", func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				_, total = cover(shape.g, 3, 0)
			}
			b.ReportMetric(float64(total), "paths/op")
		})
	}
}

func BenchmarkRenderAll(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.BarabasiAlbert(100, 2, rng)
	paths := PathCover(g, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RenderAll(g, paths, 40)
	}
}

// BenchmarkPromptBlock measures the sequentializer on the repository
// benchmark's own graph shapes at the serving default l = 3: "head" is what
// one chat request pays (the bounded 40 + 20 line block llm.BuildPrompt
// prints), "full" is the whole cover through the same kernel. paths/op is the
// size of the level-0 cover either way — head builds every tree but keeps only
// the printed paths.
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
