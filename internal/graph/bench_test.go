package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	return BarabasiAlbert(n, 2, rand.New(rand.NewSource(1)))
}

// BenchmarkBFS is one queue walk from node 0 on a pooled scratch lease.
func BenchmarkBFS(b *testing.B) {
	c := benchGraph(b, 2000).Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := getTrav(c.n)
		c.bfs(0, sc, c.offsets, c.targets, allDepths)
		putTrav(sc)
	}
}

// BenchmarkKHopSubgraphNodes prices graph.sample_neighborhood's default
// radius: a walk of radius two from each source, sorted.
func BenchmarkKHopSubgraphNodes(b *testing.B) {
	g := benchGraph(b, 2000)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KHopSubgraphNodes(NodeID(i%2000), 2)
	}
}

// BenchmarkShortestPath prices path.shortest: a full walk from each source,
// the path read off the recorded parents.
func BenchmarkShortestPath(b *testing.B) {
	g := benchGraph(b, 2000)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestPath(g, NodeID(i%2000), NodeID((i*7919+1)%2000))
	}
}

// BenchmarkCloseness prices centrality.closeness on chat_large_cold's
// social upload: one walk per source, all on one scratch lease.
func BenchmarkCloseness(b *testing.B) {
	g := uploadShapes(b)[0].g
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Closeness(g)
	}
}

// BenchmarkBetweenness prices centrality.betweenness: Brandes from every
// source on one scratch lease, so allocs/op stay flat as n grows.
func BenchmarkBetweenness(b *testing.B) {
	for _, tc := range uploadShapes(b, 500) {
		tc.g.Freeze()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Betweenness(tc.g)
			}
		})
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(b, 2000)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

func BenchmarkComputeStats(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		g := benchGraph(b, 500)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.SetNodeLabel(0, "v") // version bump: full freeze + recompute
			ComputeStats(g)
		}
	})
	b.Run("cached", func(b *testing.B) {
		g := benchGraph(b, 500)
		ComputeStats(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ComputeStats(g)
		}
	})
	// chat_large_cold's uploads, statistics only (the CSR is already built):
	// what a never-seen graph pays for graph.stats.
	for _, tc := range uploadShapes(b) {
		c := tc.g.Freeze()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.computeStats()
			}
		})
		for name, bitRows := range map[string]bool{"bits": true, "list": false} {
			b.Run(tc.name+"/triangles_"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.triangleStats(bitRows)
				}
			})
		}
	}
}

func BenchmarkFreeze(b *testing.B) {
	g := benchGraph(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SetNodeLabel(0, "v") // invalidate so every iteration rebuilds
		g.Freeze()
	}
}

// BenchmarkEccentricities runs the all-source sweep on the BA sizes and on
// the upload shapes the serving benchmark sends: sbm4x50 is
// chat_large_cold's social graph (EXPERIMENTS.md E40 has the price of the
// one queue BFS there against the hybrid it replaced).
func BenchmarkEccentricities(b *testing.B) {
	for _, tc := range uploadShapes(b, 500, 2000) {
		g := tc.g
		g.Freeze()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Eccentricities(g)
			}
		})
	}
}

// BenchmarkBFSFrontier pits production's one queue loop (eccFrom, the
// "queue" rows) against the hybrid queue/bitset oracle it replaced
// (hybridBFS.ecc, the "hybrid" rows) on graphs dense enough to reach the
// oracle's bottom-up mode, on chat_large_cold's sbm4x50 upload, and on the
// sparse BA graph where the oracle never promotes.
func BenchmarkBFSFrontier(b *testing.B) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"er_n2000_d40", ErdosRenyi(2000, 0.02, rand.New(rand.NewSource(1)))},
		{"er_n4000_d120", ErdosRenyi(4000, 0.03, rand.New(rand.NewSource(2)))},
		{"planted_n2000", PlantedCommunities(4, 500, 0.08, 0.002, rand.New(rand.NewSource(3)))},
		{"sbm4x50", uploadShapes(b)[0].g},
		{"ba_n2000_sparse", BarabasiAlbert(2000, 2, rand.New(rand.NewSource(4)))},
	}
	for _, tc := range graphs {
		c := tc.g.Freeze()
		for _, impl := range []struct {
			name string
			ecc  func(int32, *travScratch) int32
		}{{"queue", c.eccFrom}, {"hybrid", newHybridBFS(c).ecc}} {
			b.Run(tc.name+"/"+impl.name, func(b *testing.B) {
				sc := getTrav(c.n)
				defer putTrav(sc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.ecc(int32(i%c.n), sc)
				}
			})
		}
	}
}

func BenchmarkCoreNumbers(b *testing.B) {
	g := benchGraph(b, 2000)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoreNumbers(g)
	}
}

func BenchmarkMaximalCliques(b *testing.B) {
	g := benchGraph(b, 300)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaximalCliques(g, 0)
	}
}

func BenchmarkWeightedShortestPath(b *testing.B) {
	g := benchGraph(b, 2000)
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WeightedShortestPath(g, 0, NodeID(g.NumNodes()-1))
	}
}

func BenchmarkSubgraphIsomorphism(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	host := Molecule(60, rng)
	pattern := New()
	c1 := pattern.AddNode("C")
	c2 := pattern.AddNode("C")
	o := pattern.AddNode("O")
	pattern.AddEdge(c1, c2) //nolint:errcheck
	pattern.AddEdge(c2, o)  //nolint:errcheck
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FindSubgraphIsomorphisms(pattern, host, IsoOptions{MaxMatches: 16})
	}
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	g := benchGraph(b, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := g.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

// uploadShapes are the graphs the bench workloads upload: the BA graphs the
// older cases used, plus chat_large_cold's two — a 4×50 planted-community
// graph (distinct labels, one repeated attr) and a 300-entity knowledge graph
// (typed nodes, a handful of relation labels on 900 edges).
type benchShape struct {
	name string
	g    *Graph
}

func uploadShapes(b *testing.B, baSizes ...int) []benchShape {
	b.Helper()
	var out []benchShape
	for _, n := range baSizes {
		out = append(out, benchShape{fmt.Sprintf("n%d", n), benchGraph(b, n)})
	}
	rng := rand.New(rand.NewSource(7))
	return append(out,
		benchShape{"sbm4x50", PlantedCommunities(4, 50, .3, .02, rng)},
		benchShape{"kg300", KnowledgeGraph(300, 900, rng)})
}

// BenchmarkParseJSON isolates the wire → Graph decode (the hot path of every
// graph upload), excluding serialization.
func BenchmarkParseJSON(b *testing.B) {
	for _, tc := range uploadShapes(b, 500, 2000) {
		data, err := tc.g.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ParseJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContentHash times the one fingerprint an upload pays for: cold_*
// is an intern miss, cached_* every later identity check. Beside the BA sizes
// it runs the four shapes the serving benchmark uploads — mol30 and sbm2x10
// (chat_small_hot, mixed_durable), sbm4x50 and kg300 (chat_large_cold) — so
// EXPERIMENTS.md E24's table is reproducible from here.
func BenchmarkContentHash(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	shapes := append(uploadShapes(b, 100, 1000),
		benchShape{"mol30", Molecule(30, rng)},
		benchShape{"sbm2x10", PlantedCommunities(2, 10, .5, .05, rng)})
	for _, tc := range shapes {
		g := tc.g
		b.Run("cold_"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Re-bump so every iteration pays the full hash, as one
				// intern miss does (MarkShared-free mutation: relabel to
				// the same value).
				g.SetNodeLabel(0, g.Node(0).Label)
				g.ContentHash()
			}
		})
		b.Run("cached_"+tc.name, func(b *testing.B) {
			g.ContentHash()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.ContentHash()
			}
		})
	}
}

func BenchmarkGenerators(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	b.Run("barabasi_albert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BarabasiAlbert(500, 2, rng)
		}
	})
	b.Run("molecule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Molecule(40, rng)
		}
	})
	b.Run("knowledge_graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KnowledgeGraph(100, 250, rng)
		}
	})
}

// BenchmarkClone copies a parsed, frozen upload, as the executor does
// before a mutating chain ("Clean G" on kg300).
func BenchmarkClone(b *testing.B) {
	for _, tc := range uploadShapes(b, 2000) {
		data, err := tc.g.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		g, err := ParseJSON(data)
		if err != nil {
			b.Fatal(err)
		}
		g.Freeze()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cloneSink = g.Clone()
			}
		})
	}
}

var cloneSink *Graph
