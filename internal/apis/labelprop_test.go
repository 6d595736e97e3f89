package apis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chatgraph/internal/graph"
)

// labelPropagationMap is LabelPropagation as it was before the counter
// array: a fresh map of neighbour-label counts per node per round, and a map
// to renumber. It stays as the reference the array kernel is held to.
func labelPropagationMap(g *graph.Graph, maxIters int) []int {
	n := g.NumNodes()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	if maxIters <= 0 {
		maxIters = 20
	}
	c := g.Freeze()
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			counts := make(map[int]int)
			for _, nb := range c.OutNeighbors(graph.NodeID(u)) {
				counts[labels[nb]]++
			}
			if len(counts) == 0 {
				continue
			}
			best, bestCount := labels[u], counts[labels[u]]
			for l, c := range counts {
				if c > bestCount || c == bestCount && l < best {
					best, bestCount = l, c
				}
			}
			if best != labels[u] {
				labels[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Renumber to dense community IDs in first-appearance order.
	remap := make(map[int]int)
	for i, l := range labels {
		if _, ok := remap[l]; !ok {
			remap[l] = len(remap)
		}
		labels[i] = remap[l]
	}
	return labels
}

// TestLabelPropagationMatchesMapReference: the counter-array kernel assigns
// exactly the reference's labels on every generator the workloads upload,
// after one round, two, and to convergence.
func TestLabelPropagationMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	graphs := map[string]*graph.Graph{
		"planted_4x50":   graph.PlantedCommunities(4, 50, 0.3, 0.02, rng),
		"planted_3x15":   graph.PlantedCommunities(3, 15, 0.7, 0.01, rng),
		"barabasi_200":   graph.BarabasiAlbert(200, 2, rng),
		"molecule_30":    graph.Molecule(30, rng),
		"kg_300x900":     graph.KnowledgeGraph(300, 900, rng),
		"kg_40x60":       graph.KnowledgeGraph(40, 60, rng),
		"empty":          graph.New(),
		"isolated_nodes": isolated(5),
	}
	for name, g := range graphs {
		for _, rounds := range []int{1, 2, 20} {
			got, want := LabelPropagation(g, rounds), labelPropagationMap(g, rounds)
			if !slices.Equal(got, want) {
				t.Errorf("%s, max_iters=%d: labels %v, reference %v", name, rounds, got, want)
			}
		}
	}
}

func isolated(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	return g
}

// FuzzLabelPropagationParity: on any edge list, either direction, any
// number of rounds, the counter-array kernel and the map reference agree
// label for label. The first byte picks the node count and direction, the
// second the rounds, and every following pair of bytes is an edge.
func FuzzLabelPropagationParity(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 1, 2, 2, 0, 3, 4})
	f.Add([]byte{0x80 | 9, 20, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3, 6, 7, 7, 8})
	f.Add([]byte{12, 1, 0, 1, 0, 1, 0, 2, 2, 1, 3, 4, 4, 3, 5, 6, 6, 7, 7, 5, 5, 8})
	f.Add([]byte{2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]&0x3f)
		g := graph.New()
		if data[0]&0x80 != 0 {
			g = graph.NewDirected()
		}
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		rounds := 1 + int(data[1])%40
		for i := 2; i+1 < len(data); i += 2 {
			u, v := graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)
			if u != v {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := LabelPropagation(g, rounds), labelPropagationMap(g, rounds)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d directed=%v rounds=%d edges=%v: labels %v, reference %v",
				n, g.Directed(), rounds, g.Edges(), got, want)
		}
	})
}

// plantedOfSize is the social upload shape at n nodes: blocks of 50 (one
// block below 50 nodes), dense inside, sparse across.
func plantedOfSize(n int) *graph.Graph {
	k, size := max(n/50, 1), min(n, 50)
	return graph.PlantedCommunities(k, size, 0.3, 0.02, rand.New(rand.NewSource(int64(n))))
}

// TestLabelPropagationAllocBudget: the kernel allocates per graph, not per
// node — the map reference paid a map per node per round once a node had
// more than a handful of neighbour labels (≈ 4,900 allocations at 800
// nodes).
func TestLabelPropagationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, n := range []int{50, 200, 800} {
		g := plantedOfSize(n)
		if allocs := testing.AllocsPerRun(5, func() { LabelPropagation(g, 20) }); allocs > 16 {
			t.Errorf("LabelPropagation at %d nodes: %.0f allocs, budget 16", n, allocs)
		}
	}
}

func BenchmarkLabelPropagation(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		g := plantedOfSize(n)
		g.Freeze()
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				labelsSink = LabelPropagation(g, 20)
			}
		})
	}
}

var labelsSink []int
