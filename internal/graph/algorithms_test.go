package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func clique(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("c")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(NodeID(i), NodeID(j)) //nolint:errcheck
		}
	}
	return g
}

func TestCoreNumbersCliquePlusTail(t *testing.T) {
	// K4 with a pendant path: clique nodes are 3-core, path degrades.
	g := clique(4)
	p1 := g.AddNode("t")
	p2 := g.AddNode("t")
	g.AddEdge(3, p1)  //nolint:errcheck
	g.AddEdge(p1, p2) //nolint:errcheck
	core := CoreNumbers(g)
	for i := 0; i < 4; i++ {
		if core[i] != 3 {
			t.Fatalf("clique node %d core = %d, want 3", i, core[i])
		}
	}
	if core[p1] != 1 || core[p2] != 1 {
		t.Fatalf("tail cores = %d, %d, want 1", core[p1], core[p2])
	}
	if d := slices.Max(core); d != 3 {
		t.Fatalf("degeneracy = %d", d)
	}
}

func TestCoreNumbersEmptyAndSingle(t *testing.T) {
	if len(CoreNumbers(New())) != 0 {
		t.Fatal("empty graph core numbers")
	}
	g := New()
	g.AddNode("a")
	if CoreNumbers(g)[0] != 0 {
		t.Fatal("isolated node core != 0")
	}
}

func TestMaximalCliques(t *testing.T) {
	// Two triangles sharing an edge: cliques {0,1,2} and {1,2,3}.
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode("v")
	}
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}} {
		g.AddEdge(e[0], e[1]) //nolint:errcheck
	}
	cliques := MaximalCliques(g, 0)
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v", cliques)
	}
	for _, c := range cliques {
		if len(c) != 3 {
			t.Fatalf("clique size = %d", len(c))
		}
	}
}

func TestMaximalCliquesCap(t *testing.T) {
	g := clique(6)
	if got := MaximalCliques(g, 1); len(got) != 1 || len(got[0]) != 6 {
		t.Fatalf("capped cliques = %v", got)
	}
}

func TestAssortativityStar(t *testing.T) {
	// A star is maximally disassortative.
	g := New()
	hub := g.AddNode("h")
	for i := 0; i < 6; i++ {
		leaf := g.AddNode("l")
		g.AddEdge(hub, leaf) //nolint:errcheck
	}
	if a := Assortativity(g); a >= 0 {
		t.Fatalf("star assortativity = %v, want negative", a)
	}
	if a := Assortativity(clique(5)); math.Abs(a) > 1e-9 && !math.IsNaN(a) && a != 0 {
		// Regular graph: zero variance → defined as 0 here.
		t.Fatalf("clique assortativity = %v, want 0", a)
	}
	if Assortativity(New()) != 0 {
		t.Fatal("empty graph assortativity != 0")
	}
}

func TestWeightedShortestPath(t *testing.T) {
	// 0-1 weight 10; 0-2-1 weights 1+1: Dijkstra must take the detour.
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode("v")
	}
	g.AddEdgeLabeled(0, 1, "", 10) //nolint:errcheck
	g.AddEdgeLabeled(0, 2, "", 1)  //nolint:errcheck
	g.AddEdgeLabeled(2, 1, "", 1)  //nolint:errcheck
	path, w := WeightedShortestPath(g, 0, 1)
	if w != 2 || len(path) != 3 || path[1] != 2 {
		t.Fatalf("path = %v, weight = %v", path, w)
	}
	if p, w := WeightedShortestPath(g, 0, 0); len(p) != 1 || w != 0 {
		t.Fatalf("self path = %v, %v", p, w)
	}
	if p, w := WeightedShortestPath(g, 0, 99); p != nil || !math.IsInf(w, 1) {
		t.Fatalf("oob path = %v, %v", p, w)
	}
	g2 := New()
	g2.AddNode("a")
	g2.AddNode("b")
	if p, _ := WeightedShortestPath(g2, 0, 1); p != nil {
		t.Fatalf("unreachable path = %v", p)
	}
}

func TestEccentricitiesPath(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1)) //nolint:errcheck
	}
	ecc, radius, diameter := Eccentricities(g)
	if diameter != 4 || radius != 2 {
		t.Fatalf("radius %d diameter %d", radius, diameter)
	}
	if ecc[0] != 4 || ecc[2] != 2 {
		t.Fatalf("ecc = %v", ecc)
	}
	center := Center(g)
	if len(center) != 1 || center[0] != 2 {
		t.Fatalf("center = %v", center)
	}
}

func TestGreedyColoring(t *testing.T) {
	colors, k := GreedyColoring(clique(4))
	if k != 4 {
		t.Fatalf("K4 colors = %d", k)
	}
	seen := map[int]bool{}
	for _, c := range colors {
		if seen[c] {
			t.Fatal("clique nodes share a color")
		}
		seen[c] = true
	}
	// A path is 2-colorable and greedy achieves it.
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < 6; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1)) //nolint:errcheck
	}
	if _, k := GreedyColoring(g); k != 2 {
		t.Fatalf("path colors = %d", k)
	}
}

// A directed edge constrains the coloring in both directions: the coloring is
// proper over the undirected view, whichever way the edges point.
func TestGreedyColoringDirected(t *testing.T) {
	g := NewDirected()
	for i := 0; i < 3; i++ {
		g.AddNode("v")
	}
	g.AddEdge(1, 0) //nolint:errcheck
	g.AddEdge(1, 2) //nolint:errcheck
	if colors, k := GreedyColoring(g); k != 2 || colors[1] == colors[0] || colors[1] == colors[2] {
		t.Fatalf("1→0, 1→2: colors %v (%d), want a proper 2-coloring", colors, k)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		g := NewDirected()
		n := 2 + rng.Intn(30)
		for j := 0; j < n; j++ {
			g.AddNode("v")
		}
		for e := rng.Intn(3 * n); e > 0; e-- {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n))) //nolint:errcheck // self-loops rejected
		}
		colors, _ := GreedyColoring(g)
		for _, e := range g.Edges() {
			if colors[e.From] == colors[e.To] {
				t.Fatalf("graph %d: edge %d→%d joins two nodes of color %d", i, e.From, e.To, colors[e.From])
			}
		}
	}
}

func TestMinimumSpanningForest(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddNode("v")
	}
	g.AddEdgeLabeled(0, 1, "", 1) //nolint:errcheck
	g.AddEdgeLabeled(1, 2, "", 2) //nolint:errcheck
	g.AddEdgeLabeled(2, 0, "", 3) //nolint:errcheck  // cycle edge, excluded
	g.AddEdgeLabeled(2, 3, "", 1) //nolint:errcheck
	edges, total := MinimumSpanningForest(g)
	if len(edges) != 3 || total != 4 {
		t.Fatalf("mst = %v total %v", edges, total)
	}
}

// Property: greedy coloring is always proper.
func TestQuickColoringProper(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%25) + 2
		g := ErdosRenyi(n, 0.3, rand.New(rand.NewSource(seed)))
		colors, _ := GreedyColoring(g)
		for _, e := range g.Edges() {
			if colors[e.From] == colors[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every node's core number is at most its degree, and the k-core
// containment property holds (nodes with core ≥ k induce min degree ≥ k).
func TestQuickCoreNumbers(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%25) + 3
		g := ErdosRenyi(n, 0.25, rand.New(rand.NewSource(seed)))
		core := CoreNumbers(g)
		for i, c := range core {
			if c > g.Degree(NodeID(i)) {
				return false
			}
		}
		// Check the k-core property for k = degeneracy.
		k := slices.Max(core)
		inCore := make(map[NodeID]bool)
		for i, c := range core {
			if c >= k {
				inCore[NodeID(i)] = true
			}
		}
		for u := range inCore {
			deg := 0
			for _, v := range g.Neighbors(u) {
				if inCore[v] {
					deg++
				}
			}
			if deg < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra with unit weights agrees with BFS.
func TestQuickDijkstraMatchesBFS(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 3
		g := ErdosRenyi(n, 0.3, rand.New(rand.NewSource(seed)))
		bfs := g.ShortestPathLengths(0)
		for dst := 1; dst < n; dst++ {
			path, w := WeightedShortestPath(g, 0, NodeID(dst))
			if bfs[dst] < 0 {
				if path != nil {
					return false
				}
				continue
			}
			if int(w) != bfs[dst] || len(path)-1 != bfs[dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
