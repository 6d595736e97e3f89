package seq

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chatgraph/internal/graph"
)

func lineGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)) //nolint:errcheck
	}
	return g
}

func triangle() *graph.Graph {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b) //nolint:errcheck
	g.AddEdge(b, c) //nolint:errcheck
	g.AddEdge(c, a) //nolint:errcheck
	return g
}

// PathCover, Render and CoverageOK are the tests' handles on the kernels: the
// level-0 cover alone (Sequentialize with Levels 1), one rendered path, and
// the checker of the covering property the paper requires.

// PathCover returns, for every node u of g, root-to-leaf paths of u's
// depth-limited BFS tree. Every node within l hops of u appears on at least
// one path starting at u (the covering property the paper requires), and
// every path has at most l edges.
func PathCover(g *graph.Graph, l int) []Path {
	paths, _ := cover(g, l, -1)
	return paths
}

// Render writes one path as the token sequence fed to the LLM, e.g.
// "v0[C] - v3[O] - v4[N]". Labels are included when present because they
// carry the semantics (element symbols, entity names).
func Render(g *graph.Graph, p Path) string {
	var b strings.Builder
	renderPath(&b, g, p)
	return b.String()
}

// CoverageOK verifies the covering property: every node within l hops of u
// appears on at least one path starting at u, for every u.
func CoverageOK(g *graph.Graph, paths []Path, l int) bool {
	covered := make(map[graph.NodeID]map[graph.NodeID]bool) // start → nodes on its paths
	for _, p := range paths {
		if len(p) == 0 {
			return false
		}
		start := p[0]
		if covered[start] == nil {
			covered[start] = make(map[graph.NodeID]bool)
		}
		for _, id := range p {
			covered[start][id] = true
		}
	}
	for _, n := range g.Nodes() {
		want := g.KHopSubgraphNodes(n.ID, l)
		got := covered[n.ID]
		for _, w := range want {
			if !got[w] {
				return false
			}
		}
	}
	return true
}

// TestPathCoverBound is the E6 correctness side: the covering property holds
// and the count stays polynomial, at every l.
func TestPathCoverBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.BarabasiAlbert(120, 2, rng)
	for _, l := range []int{1, 2, 3} {
		paths := PathCover(g, l)
		if !CoverageOK(g, paths, l) {
			t.Fatalf("coverage violated at l=%d", l)
		}
		if n := g.NumNodes(); len(paths) > n*n*l {
			t.Fatalf("path count %d exceeds n²·l at l=%d", len(paths), l)
		}
	}
}

func TestPathCoverLengthBound(t *testing.T) {
	g := lineGraph(10)
	for _, l := range []int{1, 2, 3} {
		for _, p := range PathCover(g, l) {
			if len(p)-1 > l {
				t.Fatalf("path %v exceeds length %d", p, l)
			}
		}
	}
}

func TestPathCoverCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range []int{1, 2, 3} {
		g := graph.BarabasiAlbert(40, 2, rng)
		paths := PathCover(g, l)
		if !CoverageOK(g, paths, l) {
			t.Fatalf("coverage violated at l=%d", l)
		}
	}
}

func TestPathCoverIsolatedNode(t *testing.T) {
	g := graph.New()
	g.AddNode("solo")
	paths := PathCover(g, 2)
	if len(paths) != 1 || len(paths[0]) != 1 || paths[0][0] != 0 {
		t.Fatalf("isolated node paths = %v", paths)
	}
}

func TestPathCoverQuadraticBound(t *testing.T) {
	// E6 invariant: path count stays within |G|² (actually |G|·|N_l|).
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyi(30, 0.15, rng)
	n := g.NumNodes()
	for _, l := range []int{1, 2, 3} {
		paths := PathCover(g, l)
		if len(paths) > n*n*l {
			t.Fatalf("l=%d produced %d paths for n=%d, exceeds n²·l", l, len(paths), n)
		}
	}
}

func TestRender(t *testing.T) {
	g := graph.New()
	g.AddNode("C")
	g.AddNode("")
	got := Render(g, Path{0, 1})
	if got != "v0[C] - v1" {
		t.Fatalf("Render = %q", got)
	}
}

func TestRenderAllTruncation(t *testing.T) {
	g := lineGraph(8)
	paths := PathCover(g, 2)
	out := RenderAll(g, paths, 2)
	if lines := strings.Count(out, "\n"); lines != 3 { // 2 paths + elision line
		t.Fatalf("RenderAll emitted %d lines:\n%s", lines, out)
	}
	if !strings.Contains(out, "more paths") {
		t.Fatalf("missing elision marker:\n%s", out)
	}
	full := RenderAll(g, paths, 0)
	if strings.Contains(full, "more paths") {
		t.Fatal("uncapped RenderAll truncated")
	}
}

func TestSuperGraphMergesTriangle(t *testing.T) {
	g := triangle()
	super, members := SuperGraph(g)
	if super.NumNodes() != 1 {
		t.Fatalf("triangle super-graph has %d nodes, want 1", super.NumNodes())
	}
	if len(members[0]) != 3 {
		t.Fatalf("super-node members = %v", members[0])
	}
	if !strings.HasPrefix(super.Node(0).Label, "motif:") {
		t.Fatalf("super-node label = %q", super.Node(0).Label)
	}
}

func TestSuperGraphKeepsTreeIntact(t *testing.T) {
	g := lineGraph(5) // no triangles → no merging
	super, members := SuperGraph(g)
	if super.NumNodes() != 5 {
		t.Fatalf("tree super-graph has %d nodes, want 5", super.NumNodes())
	}
	for i, m := range members {
		if len(m) != 1 || m[0] != graph.NodeID(i) {
			t.Fatalf("members[%d] = %v", i, m)
		}
	}
	if super.NumEdges() != 4 {
		t.Fatalf("super edges = %d, want 4", super.NumEdges())
	}
}

func TestSuperGraphCrossEdges(t *testing.T) {
	// Two triangles joined by one bridge edge → 2 super-nodes, 1 edge.
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.AddNode("v")
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		g.AddEdge(e[0], e[1]) //nolint:errcheck
	}
	super, members := SuperGraph(g)
	if super.NumNodes() != 2 || super.NumEdges() != 1 {
		t.Fatalf("super = %s", super)
	}
	if len(members[0]) != 3 || len(members[1]) != 3 {
		t.Fatalf("members = %v", members)
	}
}

func TestSequentializeLevels(t *testing.T) {
	g := triangle()
	res := Sequentialize(g, Options{MaxLength: 2, Levels: 2})
	if len(res.Paths) == 0 {
		t.Fatal("no level-0 paths")
	}
	if res.Super == nil || res.Super.NumNodes() != 1 {
		t.Fatal("super graph missing")
	}
	// A single super-node: super paths exist (the single node's own path).
	if len(res.SuperPaths) == 0 {
		t.Fatal("no super paths for collapsed triangle")
	}
	res1 := Sequentialize(g, Options{MaxLength: 2, Levels: 1})
	if res1.Super != nil || len(res1.SuperPaths) != 0 {
		t.Fatal("Levels=1 still produced super level")
	}
}

func TestSequentializeDefaults(t *testing.T) {
	res := Sequentialize(lineGraph(4), Options{})
	if len(res.Paths) == 0 {
		t.Fatal("defaults produced no paths")
	}
}

func TestSequentializeEmptyGraph(t *testing.T) {
	res := Sequentialize(graph.New(), Options{})
	if len(res.Paths) != 0 || res.Super != nil {
		t.Fatal("empty graph produced output")
	}
}

// Property: for random graphs, every path is a valid walk (consecutive nodes
// adjacent) and starts are within bounds.
func TestQuickPathsAreWalks(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		n := int(nRaw%25) + 2
		l := int(lRaw%3) + 1
		g := graph.ErdosRenyi(n, 0.2, rand.New(rand.NewSource(seed)))
		for _, p := range PathCover(g, l) {
			if len(p) == 0 || len(p)-1 > l {
				return false
			}
			for i := 0; i+1 < len(p); i++ {
				if !g.HasEdge(p[i], p[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: super-graph members partition the node set.
func TestQuickSuperGraphPartition(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 3
		g := graph.ErdosRenyi(n, 0.25, rand.New(rand.NewSource(seed)))
		_, members := SuperGraph(g)
		seen := make(map[graph.NodeID]bool)
		total := 0
		for _, ms := range members {
			for _, m := range ms {
				if seen[m] {
					return false
				}
				seen[m] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
