package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The two InNeighbors below are the in-edge views nothing outside the tests
// reads (the kernels walk the reverse rows directly): the Graph one is the
// naive reference for in-degrees, the CSR one exposes the frozen reverse rows
// so TestCSRNeighborViews can hold them to it.

// InNeighbors returns the IDs with an edge into u. For undirected graphs it
// equals Neighbors.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	if !g.directed {
		return g.Neighbors(u)
	}
	var out []NodeID
	for _, e := range g.Edges() {
		if e.To == u {
			out = append(out, e.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InNeighbors returns the sources of edges entering u, ascending. For
// undirected graphs it equals OutNeighbors.
func (c *CSR) InNeighbors(u NodeID) []NodeID {
	if !c.directed {
		return c.OutNeighbors(u)
	}
	return c.rtargets[c.roffsets[u]:c.roffsets[u+1]]
}

// TestCSRNeighborViews: every CSR view must report exactly what the
// slice-materializing Graph accessors report, in the same order.
func TestCSRNeighborViews(t *testing.T) {
	for name, g := range parityFixtures(t) {
		c := g.Freeze()
		if c.NumNodes() != g.NumNodes() || c.m != g.NumEdges() || c.directed != g.Directed() {
			t.Fatalf("%s: size mismatch", name)
		}
		if c.version != g.Version() {
			t.Fatalf("%s: version mismatch", name)
		}
		for u := 0; u < g.NumNodes(); u++ {
			id := NodeID(u)
			wantOut := g.Neighbors(id)
			gotOut := c.OutNeighbors(id)
			if len(gotOut) != len(wantOut) || len(gotOut) > 0 && !reflect.DeepEqual(gotOut, wantOut) {
				t.Fatalf("%s node %d: OutNeighbors = %v, want %v", name, u, gotOut, wantOut)
			}
			if c.OutDegree(id) != g.Degree(id) {
				t.Fatalf("%s node %d: OutDegree = %d, want %d", name, u, c.OutDegree(id), g.Degree(id))
			}
			wantIn := g.InNeighbors(id)
			gotIn := c.InNeighbors(id)
			if len(gotIn) != len(wantIn) || len(gotIn) > 0 && !reflect.DeepEqual(gotIn, wantIn) {
				t.Fatalf("%s node %d: InNeighbors = %v, want %v", name, u, gotIn, wantIn)
			}
			if c.InDegree(id) != len(wantIn) {
				t.Fatalf("%s node %d: InDegree = %d, want %d", name, u, c.InDegree(id), len(wantIn))
			}
			// Weights stay aligned with their targets.
			ws := c.OutWeights(id)
			if len(ws) != len(gotOut) {
				t.Fatalf("%s node %d: %d weights for %d targets", name, u, len(ws), len(gotOut))
			}
			for i, v := range gotOut {
				found := false
				for _, e := range g.Edges() {
					match := e.From == id && e.To == v || !g.Directed() && e.From == v && e.To == id
					if match && e.Weight == ws[i] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s node %d: weight %v not carried by any (%d,%v) edge", name, u, ws[i], u, v)
				}
			}
		}
	}
}

// TestFreezeConcurrent hammers Freeze + the frozen algorithms from many
// goroutines over one shared graph — the CSR build must publish exactly one
// view per version and every reader must see consistent results (run with
// -race to verify).
func TestFreezeConcurrent(t *testing.T) {
	g := BarabasiAlbert(300, 3, rand.New(rand.NewSource(11)))
	wantStats := ComputeStats(g)
	wantEcc, _, _ := Eccentricities(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := g.Freeze()
				if got := c.Stats(); got.Triangles != wantStats.Triangles || got.ApproxDiameter != wantStats.ApproxDiameter {
					t.Errorf("stats diverged: %+v", got)
					return
				}
				if k := Classify(g); k != KindSocial {
					t.Errorf("kind diverged: %v", k)
					return
				}
				ecc, _, _ := Eccentricities(g)
				if !reflect.DeepEqual(ecc, wantEcc) {
					t.Error("eccentricities diverged")
					return
				}
				_ = CoreNumbers(g)
				_, _ = WeightedShortestPath(g, 0, NodeID(g.NumNodes()-1))
			}
		}()
	}
	wg.Wait()
}

// TestEccentricitiesAllocs: the all-source BFS must not allocate per visited
// node or per source — only the result slice; every sweep reuses one
// pooled scratch.
func TestEccentricitiesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := BarabasiAlbert(2000, 3, rand.New(rand.NewSource(5)))
	g.Freeze() // freeze + warm the scratch pool outside the measurement
	Eccentricities(g)
	allocs := testing.AllocsPerRun(5, func() { Eccentricities(g) })
	// One ecc slice. With per-node allocation this would be ≥ 2000.
	if allocs > 1 {
		t.Fatalf("Eccentricities allocates %v per run, want ≤ 1", allocs)
	}
}

// TestBFSAllocs: a single pooled-scratch BFS allocates nothing.
func TestBFSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := BarabasiAlbert(2000, 3, rand.New(rand.NewSource(6)))
	g.Freeze()
	visit := func(NodeID, int) bool { return true }
	g.BFS(0, visit)
	if allocs := testing.AllocsPerRun(10, func() { g.BFS(0, visit) }); allocs > 0 {
		t.Fatalf("BFS allocates %v per run, want 0", allocs)
	}
}

// TestWeightedShortestPathAllocs: Dijkstra's working state is pooled; only
// the returned path allocates.
func TestWeightedShortestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := BarabasiAlbert(2000, 3, rand.New(rand.NewSource(8)))
	dst := NodeID(g.NumNodes() - 1)
	g.Freeze()
	WeightedShortestPath(g, 0, dst)
	if allocs := testing.AllocsPerRun(10, func() { WeightedShortestPath(g, 0, dst) }); allocs > 2 {
		t.Fatalf("WeightedShortestPath allocates %v per run, want ≤ 2 (result path)", allocs)
	}
}

// TestComputeStatsCachedAllocs: a repeated ComputeStats on an unmutated
// graph is a memoized lookup plus one defensive LabelCounts copy.
func TestComputeStatsCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := BarabasiAlbert(500, 3, rand.New(rand.NewSource(9)))
	ComputeStats(g)
	if allocs := testing.AllocsPerRun(10, func() { ComputeStats(g) }); allocs > 4 {
		t.Fatalf("cached ComputeStats allocates %v per run, want ≤ 4", allocs)
	}
}

// TestGrow: preallocation must not change observable contents.
func TestGrow(t *testing.T) {
	g := New()
	g.Grow(4, 3)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("after Grow: %v", g)
	}
	if got := g.Neighbors(b); !reflect.DeepEqual(got, []NodeID{a, c}) {
		t.Fatalf("neighbors %v", got)
	}
}

// TestAdjacencyTestersAgree: the dense-bitset and binary-search membership
// testers behind MaximalCliques must agree with Neighbors on every pair.
func TestAdjacencyTestersAgree(t *testing.T) {
	for name, g := range parityFixtures(t) {
		c := g.Freeze()
		dense := denseAdjacencyTest(c)
		sparse := sparseAdjacencyTest(c)
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			want := make(map[NodeID]bool)
			for _, v := range g.Neighbors(NodeID(u)) {
				want[v] = true
			}
			for v := 0; v < n; v++ {
				d := dense(NodeID(u), NodeID(v))
				s := sparse(NodeID(u), NodeID(v))
				if d != want[NodeID(v)] || s != want[NodeID(v)] {
					t.Fatalf("%s (%d,%d): dense=%v sparse=%v want %v", name, u, v, d, s, want[NodeID(v)])
				}
			}
		}
	}
}
