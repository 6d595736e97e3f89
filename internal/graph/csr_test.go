package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// InNeighbors returns the IDs with an edge into u. For undirected graphs it
// equals Neighbors. Nothing outside the tests reads in-edges as a list (the
// CSR keeps no reverse rows), so it lives here as the naive reference for
// CSR.InDegree.
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

// TestCSRNeighborViews: every CSR view must report exactly what the
// slice-materializing Graph accessors report, in the same order. InDegree is
// derived from the undirected and out rows, so the fixtures must include a
// directed graph with parallel edges and a node with out-edges only.
func TestCSRNeighborViews(t *testing.T) {
	var sawParallel, sawSourceOnly bool
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
			if c.InDegree(id) != len(wantIn) {
				t.Fatalf("%s node %d: InDegree = %d, want %d", name, u, c.InDegree(id), len(wantIn))
			}
			if g.Directed() {
				sawSourceOnly = sawSourceOnly || len(wantIn) == 0 && len(wantOut) > 0
				for i := 1; i < len(wantOut); i++ {
					sawParallel = sawParallel || wantOut[i] == wantOut[i-1]
				}
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
	if !sawParallel || !sawSourceOnly {
		t.Fatalf("no directed fixture with parallel edges (%v) and a node with out-edges only (%v)", sawParallel, sawSourceOnly)
	}
}

// TestSparseAdjacencyMatchesDense: the binary-search membership test that
// adjacencyTest takes above bitAdjacencyMaxNodes answers every (u, v) pair
// as the dense bitset and the Edges() scan do, on random directed and
// undirected graphs with parallel edges.
func TestSparseAdjacencyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 10; trial++ {
			g := New()
			if directed {
				g = NewDirected()
			}
			n := 2 + rng.Intn(60)
			for i := 0; i < n; i++ {
				g.AddNode("")
			}
			// Each drawn pair goes in once or twice; the last always twice.
			for i := n + rng.Intn(2*n); i >= 0; i-- {
				u := rng.Intn(n)
				v := (u + 1 + rng.Intn(n-1)) % n
				for copies := 2 - min(i, rng.Intn(2)); copies > 0; copies-- {
					if err := g.AddEdge(NodeID(u), NodeID(v)); err != nil {
						t.Fatal(err)
					}
				}
			}
			c := g.Freeze()
			sparse, dense := sparseAdjacencyTest(c), denseAdjacencyTest(c)
			for u := NodeID(0); int(u) < n; u++ {
				for v := NodeID(0); int(v) < n; v++ {
					if s, d, want := sparse(u, v), dense(u, v), g.HasEdge(u, v); s != d || s != want {
						t.Fatalf("directed=%v trial %d (%d, %d): sparse %v, dense %v, edge list %v", directed, trial, u, v, s, d, want)
					}
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

// TestBFSAllocs: a single queue walk on a pooled scratch lease allocates
// nothing.
func TestBFSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := BarabasiAlbert(2000, 3, rand.New(rand.NewSource(6)))
	c := g.Freeze()
	walk := func() {
		sc := getTrav(c.n)
		c.bfs(0, sc, c.offsets, c.targets, allDepths)
		putTrav(sc)
	}
	walk()
	if allocs := testing.AllocsPerRun(10, walk); allocs > 0 {
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

// TestBetweennessAllocs: Brandes' per-source state is pooled; only the
// score slice allocates, whatever the node count.
func TestBetweennessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := BarabasiAlbert(300, 3, rand.New(rand.NewSource(10)))
	Betweenness(g)
	if allocs := testing.AllocsPerRun(5, func() { Betweenness(g) }); allocs > 1 {
		t.Fatalf("Betweenness allocates %v per run, want ≤ 1 (the scores)", allocs)
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

// TestDescribeRenderedOnce: the frozen graph's Describe is the stats'
// text, rendered once and then handed out without allocating.
func TestDescribeRenderedOnce(t *testing.T) {
	g := PlantedCommunities(3, 8, 0.6, 0.05, rand.New(rand.NewSource(4)))
	c := g.Freeze()
	if got, want := c.Describe(), ComputeStats(g).Describe(); got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { c.Describe() }); allocs != 0 {
		t.Fatalf("a repeated Describe allocates %v per run, want 0", allocs)
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
