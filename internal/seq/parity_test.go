package seq

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"chatgraph/internal/graph"
)

// oraclePathCover is the map-based path cover the BFS-tree kernel replaced,
// kept verbatim as the reference: one callback-driven CSR.BFS per root with
// parent/depth/inTree/hasChild maps, every leaf walked up to the root.
func oraclePathCover(g *graph.Graph, l int) []Path {
	var out []Path
	for _, n := range g.Nodes() {
		out = append(out, oracleCoverFrom(g, n.ID, l)...)
	}
	return out
}

func oracleCoverFrom(g *graph.Graph, u graph.NodeID, l int) []Path {
	parent := map[graph.NodeID]graph.NodeID{u: u}
	depth := map[graph.NodeID]int{u: 0}
	var order []graph.NodeID
	c := g.Freeze()
	c.BFS(u, func(id graph.NodeID, d int) bool {
		if d > l {
			return false
		}
		order = append(order, id)
		for _, nb := range c.OutNeighbors(id) {
			if _, seen := parent[nb]; !seen && d < l {
				parent[nb] = id
				depth[nb] = d + 1
			}
		}
		return true
	})
	inTree := make(map[graph.NodeID]bool, len(parent))
	for id := range parent {
		inTree[id] = true
	}
	hasChild := make(map[graph.NodeID]bool, len(parent))
	for id, p := range parent {
		if id != u && inTree[p] {
			hasChild[p] = true
		}
	}
	var paths []Path
	for _, id := range order {
		if !inTree[id] || hasChild[id] {
			continue
		}
		var rev Path
		for cur := id; ; cur = parent[cur] {
			rev = append(rev, cur)
			if cur == u {
				break
			}
		}
		p := make(Path, len(rev))
		for i := range rev {
			p[i] = rev[len(rev)-1-i]
		}
		paths = append(paths, p)
	}
	if len(paths) == 0 {
		paths = append(paths, Path{u})
	}
	return paths
}

// oracleMembers is the super-node partition of the map-based triangle loop
// SuperGraph used before it merge-intersected CSR rows.
func oracleMembers(g *graph.Graph) [][]graph.NodeID {
	n := g.NumNodes()
	uf := newUnionFind(n)
	neigh := make([]map[graph.NodeID]bool, n)
	for i := range neigh {
		neigh[i] = make(map[graph.NodeID]bool)
	}
	for _, e := range g.Edges() {
		neigh[e.From][e.To] = true
		neigh[e.To][e.From] = true
	}
	for u := 0; u < n; u++ {
		for v := range neigh[u] {
			if int(v) <= u {
				continue
			}
			for w := range neigh[u] {
				if w > v && neigh[v][w] {
					uf.union(u, int(v))
					uf.union(u, int(w))
				}
			}
		}
	}
	byRoot := make(map[int][]graph.NodeID)
	for i := 0; i < n; i++ {
		byRoot[uf.find(i)] = append(byRoot[uf.find(i)], graph.NodeID(i))
	}
	members := make([][]graph.NodeID, 0, len(byRoot))
	for _, ms := range byRoot {
		members = append(members, ms)
	}
	sort.Slice(members, func(i, j int) bool { return members[i][0] < members[j][0] })
	return members
}

// randomGraph draws a multigraph: directed or not, some nodes left isolated,
// parallel edges kept, some labels empty; one in four spans two or three
// bit-row words. Self-loops are attempted too; every graph constructor
// rejects them, which is why the kernel never has to consider one.
func randomGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	if rng.Intn(2) == 0 {
		g = graph.NewDirected()
	}
	n := rng.Intn(36)
	if rng.Intn(4) == 0 {
		n = 60 + rng.Intn(100) // across the 64- and 128-node word boundaries
	}
	for i := 0; i < n; i++ {
		g.AddNode([]string{"", "C", "person"}[rng.Intn(3)])
	}
	if n == 0 {
		return g
	}
	active := 1 + rng.Intn(n) // nodes ≥ active stay isolated
	for e := rng.Intn(3 * n); e > 0; e-- {
		a, b := graph.NodeID(rng.Intn(active)), graph.NodeID(rng.Intn(active))
		if err := g.AddEdge(a, b); err == nil && rng.Intn(4) == 0 {
			g.AddEdge(a, b) //nolint:errcheck // parallel edge
		}
	}
	return g
}

// samePaths is DeepEqual that does not tell a nil slice from an empty one.
func samePaths(a, b []Path) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkCoverParity pins both consumers of the kernel to the oracle: the full
// cover is DeepEqual, and every bounded head is its prefix with an exact
// count. cover picks the count-only kernel by the graph's density, so both
// are also run on every root, whichever side of the rule g falls on.
func checkCoverParity(t *testing.T, g *graph.Graph, l int) {
	t.Helper()
	c := g.Freeze()
	rows, words := testBitRows(c, c.OutNeighbors)
	tree := leaseTree(c.NumNodes())
	for u := 0; u < c.NumNodes(); u++ {
		if bits, list := tree.countLeaves(rows, words, c.NumNodes(), int32(u), l), tree.build(c, int32(u), l); bits != list {
			t.Fatalf("l=%d directed=%v root %d: bit rows count %d leaves, lists %d", l, g.Directed(), u, bits, list)
		}
	}
	treePool.Put(tree)
	want := oraclePathCover(g, l)
	if got := PathCover(g, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("l=%d directed=%v: full cover differs from oracle\n got %v\nwant %v", l, g.Directed(), got, want)
	}
	for _, k := range []int{0, 1, 7, len(want), len(want) + 5} {
		head, total := cover(g, l, k)
		if total != len(want) {
			t.Fatalf("l=%d k=%d: counted %d paths, oracle built %d", l, k, total, len(want))
		}
		if prefix := want[:min(k, len(want))]; !samePaths(head, prefix) {
			t.Fatalf("l=%d k=%d: head differs from oracle prefix\n got %v\nwant %v", l, k, head, prefix)
		}
	}
}

func TestPathCoverParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 150; i++ {
		g := randomGraph(rng)
		for l := 1; l <= 4; l++ {
			checkCoverParity(t, g, l)
		}
		checkCoverParity(t, g, 0)
	}
}

func FuzzPathCoverParity(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 2, 3}, uint8(2), false)
	f.Add([]byte{9, 0, 1, 0, 1, 1, 1, 3, 4, 4, 3}, uint8(3), true)
	f.Add([]byte{0}, uint8(1), false)
	// Two and three bit-row words; a directed pair stored twice and reversed.
	f.Add([]byte{70, 0, 69, 69, 1, 1, 64, 64, 63, 63, 0, 0, 69}, uint8(3), false)
	f.Add([]byte{140, 0, 130, 0, 130, 130, 0, 130, 64, 64, 128, 128, 1, 1, 139}, uint8(4), true)
	f.Fuzz(func(t *testing.T, data []byte, l uint8, directed bool) {
		if len(data) == 0 {
			return
		}
		g := graph.New()
		if directed {
			g = graph.NewDirected()
		}
		n := int(data[0]) % 160 // up to three bit-row words
		for i := 0; i < n; i++ {
			g.AddNode("")
		}
		// Repeated byte pairs are parallel edges, in either graph kind.
		for i := 1; n > 0 && i+1 < len(data) && i < 400; i += 2 {
			g.AddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n)) //nolint:errcheck // self-loops rejected
		}
		checkCoverParity(t, g, int(l%5))
	})
}

func TestSequentializeHeadIsPrefixOfFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range []*graph.Graph{
		graph.PlantedCommunities(3, 12, 0.4, 0.05, rng),
		graph.KnowledgeGraph(40, 120, rng),
		graph.Molecule(20, rng),
		graph.New(),
	} {
		for _, levels := range []int{1, 2} {
			opts := Options{MaxLength: 3, Levels: levels}
			full := Sequentialize(g, opts)
			if full.NumPaths != len(full.Paths) || full.NumSuperPaths != len(full.SuperPaths) {
				t.Fatalf("full result counts %d/%d, built %d/%d", full.NumPaths, full.NumSuperPaths, len(full.Paths), len(full.SuperPaths))
			}
			head := SequentializeHead(g, opts, 5, 2)
			if head.NumPaths != full.NumPaths || head.NumSuperPaths != full.NumSuperPaths {
				t.Fatalf("levels=%d: head counts %d/%d, full %d/%d", levels, head.NumPaths, head.NumSuperPaths, full.NumPaths, full.NumSuperPaths)
			}
			if !samePaths(head.Paths, full.Paths[:min(5, len(full.Paths))]) ||
				!samePaths(head.SuperPaths, full.SuperPaths[:min(2, len(full.SuperPaths))]) {
				t.Fatalf("levels=%d: head %v / %v is not a prefix of the full cover", levels, head.Paths, head.SuperPaths)
			}
			// What the prompt prints from the head is what RenderAll prints
			// from the full cover.
			var b strings.Builder
			RenderHead(&b, g, head.Paths, head.NumPaths)
			if want := RenderAll(g, full.Paths, 5); b.String() != want {
				t.Fatalf("levels=%d: rendered head\n%s\nwant\n%s", levels, b.String(), want)
			}
		}
	}
}

func TestSuperGraphPartitionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	graphs := []*graph.Graph{
		graph.PlantedCommunities(4, 50, 0.3, 0.02, rng),
		graph.KnowledgeGraph(300, 900, rng),
		graph.Molecule(30, rng),
		graph.ErdosRenyi(60, 0.08, rng),
	}
	for i := 0; i < 100; i++ {
		graphs = append(graphs, randomGraph(rng))
	}
	for i, g := range graphs {
		super, members := SuperGraph(g)
		want := oracleMembers(g)
		if len(members) != len(want) || len(want) > 0 && !reflect.DeepEqual(members, want) {
			t.Fatalf("graph %d: partition differs from the map-based triangle loop\n got %v\nwant %v", i, members, want)
		}
		if super.NumNodes() != len(members) {
			t.Fatalf("graph %d: %d super-nodes for %d member sets", i, super.NumNodes(), len(members))
		}
		// SuperGraph took one of the two triangle merges by the graph's
		// density; both must draw that partition.
		c := g.Freeze()
		rows, words := testBitRows(c, c.UndirectedNeighbors)
		byBits, _ := motifSets(c, rows, words)
		byLists, _ := motifSets(c, nil, 0)
		if len(want) > 0 && (!reflect.DeepEqual(byBits, want) || !reflect.DeepEqual(byLists, want)) {
			t.Fatalf("graph %d: motif sets\n bit rows %v\n lists    %v\n want     %v", i, byBits, byLists, want)
		}
	}
}

// The kernel's scratch is pooled; concurrent bounded and full covers over one
// shared (interned-style) graph must each lease their own and agree with a
// result computed alone. Run under -race.
func TestConcurrentCoversShareNoScratch(t *testing.T) {
	g := graph.PlantedCommunities(3, 30, 0.3, 0.03, rand.New(rand.NewSource(23)))
	g.MarkShared()
	opts := Options{MaxLength: 3, Levels: 2}
	want := SequentializeHead(g, opts, 40, 20)
	wantFull := PathCover(g, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%4 == 0 {
					if got := PathCover(g, 3); !reflect.DeepEqual(got, wantFull) {
						t.Error("concurrent full cover diverged")
						return
					}
					continue
				}
				got := SequentializeHead(g, opts, 40, 20)
				if got.NumPaths != want.NumPaths || got.NumSuperPaths != want.NumSuperPaths ||
					!reflect.DeepEqual(got.Paths, want.Paths) || !reflect.DeepEqual(got.SuperPaths, want.SuperPaths) {
					t.Error("concurrent bounded cover diverged")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBenchShapesUseBitRows pins which kernel serves the graphs the repository
// benchmark uploads (bench/workload.go): every view the cold chat walks is dense enough for bit
// rows except the forward view of the 300-entity knowledge graph, whose mean
// out-degree of 3 is below its 5-word rows — the shape BenchmarkCoverCount
// shows losing on them, and the reason the rule has a density term at all.
func TestBenchShapesUseBitRows(t *testing.T) {
	type shape struct {
		name string
		g    *graph.Graph
	}
	rng := rand.New(rand.NewSource(24))
	shapes := []shape{
		{"mol20", graph.Molecule(20, rng)},
		{"mol40", graph.Molecule(40, rng)},
		{"sbm2x10", graph.PlantedCommunities(2, 10, .5, .05, rng)},
		{"sbm3x30", graph.PlantedCommunities(3, 30, .3, .03, rng)},
		{"sbm4x50", graph.PlantedCommunities(4, 50, .3, .02, rng)},
		{"kg120", graph.KnowledgeGraph(120, 360, rng)},
		{"kg300", graph.KnowledgeGraph(300, 900, rng)},
	}
	for _, s := range shapes[:len(shapes):len(shapes)] {
		// A super-graph that coarsens its graph is sequentialized too.
		if super, _ := SuperGraph(s.g); super.NumNodes() < s.g.NumNodes() && super.NumEdges() > 0 {
			shapes = append(shapes, shape{s.name + "_super", super})
		}
	}
	for _, s := range shapes {
		c := s.g.Freeze()
		_, fwd := c.OutBitRows(nil)
		_, und := c.UndirectedBitRows(nil)
		if wantFwd := s.name != "kg300"; (fwd > 0) != wantFwd || und == 0 {
			t.Errorf("%s (%d nodes, %d edges): bit rows for the path cover %v (want %v), for motifs and triangles %v (want true)",
				s.name, c.NumNodes(), s.g.NumEdges(), fwd > 0, wantFwd, und > 0)
		}
	}
}
