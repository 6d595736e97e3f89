package graph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file pins every CSR-rewritten algorithm to the output of the
// pre-refactor slice/map-based implementation (mirroring ann/parity_test.go):
// the naive* functions below are the seed's implementations, kept verbatim
// as executable specifications, and each parity test compares them against
// the frozen-CSR versions on random directed/undirected/weighted/
// disconnected/multigraph fixtures.

// naiveBFS is the seed's slice-queue BFS over Neighbors (which still sorts
// and allocates — exactly what the CSR traversal replaced).
func naiveBFS(g *Graph, start NodeID, visit func(id NodeID, depth int) bool) {
	if start < 0 || int(start) >= g.NumNodes() {
		return
	}
	seen := make([]bool, g.NumNodes())
	type qe struct {
		id NodeID
		d  int
	}
	queue := []qe{{start, 0}}
	seen[start] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !visit(cur.id, cur.d) {
			return
		}
		for _, nb := range g.Neighbors(cur.id) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, qe{nb, cur.d + 1})
			}
		}
	}
}

// naiveCoreNumbers is the seed's bucket-peeling implementation.
func naiveCoreNumbers(g *Graph) []int {
	n := g.NumNodes()
	deg := make([]int, n)
	und := make([][]NodeID, n)
	for _, e := range g.Edges() {
		und[e.From] = append(und[e.From], e.To)
		und[e.To] = append(und[e.To], e.From)
	}
	maxDeg := 0
	for i := range deg {
		deg[i] = len(und[i])
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	buckets := make([][]NodeID, maxDeg+1)
	for i, d := range deg {
		buckets[d] = append(buckets[d], NodeID(i))
	}
	core := make([]int, n)
	removed := make([]bool, n)
	cur := make([]int, n)
	copy(cur, deg)
	for d := 0; d <= maxDeg; d++ {
		for len(buckets[d]) > 0 {
			u := buckets[d][len(buckets[d])-1]
			buckets[d] = buckets[d][:len(buckets[d])-1]
			if removed[u] || cur[u] != d {
				continue
			}
			removed[u] = true
			core[u] = d
			for _, v := range und[u] {
				if removed[v] || cur[v] <= d {
					continue
				}
				cur[v]--
				buckets[cur[v]] = append(buckets[cur[v]], v)
			}
		}
	}
	return core
}

// naiveEccentricities is the seed's serial BFS-per-source implementation.
func naiveEccentricities(g *Graph) (ecc []int, radius, diameter int) {
	n := g.NumNodes()
	ecc = make([]int, n)
	radius = math.MaxInt
	for u := 0; u < n; u++ {
		max := 0
		naiveBFS(g, NodeID(u), func(_ NodeID, d int) bool {
			if d > max {
				max = d
			}
			return true
		})
		ecc[u] = max
		if max > diameter {
			diameter = max
		}
		if max > 0 && max < radius {
			radius = max
		}
	}
	if radius == math.MaxInt {
		radius = 0
	}
	return ecc, radius, diameter
}

// naiveCountTriangles is the seed's map-set implementation.
func naiveCountTriangles(g *Graph) (int, float64) {
	n := g.NumNodes()
	neigh := make([]map[NodeID]bool, n)
	for i := 0; i < n; i++ {
		neigh[i] = make(map[NodeID]bool)
	}
	for _, e := range g.Edges() {
		neigh[e.From][e.To] = true
		neigh[e.To][e.From] = true
	}
	triTotal := 0
	var ccSum float64
	ccCount := 0
	for u := 0; u < n; u++ {
		nbs := make([]NodeID, 0, len(neigh[u]))
		for v := range neigh[u] {
			nbs = append(nbs, v)
		}
		d := len(nbs)
		if d < 2 {
			continue
		}
		closed := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if neigh[nbs[i]][nbs[j]] {
					closed++
				}
			}
		}
		triTotal += closed
		ccSum += float64(closed) / (float64(d) * float64(d-1) / 2)
		ccCount++
	}
	cc := 0.0
	if ccCount > 0 {
		cc = ccSum / float64(ccCount)
	}
	return triTotal / 3, cc
}

// naiveApproxDiameter is the seed's double sweep over naiveBFS.
func naiveApproxDiameter(g *Graph, comps [][]NodeID) int {
	var largest []NodeID
	for _, c := range comps {
		if len(c) > len(largest) {
			largest = c
		}
	}
	if len(largest) == 0 {
		return 0
	}
	far := func(src NodeID) (NodeID, int) {
		best, bestD := src, 0
		naiveBFS(g, src, func(id NodeID, d int) bool {
			if d > bestD {
				best, bestD = id, d
			}
			return true
		})
		return best, bestD
	}
	x, _ := far(largest[0])
	_, d := far(x)
	return d
}

// naiveGreedyColoring is the seed's map-palette implementation over the
// undirected view. The seed read out-neighbours, which leaves a directed
// graph improperly colored; on an undirected graph the two views agree.
func naiveGreedyColoring(g *Graph) ([]int, int) {
	n := g.NumNodes()
	nbrs := make([][]NodeID, n)
	for _, e := range g.Edges() {
		nbrs[e.From] = append(nbrs[e.From], e.To)
		nbrs[e.To] = append(nbrs[e.To], e.From)
	}
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(nbrs[order[i]]), len(nbrs[order[j]])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	maxColor := -1
	for _, u := range order {
		taken := make(map[int]bool)
		for _, v := range nbrs[u] {
			if colors[v] >= 0 {
				taken[colors[v]] = true
			}
		}
		c := 0
		for taken[c] {
			c++
		}
		colors[u] = c
		if c > maxColor {
			maxColor = c
		}
	}
	return colors, maxColor + 1
}

// adjacencySets is the per-node map adjacency the seed's clique search and
// subgraph matcher read: forward edges, both directions when undirected.
func adjacencySets(g *Graph) []map[NodeID]bool {
	adj := make([]map[NodeID]bool, g.NumNodes())
	for i := range adj {
		adj[i] = make(map[NodeID]bool)
	}
	for _, e := range g.Edges() {
		adj[e.From][e.To] = true
		if !g.Directed() {
			adj[e.To][e.From] = true
		}
	}
	return adj
}

// naiveSubgraphIsomorphisms is the seed's matcher over adjacencySets. The
// seed took candidates from whichever mapped pattern neighbour map iteration
// met first, which on a directed host can change the candidate set; this
// copy takes the lowest, as the CSR matcher does. On undirected graphs every
// choice gives the same candidates.
func naiveSubgraphIsomorphisms(pattern, host *Graph, maxMatches int) []SubgraphMatch {
	if pattern.NumNodes() == 0 || pattern.NumNodes() > host.NumNodes() {
		return nil
	}
	patAdj, hostAdj := adjacencySets(pattern), adjacencySets(host)
	patCSR, hostCSR := pattern.Freeze(), host.Freeze()
	order := matchOrder(patCSR)
	mapping := make([]NodeID, pattern.NumNodes())
	for i := range mapping {
		mapping[i] = -1
	}
	used := make([]bool, host.NumNodes())
	var found []SubgraphMatch
	sortedKeys := func(m map[NodeID]bool) []NodeID {
		out := make([]NodeID, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	candidates := func(pu NodeID) []NodeID {
		for _, nb := range sortedKeys(patAdj[pu]) {
			if mapping[nb] >= 0 {
				var out []NodeID
				for _, h := range sortedKeys(hostAdj[mapping[nb]]) {
					if !used[h] {
						out = append(out, h)
					}
				}
				return out
			}
		}
		var out []NodeID
		for h := 0; h < host.NumNodes(); h++ {
			if !used[h] {
				out = append(out, NodeID(h))
			}
		}
		return out
	}
	feasible := func(pu, hv NodeID) bool {
		if p := pattern.Node(pu).Label; p != "" && p != host.Node(hv).Label {
			return false
		}
		if patCSR.OutDegree(pu) > hostCSR.OutDegree(hv) {
			return false
		}
		for nb := range patAdj[pu] {
			if img := mapping[nb]; img >= 0 && !hostAdj[hv][img] {
				return false
			}
		}
		return true
	}
	var search func(depth int) bool
	search = func(depth int) bool {
		if len(found) >= maxMatches {
			return true
		}
		if depth == len(order) {
			found = append(found, append(SubgraphMatch(nil), mapping...))
			return len(found) >= maxMatches
		}
		pu := order[depth]
		for _, cand := range candidates(pu) {
			if feasible(pu, cand) {
				mapping[pu], used[cand] = cand, true
				if search(depth + 1) {
					return true
				}
				mapping[pu], used[cand] = -1, false
			}
		}
		return false
	}
	search(0)
	return found
}

// naiveMaximalCliques is the seed's Bron–Kerbosch over adjacencySets.
func naiveMaximalCliques(g *Graph, maxCliques int) [][]NodeID {
	n := g.NumNodes()
	adj := adjacencySets(g)
	var out [][]NodeID
	var bk func(r, p, x []NodeID)
	bk = func(r, p, x []NodeID) {
		if maxCliques > 0 && len(out) >= maxCliques {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			clique := append([]NodeID(nil), r...)
			sort.Slice(clique, func(i, j int) bool { return clique[i] < clique[j] })
			out = append(out, clique)
			return
		}
		var pivot NodeID = -1
		best := -1
		for _, cand := range [][]NodeID{p, x} {
			for _, u := range cand {
				cnt := 0
				for _, v := range p {
					if adj[u][v] {
						cnt++
					}
				}
				if cnt > best {
					best, pivot = cnt, u
				}
			}
		}
		var frontier []NodeID
		for _, v := range p {
			if pivot < 0 || !adj[pivot][v] {
				frontier = append(frontier, v)
			}
		}
		for _, v := range frontier {
			var np, nx []NodeID
			for _, w := range p {
				if adj[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if adj[v][w] {
					nx = append(nx, w)
				}
			}
			bk(append(r, v), np, nx)
			for i, w := range p {
				if w == v {
					p = append(p[:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	bk(nil, all, nil)
	return out
}

// naiveConnectedComponents is the seed's edge-list DFS implementation.
func naiveConnectedComponents(g *Graph) [][]NodeID {
	n := g.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	und := make([][]NodeID, n)
	for _, e := range g.Edges() {
		und[e.From] = append(und[e.From], e.To)
		und[e.To] = append(und[e.To], e.From)
	}
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		stack := []NodeID{NodeID(s)}
		comp[s] = id
		var members []NodeID
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, v := range und[u] {
				if comp[v] < 0 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		comps = append(comps, members)
	}
	return comps
}

// naiveDijkstra is the seed's container/heap Dijkstra over the edge table.
type naiveDijkstraItem struct {
	node NodeID
	dist float64
}
type naiveDijkstraHeap []naiveDijkstraItem

func (h naiveDijkstraHeap) Len() int            { return len(h) }
func (h naiveDijkstraHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h naiveDijkstraHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *naiveDijkstraHeap) Push(x interface{}) { *h = append(*h, x.(naiveDijkstraItem)) }
func (h *naiveDijkstraHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func naiveWeightedShortestPath(g *Graph, src, dst NodeID) ([]NodeID, float64) {
	n := g.NumNodes()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, math.Inf(1)
	}
	dist := make([]float64, n)
	parent := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	h := &naiveDijkstraHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(naiveDijkstraItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, e := range g.Edges() {
			var v NodeID
			switch {
			case e.From == it.node:
				v = e.To
			case !g.Directed() && e.To == it.node:
				v = e.From
			default:
				continue
			}
			w := e.Weight
			if w < 0 {
				w = 0
			}
			if nd := it.dist + w; nd < dist[v] {
				dist[v] = nd
				parent[v] = it.node
				heap.Push(h, naiveDijkstraItem{v, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	var rev []NodeID
	for cur := dst; cur != -1; cur = parent[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[dst]
}

// naiveClassify is the seed's direct-scan classifier, with one change: a
// directed graph needs an edge before its relation labels can make it a
// knowledge graph (with m = 0, relLabeled*2 >= m held for every edgeless
// directed graph).
func naiveClassify(g *Graph) Kind {
	if g.NumNodes() == 0 {
		return KindUnknown
	}
	elementish, typed, relLabeled := 0, 0, 0
	for _, n := range g.Nodes() {
		if isElementSymbol(n.Label) || n.Attrs["element"] != "" {
			elementish++
		}
		if t := n.Attrs["type"]; t == "person" || t == "place" || t == "org" {
			typed++
		}
	}
	for _, e := range g.Edges() {
		if e.Label != "" && e.Label != "bond" {
			relLabeled++
		}
	}
	n := g.NumNodes()
	switch {
	case elementish*2 >= n:
		return KindMolecule
	case g.Directed() && (g.NumEdges() > 0 && relLabeled*2 >= g.NumEdges() || typed*2 >= n):
		return KindKnowledge
	case typed*2 >= n:
		return KindKnowledge
	default:
		return KindSocial
	}
}

// DisjointUnion builds the disconnected fixtures: copies of a then b with b's
// IDs shifted by a.NumNodes(). Directedness must match.
func DisjointUnion(a, b *Graph) (*Graph, error) {
	if a.directed != b.directed {
		return nil, fmt.Errorf("graph: cannot union directed with undirected")
	}
	u := &Graph{Name: a.Name + "+" + b.Name, directed: a.directed}
	u.Grow(a.NumNodes()+b.NumNodes(), a.NumEdges()+b.NumEdges())
	for _, n := range a.Nodes() {
		u.AddNodeAttrs(n.Label, n.Attrs)
	}
	offset := NodeID(a.NumNodes())
	for _, n := range b.Nodes() {
		u.AddNodeAttrs(n.Label, n.Attrs)
	}
	for _, e := range a.Edges() {
		u.AddEdgeLabeled(e.From, e.To, e.Label, e.Weight) //nolint:errcheck
	}
	for _, e := range b.Edges() {
		u.AddEdgeLabeled(e.From+offset, e.To+offset, e.Label, e.Weight) //nolint:errcheck
	}
	return u, nil
}

// parityFixtures builds the random graph zoo every parity test runs over:
// undirected/directed, weighted, disconnected, multi-edge, attribute-heavy,
// plus the degenerate empty and singleton cases.
func parityFixtures(t *testing.T) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	fixtures := map[string]*Graph{
		"empty":     New(),
		"singleton": New(),
	}
	fixtures["singleton"].AddNode("only")

	random := func(n, m int, directed, weighted, parallelEdges bool) *Graph {
		var g *Graph
		if directed {
			g = NewDirected()
		} else {
			g = New()
		}
		labels := []string{"alice", "C", "server", "N", "bob", ""}
		types := []string{"person", "place", "org", ""}
		rels := []string{"knows", "located_in", "part_of", ""}
		for i := 0; i < n; i++ {
			id := g.AddNode(labels[rng.Intn(len(labels))])
			if tp := types[rng.Intn(len(types))]; tp != "" && rng.Intn(2) == 0 {
				g.SetNodeAttr(id, "type", tp)
			}
		}
		for len(g.Edges()) < m {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			if !parallelEdges && g.HasEdge(u, v) {
				continue
			}
			w := 1.0
			if weighted {
				w = 0.25 + 2*rng.Float64()
			}
			g.AddEdgeLabeled(u, v, rels[rng.Intn(len(rels))], w) //nolint:errcheck
		}
		return g
	}
	fixtures["undirected_sparse"] = random(40, 60, false, false, false)
	fixtures["undirected_weighted"] = random(50, 120, false, true, false)
	fixtures["undirected_multi"] = random(30, 70, false, true, true)
	fixtures["directed_sparse"] = random(40, 80, true, false, false)
	fixtures["directed_weighted_multi"] = random(35, 90, true, true, true)
	fixtures["ba_social"] = BarabasiAlbert(80, 3, rng)
	fixtures["molecule"] = Molecule(30, rng)
	fixtures["kg"] = KnowledgeGraph(40, 90, rng)

	// Disconnected: three undirected blobs plus isolated nodes.
	blob := random(15, 25, false, true, false)
	blob2 := random(12, 20, false, true, false)
	u1, err := DisjointUnion(blob, blob2)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := DisjointUnion(u1, random(8, 10, false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	u2.AddNode("iso1")
	u2.AddNode("iso2")
	fixtures["undirected_disconnected"] = u2

	// Disconnected directed.
	d1 := random(12, 30, true, true, false)
	d2 := random(10, 18, true, false, false)
	du, err := DisjointUnion(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	du.AddNode("iso")
	fixtures["directed_disconnected"] = du

	// Directed, hand-built: parallel edges (0→1 twice, 3→2 three times), a
	// node with out-edges only (4), a cycle and an isolated node — the
	// shapes CSR.InDegree must count right from the undirected and out rows.
	dm := NewDirected()
	for i := 0; i < 6; i++ {
		dm.AddNode("")
	}
	for _, e := range [][2]NodeID{{0, 1}, {0, 1}, {1, 2}, {2, 0}, {3, 2}, {3, 2}, {3, 2}, {4, 0}, {4, 3}, {2, 3}} {
		dm.AddEdge(e[0], e[1]) //nolint:errcheck // endpoints valid by construction
	}
	fixtures["directed_multi_source"] = dm
	return fixtures
}

// bfsVisit is one node of a walk and its hop distance from the source.
type bfsVisit struct {
	id NodeID
	d  int
}

// queueOrder runs the production queue walk from src over the forward rows
// and returns the reached nodes in visit order with their depths.
func queueOrder(g *Graph, src NodeID) []bfsVisit {
	if !g.valid(src) {
		return nil
	}
	c := g.Freeze()
	sc := getTrav(c.n)
	defer putTrav(sc)
	var out []bfsVisit
	for _, u := range c.bfs(int32(src), sc, c.offsets, c.targets, allDepths) {
		out = append(out, bfsVisit{NodeID(u), int(sc.depths[u])})
	}
	return out
}

// TestBFSParity pins the queue walk's visit order and depths to the naive
// slice-queue BFS.
func TestBFSParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		for _, src := range []NodeID{0, NodeID(g.NumNodes() / 2), NodeID(g.NumNodes() - 1)} {
			var want []bfsVisit
			naiveBFS(g, src, func(id NodeID, d int) bool { want = append(want, bfsVisit{id, d}); return true })
			if got := queueOrder(g, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s src=%d: BFS order %v, want %v", name, src, got, want)
			}
		}
	}
}

// naiveKHopSubgraphNodes is KHopSubgraphNodes as it was on the callback
// walk: visit in BFS order, stop at the first node deeper than l, sort.
func naiveKHopSubgraphNodes(g *Graph, u NodeID, l int) []NodeID {
	var out []NodeID
	naiveBFS(g, u, func(id NodeID, depth int) bool {
		if depth > l {
			return false
		}
		out = append(out, id)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestKHopSubgraphNodesParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		n := g.NumNodes()
		for u := 0; u < n; u++ {
			// n exceeds every fixture's diameter; MaxInt exceeds the walk's
			// int32 depths; a negative radius reaches nothing.
			for _, l := range []int{-1, 0, 1, 2, 3, n, math.MaxInt} {
				got, want := g.KHopSubgraphNodes(NodeID(u), l), naiveKHopSubgraphNodes(g, NodeID(u), l)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: KHopSubgraphNodes(%d, %d) = %v, want %v", name, u, l, got, want)
				}
			}
		}
	}
}

// naiveShortestPath is the private queue loop path.shortest ran before it
// moved onto the shared walk, kept verbatim: parents set on discovery, the
// walk stopping at dst.
func naiveShortestPath(g *Graph, src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	parent := make([]NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	c := g.Freeze()
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range c.OutNeighbors(u) {
			if parent[v] >= 0 {
				continue
			}
			parent[v] = u
			if v == dst {
				var rev []NodeID
				for cur := dst; cur != src; cur = parent[cur] {
					rev = append(rev, cur)
				}
				rev = append(rev, src)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, v)
		}
	}
	return nil
}

func TestShortestPathParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		n := g.NumNodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				got, want := ShortestPath(g, NodeID(src), NodeID(dst)), naiveShortestPath(g, NodeID(src), NodeID(dst))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ShortestPath(%d, %d) = %v, want %v", name, src, dst, got, want)
				}
			}
		}
	}
}

// TestShortestPathUnreachableTarget: a target the walk never reaches has no path,
// whether it sits in another component or only behind an edge's tail.
func TestShortestPathUnreachableTarget(t *testing.T) {
	fixtures := parityFixtures(t)
	und := fixtures["undirected_disconnected"]
	iso := NodeID(und.NumNodes() - 1) // the last node added is isolated
	if got := ShortestPath(und, 0, iso); got != nil {
		t.Fatalf("undirected_disconnected: ShortestPath(0, %d) = %v, want nil", iso, got)
	}
	// directed_multi_source: 4 has out-edges only, so nothing reaches it.
	dm := fixtures["directed_multi_source"]
	if got := ShortestPath(dm, 0, 4); got != nil {
		t.Fatalf("directed_multi_source: ShortestPath(0, 4) = %v, want nil", got)
	}
	if got, want := ShortestPath(dm, 4, 2), naiveShortestPath(dm, 4, 2); !reflect.DeepEqual(got, want) || got == nil {
		t.Fatalf("directed_multi_source: ShortestPath(4, 2) = %v, want %v", got, want)
	}
}

// naiveCloseness is centrality.closeness as it ran before it moved onto the
// shared walk, kept verbatim: one allocated hop-count slice per source.
func naiveCloseness(g *Graph) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		dist := g.ShortestPathLengths(NodeID(u))
		sum, reach := 0, 0
		for _, d := range dist {
			if d > 0 {
				sum += d
				reach++
			}
		}
		if sum > 0 {
			out[u] = float64(reach) / float64(sum) * float64(reach) / float64(n-1)
		}
	}
	return out
}

func TestClosenessParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		got, want := Closeness(g), naiveCloseness(g)
		if len(got) != len(want) {
			t.Fatalf("%s: Closeness has %d scores, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: Closeness[%d] = %v, want %v (bitwise)", name, i, got[i], want[i])
			}
		}
	}
}

// naiveBetweenness is centrality.betweenness as it ran in internal/apis
// before it moved onto the shared walk, kept verbatim: its own slice queue,
// per-node predecessor slices and fresh σ, distance and δ arrays per source.
func naiveBetweenness(g *Graph) []float64 {
	n := g.NumNodes()
	c := g.Freeze()
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		// Single-source shortest paths with path counting.
		var stack []int
		preds := make([][]int, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range c.OutNeighbors(NodeID(v)) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, int(w))
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	// Undirected: each pair counted twice.
	if !g.Directed() {
		for i := range bc {
			bc[i] /= 2
		}
	}
	return bc
}

func TestBetweennessParity(t *testing.T) {
	fixtures := parityFixtures(t)
	rng := rand.New(rand.NewSource(11))
	fixtures["ba300"] = BarabasiAlbert(300, 3, rng)
	fixtures["sbm4x50"] = PlantedCommunities(4, 50, 0.3, 0.02, rng)
	for name, g := range fixtures {
		got, want := Betweenness(g), naiveBetweenness(g)
		if len(got) != len(want) {
			t.Fatalf("%s: Betweenness has %d scores, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: Betweenness[%d] = %v, want %v (bitwise)", name, i, got[i], want[i])
			}
		}
	}
}

func TestCoreNumbersParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		if got, want := CoreNumbers(g), naiveCoreNumbers(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CoreNumbers = %v, want %v", name, got, want)
		}
	}
}

func TestEccentricitiesParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		ecc, r, d := Eccentricities(g)
		wantEcc, wantR, wantD := naiveEccentricities(g)
		if !reflect.DeepEqual(ecc, wantEcc) || r != wantR || d != wantD {
			t.Fatalf("%s: Eccentricities = (%v,%d,%d), want (%v,%d,%d)", name, ecc, r, d, wantEcc, wantR, wantD)
		}
	}
}

func TestTrianglesParity(t *testing.T) {
	fixtures := parityFixtures(t)
	// The serving benchmark's large uploads, and graphs whose bit rows span
	// two and three words, one of them directed with parallel edges.
	rng := rand.New(rand.NewSource(8))
	fixtures["sbm4x50"] = PlantedCommunities(4, 50, .3, .02, rng)
	fixtures["kg300"] = KnowledgeGraph(300, 900, rng)
	fixtures["er100"] = ErdosRenyi(100, .1, rng)
	multi := NewDirected()
	for i := 0; i < 150; i++ {
		multi.AddNode("")
	}
	for i := 0; i < 900; i++ {
		u, v := NodeID(rng.Intn(150)), NodeID(rng.Intn(150))
		if multi.AddEdge(u, v) == nil && i%5 == 0 {
			multi.AddEdge(v, u) //nolint:errcheck
			multi.AddEdge(u, v) //nolint:errcheck
		}
	}
	fixtures["directed_multi150"] = multi
	for name, g := range fixtures {
		c := g.Freeze()
		tri, cc := c.countTriangles()
		wantTri, wantCC := naiveCountTriangles(g)
		if tri != wantTri {
			t.Fatalf("%s: triangles = %d, want %d", name, tri, wantTri)
		}
		if math.Abs(cc-wantCC) > 1e-12 {
			t.Fatalf("%s: clustering = %v, want %v", name, cc, wantCC)
		}
		// countTriangles took one kernel by the graph's density; the other
		// must agree with it to the last bit.
		bitTri, bitCC := c.triangleStats(true)
		listTri, listCC := c.triangleStats(false)
		if bitTri != listTri || math.Float64bits(bitCC) != math.Float64bits(listCC) || tri != listTri || cc != listCC {
			t.Fatalf("%s: bit rows (%d, %v), lists (%d, %v), chosen (%d, %v)", name, bitTri, bitCC, listTri, listCC, tri, cc)
		}
	}
}

// TestBenchShapesUseBitRows pins which triangle kernel serves the graphs the
// repository benchmark uploads (bench/workload.go): the undirected view of
// every shape is dense enough for bit rows, the 300-entity knowledge graph's
// included.
func TestBenchShapesUseBitRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, s := range []struct {
		name string
		g    *Graph
	}{
		{"mol20", Molecule(20, rng)},
		{"mol40", Molecule(40, rng)},
		{"sbm2x10", PlantedCommunities(2, 10, .5, .05, rng)},
		{"sbm3x30", PlantedCommunities(3, 30, .3, .03, rng)},
		{"sbm4x50", PlantedCommunities(4, 50, .3, .02, rng)},
		{"kg120", KnowledgeGraph(120, 360, rng)},
		{"kg300", KnowledgeGraph(300, 900, rng)},
	} {
		c := s.g.Freeze()
		if !bitRowsPay(c.n, len(c.utargets)) {
			t.Errorf("%s (%d nodes, %d edges): triangles by neighbour lists, want bit rows", s.name, c.n, s.g.NumEdges())
		}
	}
}

func TestApproxDiameterParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		comps := g.ConnectedComponents()
		if got, want := g.Freeze().approxDiameter(comps), naiveApproxDiameter(g, comps); got != want {
			t.Fatalf("%s: approxDiameter = %d, want %d", name, got, want)
		}
	}
}

func TestGreedyColoringParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		colors, k := GreedyColoring(g)
		wantColors, wantK := naiveGreedyColoring(g)
		if !reflect.DeepEqual(colors, wantColors) || k != wantK {
			t.Fatalf("%s: GreedyColoring = (%v,%d), want (%v,%d)", name, colors, k, wantColors, wantK)
		}
	}
}

func TestMaximalCliquesParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		for _, max := range []int{0, 5} {
			got := MaximalCliques(g, max)
			want := naiveMaximalCliques(g, max)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s max=%d: MaximalCliques = %v, want %v", name, max, got, want)
			}
		}
	}
}

// The CSR matcher returns the seed's matches in the seed's order: random
// labelled patterns against the parity fixtures, directed and multigraph ones
// included, and functional-group-sized paths against a molecule.
func TestSubgraphIsomorphismParity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	labels := []string{"", "C", "O"}
	for name, host := range parityFixtures(t) {
		if host.NumNodes() < 2 {
			continue
		}
		for i := 0; i < 20; i++ {
			pattern := NewDirected()
			if !host.Directed() {
				pattern = New()
			}
			k := 2 + rng.Intn(3)
			for j := 0; j < k; j++ {
				pattern.AddNode(labels[rng.Intn(len(labels))])
			}
			for e := rng.Intn(2 * k); e > 0; e-- {
				pattern.AddEdge(NodeID(rng.Intn(k)), NodeID(rng.Intn(k))) //nolint:errcheck // self-loops rejected
			}
			for _, max := range []int{1, 64} {
				got := FindSubgraphIsomorphisms(pattern, host, IsoOptions{MaxMatches: max})
				if want := naiveSubgraphIsomorphisms(pattern, host, max); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pattern %d max=%d: matches %v, want %v", name, i, max, got, want)
				}
			}
		}
	}
	mol := Molecule(30, rng)
	for _, pattern := range []*Graph{labeledPath("C", "O"), labeledPath("C", "O", "C"), labeledPath("", "", "", "")} {
		got := FindSubgraphIsomorphisms(pattern, mol, IsoOptions{MaxMatches: 64})
		if want := naiveSubgraphIsomorphisms(pattern, mol, 64); !reflect.DeepEqual(got, want) {
			t.Fatalf("molecule: matches %v, want %v", got, want)
		}
	}
}

func TestConnectedComponentsParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		if got, want := g.ConnectedComponents(), naiveConnectedComponents(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ConnectedComponents = %v, want %v", name, got, want)
		}
	}
}

// pathWeight sums, for each hop of path, the minimum weight among the edges
// that could have carried it — what any correct Dijkstra relaxes over.
func pathWeight(t *testing.T, g *Graph, name string, path []NodeID) float64 {
	t.Helper()
	total := 0.0
	for i := 1; i < len(path); i++ {
		best := math.Inf(1)
		for _, e := range g.Edges() {
			match := e.From == path[i-1] && e.To == path[i] ||
				!g.Directed() && e.From == path[i] && e.To == path[i-1]
			if !match {
				continue
			}
			w := e.Weight
			if w < 0 {
				w = 0
			}
			if w < best {
				best = w
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("%s: path hop %v->%v has no edge", name, path[i-1], path[i])
		}
		total += best
	}
	return total
}

func TestWeightedShortestPathParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		n := g.NumNodes()
		pairs := [][2]NodeID{{0, NodeID(n - 1)}, {NodeID(n / 2), 0}, {NodeID(n / 3), NodeID(2 * n / 3)}, {-1, 0}, {0, NodeID(n)}}
		for _, pr := range pairs {
			got, gw := WeightedShortestPath(g, pr[0], pr[1])
			want, ww := naiveWeightedShortestPath(g, pr[0], pr[1])
			if (got == nil) != (want == nil) {
				t.Fatalf("%s %v: path=%v, naive=%v", name, pr, got, want)
			}
			if got == nil {
				continue
			}
			if math.Abs(gw-ww) > 1e-9 {
				t.Fatalf("%s %v: weight %v, want %v", name, pr, gw, ww)
			}
			// Equal-weight ties may pick different routes; both must be real
			// paths of the claimed (optimal) weight with the right endpoints.
			if got[0] != pr[0] || got[len(got)-1] != pr[1] {
				t.Fatalf("%s %v: path endpoints %v", name, pr, got)
			}
			if w := pathWeight(t, g, name, got); math.Abs(w-gw) > 1e-9 {
				t.Fatalf("%s %v: claimed weight %v but edges sum to %v (path %v)", name, pr, gw, w, got)
			}
		}
	}
}

func TestComputeStatsParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		s := ComputeStats(g)
		// Reassemble the seed's Stats from the naive pieces.
		n, m := g.NumNodes(), g.NumEdges()
		if s.Nodes != n || s.Edges != m || s.Directed != g.Directed() {
			t.Fatalf("%s: size fields %+v", name, s)
		}
		if n == 0 {
			continue
		}
		minD, maxD := math.MaxInt, 0
		var sum, sumSq float64
		labelCounts := map[string]int{}
		for _, nd := range g.Nodes() {
			d := g.Degree(nd.ID)
			if g.Directed() {
				d += len(g.InNeighbors(nd.ID))
			}
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
			sum += float64(d)
			sumSq += float64(d) * float64(d)
			labelCounts[nd.Label]++
		}
		if s.MinDegree != minD || s.MaxDegree != maxD {
			t.Fatalf("%s: degree extremes (%d,%d), want (%d,%d)", name, s.MinDegree, s.MaxDegree, minD, maxD)
		}
		if math.Abs(s.MeanDegree-sum/float64(n)) > 1e-12 {
			t.Fatalf("%s: mean degree %v", name, s.MeanDegree)
		}
		if !reflect.DeepEqual(s.LabelCounts, labelCounts) {
			t.Fatalf("%s: label counts %v, want %v", name, s.LabelCounts, labelCounts)
		}
		comps := naiveConnectedComponents(g)
		largest := 0
		for _, c := range comps {
			if len(c) > largest {
				largest = len(c)
			}
		}
		if s.Components != len(comps) || s.LargestComponent != largest {
			t.Fatalf("%s: components (%d,%d), want (%d,%d)", name, s.Components, s.LargestComponent, len(comps), largest)
		}
		tri, cc := naiveCountTriangles(g)
		if s.Triangles != tri || math.Abs(s.ClusteringCoeff-cc) > 1e-12 {
			t.Fatalf("%s: triangles (%d,%v), want (%d,%v)", name, s.Triangles, s.ClusteringCoeff, tri, cc)
		}
		if want := naiveApproxDiameter(g, comps); s.ApproxDiameter != want {
			t.Fatalf("%s: approx diameter %d, want %d", name, s.ApproxDiameter, want)
		}
	}
}

func TestClassifyParity(t *testing.T) {
	for name, g := range parityFixtures(t) {
		if got, want := Classify(g), naiveClassify(g); got != want {
			t.Fatalf("%s: Classify = %v, want %v", name, got, want)
		}
	}
}

// TestFreezeInvalidation: a mutation must produce a fresh CSR and fresh
// memoized stats; an unmutated graph must share one CSR.
func TestFreezeInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := BarabasiAlbert(30, 2, rng)
	c1 := g.Freeze()
	if c2 := g.Freeze(); c1 != c2 {
		t.Fatal("Freeze rebuilt the CSR without a mutation")
	}
	before := ComputeStats(g)
	v := g.Version()
	if err := g.AddEdge(0, NodeID(g.NumNodes()-1)); err != nil {
		// Possibly already present; relabel instead — any mutation bumps.
		g.SetNodeLabel(0, "renamed")
	}
	if g.Version() == v {
		t.Fatal("mutation did not bump the version")
	}
	if c3 := g.Freeze(); c3 == c1 {
		t.Fatal("Freeze returned a stale CSR after mutation")
	}
	after := ComputeStats(g)
	if reflect.DeepEqual(before, after) {
		t.Fatal("stats identical after mutation — cache not invalidated")
	}
	_ = fmt.Sprintf("%v", after)
}
