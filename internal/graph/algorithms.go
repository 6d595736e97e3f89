package graph

import (
	"math"
	"sort"
)

// Additional whole-graph algorithms backing the extended API catalog:
// k-core decomposition, maximal cliques, degree assortativity, weighted
// shortest paths, eccentricity/radius/center, greedy coloring, and minimum
// spanning trees. All operate on the undirected view unless noted.
//
// Every traversal-heavy algorithm here runs on the frozen CSR view
// (Graph.Freeze) with pooled scratch, on its caller's goroutine — the same
// flat-contiguous + pooled-scratch recipe the vector layer uses. The only
// parallelism is between requests.

// CoreNumbers returns, for every node, the largest k such that the node
// belongs to the k-core (the maximal subgraph with minimum degree ≥ k),
// using the Matula–Beck peeling order in O(V + E) over the undirected CSR
// view. Parallel edges each count toward the degree, matching the
// edge-list-based implementation this replaced.
func CoreNumbers(g *Graph) []int {
	c := g.Freeze()
	n := c.n
	core := make([]int, n)
	if n == 0 {
		return core
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for i := 0; i < n; i++ {
		deg[i] = int32(c.undDegree(NodeID(i)))
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	// Counting-sort nodes by degree: bin[d] is the start of degree-d nodes
	// in vert; pos[v] is v's index in vert.
	bin := make([]int32, maxDeg+2)
	for _, d := range deg {
		bin[d+1]++
	}
	for d := int32(0); d <= maxDeg; d++ {
		bin[d+1] += bin[d]
	}
	vert := make([]int32, n)
	pos := make([]int32, n)
	fill := make([]int32, maxDeg+1)
	copy(fill, bin[:maxDeg+1])
	for v := int32(0); int(v) < n; v++ {
		p := fill[deg[v]]
		fill[deg[v]]++
		vert[p] = v
		pos[v] = p
	}
	// Peel in nondecreasing degree order; when u is removed, each heavier
	// neighbor loses one degree and swaps down into the next bucket.
	for i := 0; i < n; i++ {
		u := vert[i]
		core[u] = int(deg[u])
		for _, vn := range c.UndirectedNeighbors(NodeID(u)) {
			v := int32(vn)
			if deg[v] > deg[u] {
				dv := deg[v]
				pv := pos[v]
				pw := bin[dv]
				w := vert[pw]
				if v != w {
					vert[pv], vert[pw] = w, v
					pos[v], pos[w] = pw, pv
				}
				bin[dv]++
				deg[v]--
			}
		}
	}
	return core
}

// bitAdjacencyMaxNodes bounds the dense n×n bitset the clique search
// prefers: 4096 nodes cost 2 MB. Above it, membership falls back to binary
// search over the sorted CSR rows — O(log d) per test, no extra memory —
// instead of allocating O(n²) bits for a sparse upload.
const bitAdjacencyMaxNodes = 4096

// adjacencyTest returns an O(1)-ish membership test over the forward
// adjacency (asymmetric for directed graphs, matching the adjacency sets the
// map-based clique search and subgraph matcher used).
func adjacencyTest(c *CSR) func(u, v NodeID) bool {
	if c.n > bitAdjacencyMaxNodes {
		return sparseAdjacencyTest(c)
	}
	return denseAdjacencyTest(c)
}

// sparseAdjacencyTest binary-searches the sorted CSR row: O(log d) per
// test, zero extra memory.
func sparseAdjacencyTest(c *CSR) func(u, v NodeID) bool {
	return func(u, v NodeID) bool {
		row := c.OutNeighbors(u)
		lo, hi := 0, len(row)
		for lo < hi {
			mid := (lo + hi) / 2
			if row[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(row) && row[lo] == v
	}
}

// denseAdjacencyTest materializes the n×n bitset: O(1) per test,
// n²/8 bytes.
func denseAdjacencyTest(c *CSR) func(u, v NodeID) bool {
	words := (c.n + 63) / 64
	bits := make([]uint64, c.n*words)
	for u := 0; u < c.n; u++ {
		row := bits[u*words : (u+1)*words]
		for _, v := range c.OutNeighbors(NodeID(u)) {
			row[int(v)>>6] |= 1 << (uint(v) & 63)
		}
	}
	return func(u, v NodeID) bool {
		return bits[int(u)*words+int(v)>>6]&(1<<(uint(v)&63)) != 0
	}
}

// MaximalCliques enumerates all maximal cliques with Bron–Kerbosch and
// pivoting, stopping after maxCliques (0 = unlimited). Cliques are returned
// with sorted members. Adjacency tests run against a dense bitset (small
// graphs) or binary search over the frozen CSR rows (large ones); the
// recursion structure (and therefore the output order) matches the
// map-based implementation this replaced.
func MaximalCliques(g *Graph, maxCliques int) [][]NodeID {
	c := g.Freeze()
	n := c.n
	adj := adjacencyTest(c)
	var out [][]NodeID
	var bk func(r, p, x []NodeID)
	bk = func(r, p, x []NodeID) {
		if maxCliques > 0 && len(out) >= maxCliques {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			clique := append([]NodeID(nil), r...)
			sortNodeIDs(clique)
			out = append(out, clique)
			return
		}
		// Pivot: the vertex of p ∪ x with most neighbors in p.
		var pivot NodeID = -1
		best := -1
		for _, cand := range [][]NodeID{p, x} {
			for _, u := range cand {
				cnt := 0
				for _, v := range p {
					if adj(u, v) {
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
			if pivot < 0 || !adj(pivot, v) {
				frontier = append(frontier, v)
			}
		}
		for _, v := range frontier {
			var np, nx []NodeID
			for _, w := range p {
				if adj(v, w) {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if adj(v, w) {
					nx = append(nx, w)
				}
			}
			bk(append(r, v), np, nx)
			// Move v from p to x.
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

// Assortativity returns the Pearson degree-assortativity coefficient over
// the edges: positive when high-degree nodes attach to high-degree nodes
// (typical of collaboration networks), negative for hub-and-spoke
// topologies. Returns 0 for graphs with fewer than 2 edges.
func Assortativity(g *Graph) float64 {
	m := g.NumEdges()
	if m < 2 {
		return 0
	}
	deg := make([]float64, g.NumNodes())
	for _, e := range g.Edges() {
		deg[e.From]++
		deg[e.To]++
	}
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	count := 0.0
	for _, e := range g.Edges() {
		// Each undirected edge contributes both orientations so the
		// coefficient is symmetric.
		for _, pair := range [2][2]float64{{deg[e.From], deg[e.To]}, {deg[e.To], deg[e.From]}} {
			x, y := pair[0], pair[1]
			sumXY += x * y
			sumX += x
			sumY += y
			sumX2 += x * x
			sumY2 += y * y
			count++
		}
	}
	num := sumXY/count - (sumX/count)*(sumY/count)
	denX := sumX2/count - (sumX/count)*(sumX/count)
	denY := sumY2/count - (sumY/count)*(sumY/count)
	den := math.Sqrt(denX * denY)
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedShortestPath returns the minimum-weight path from src to dst using
// edge weights (Dijkstra; negative weights are clamped to 0) and its total
// weight. A nil path means unreachable. Distance, parent, and heap state all
// come from the pooled traversal scratch; only the returned path allocates.
func WeightedShortestPath(g *Graph, src, dst NodeID) ([]NodeID, float64) {
	c := g.Freeze()
	n := c.n
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, math.Inf(1)
	}
	sc := getTrav(n)
	defer putTrav(sc)
	dist := sc.floats(n)
	parent := sc.parents(n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	h := sc.heap[:0]
	defer func() { sc.heap = h[:0] }()
	heapPush(&h, heapEntry{int32(src), 0})
	for len(h) > 0 {
		it := heapPop(&h)
		if it.dist > dist[it.node] {
			continue
		}
		if NodeID(it.node) == dst {
			break
		}
		row := c.OutNeighbors(NodeID(it.node))
		ws := c.OutWeights(NodeID(it.node))
		for i, v := range row {
			w := ws[i]
			if w < 0 {
				w = 0
			}
			if nd := it.dist + w; nd < dist[v] {
				dist[v] = nd
				parent[v] = it.node
				heapPush(&h, heapEntry{int32(v), nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	total := dist[dst]
	// Walk the parent chain once to size the path exactly, then fill it
	// back-to-front — one allocation for the returned path.
	hops := 1
	for cur := dst; cur != src && parent[cur] != -1; cur = NodeID(parent[cur]) {
		hops++
	}
	path := make([]NodeID, hops)
	cur := dst
	for i := hops - 1; i >= 0; i-- {
		path[i] = cur
		if cur != src {
			cur = NodeID(parent[cur])
		}
	}
	return path, total
}

// Eccentricities returns each node's eccentricity (max BFS distance to any
// reachable node), plus the radius (min positive eccentricity) and diameter
// (max eccentricity). Isolated nodes get eccentricity 0. One BFS per source
// runs over one pooled scratch lease (each sweep starts a fresh visited
// epoch), so the whole computation allocates only the eccentricity slice.
func Eccentricities(g *Graph) (ecc []int, radius, diameter int) {
	c := g.Freeze()
	n := c.n
	ecc = make([]int, n)
	sc := getTrav(n)
	for u := range ecc {
		ecc[u] = int(c.eccFrom(int32(u), sc))
	}
	putTrav(sc)
	radius = math.MaxInt
	for _, e := range ecc {
		if e > diameter {
			diameter = e
		}
		if e > 0 && e < radius {
			radius = e
		}
	}
	if radius == math.MaxInt {
		radius = 0
	}
	return ecc, radius, diameter
}

// GreedyColoring colors nodes in descending-degree order with the smallest
// available color, returning per-node colors and the color count, so that no
// edge of either direction joins two nodes of one color. Optimal
// only for special graphs, but a standard quality/speed tradeoff. The
// per-node "colors taken by neighbors" set is a stamped scratch array, not a
// map, so coloring allocates only the order and color slices.
func GreedyColoring(g *Graph) ([]int, int) {
	c := g.Freeze()
	n := c.n
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := c.undDegree(order[i]), c.undDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	sc := getTrav(n)
	defer putTrav(sc)
	taken := sc.intMarks(n + 1)
	for i := range taken {
		taken[i] = -1
	}
	maxColor := -1
	for round, u := range order {
		stamp := int32(round)
		for _, v := range c.UndirectedNeighbors(u) {
			if colors[v] >= 0 {
				taken[colors[v]] = stamp
			}
		}
		col := 0
		for taken[col] == stamp {
			col++
		}
		colors[u] = col
		if col > maxColor {
			maxColor = col
		}
	}
	return colors, maxColor + 1
}

// MinimumSpanningForest returns the edges of a minimum-weight spanning
// forest (Kruskal) and its total weight.
func MinimumSpanningForest(g *Graph) ([]Edge, float64) {
	edges := append([]Edge(nil), g.Edges()...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight < edges[j].Weight
		}
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	parent := make([]int, g.NumNodes())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var out []Edge
	var total float64
	for _, e := range edges {
		ra, rb := find(int(e.From)), find(int(e.To))
		if ra == rb {
			continue
		}
		parent[ra] = rb
		out = append(out, e)
		total += e.Weight
	}
	return out, total
}
