package graph

import (
	"math"
	"slices"
	"sort"

	"chatgraph/internal/heap"
)

// Additional whole-graph algorithms backing the API catalog: k-core
// decomposition, maximal cliques, degree assortativity, weighted and
// unweighted shortest paths, closeness, eccentricity/radius/center, greedy
// coloring, and minimum spanning trees. All operate on the undirected view
// unless noted.
//
// Every traversal-heavy algorithm here runs on the frozen CSR view
// (Graph.Freeze) with pooled scratch, on its caller's goroutine — the same
// flat-contiguous + pooled-scratch recipe the vector layer uses. The
// unweighted ones read what they need off CSR.bfs's queue. The only
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
	bits, words := fillBitRows(nil, c.n, c.offsets, c.targets)
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
			slices.Sort(clique)
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
	dist := grow(&sc.fdist, n)
	parent := grow(&sc.parent, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	h := sc.heap[:0]
	defer func() { sc.heap = h[:0] }()
	heap.Push(&h, heapEntry{int32(src), 0}, nearer)
	for len(h) > 0 {
		it := heap.Pop(&h, nearer)
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
				heap.Push(&h, heapEntry{int32(v), nd}, nearer)
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	return parentPath(parent, src, dst), dist[dst]
}

// ShortestPath returns an unweighted shortest path from src to dst over the
// forward adjacency, or nil when dst is unreachable: the parent chain of one
// walk from src. Each node's parent is its first discoverer, the parent a
// search stopping at dst would record, so the path is that search's.
func ShortestPath(g *Graph, src, dst NodeID) []NodeID {
	if !g.valid(src) || !g.valid(dst) {
		return nil
	}
	c := g.Freeze()
	sc := getTrav(c.n)
	defer putTrav(sc)
	c.bfs(int32(src), sc, c.offsets, c.targets, allDepths)
	if !sc.seen(int32(dst)) {
		return nil
	}
	return parentPath(sc.parent, src, dst)
}

// parentPath reads the path src → dst off a parent chain from dst back to
// src: one walk to size it, one back-to-front fill, one allocation.
func parentPath(parent []int32, src, dst NodeID) []NodeID {
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
	return path
}

// Closeness returns each node's closeness centrality over the forward
// adjacency: reach / Σ distances, scaled by the reachable fraction
// (Wasserman–Faust), so disconnected graphs still rank sensibly. Each
// source's reach and sum are read off its walk; all walks share one lease.
func Closeness(g *Graph) []float64 {
	c := g.Freeze()
	n := c.n
	out := make([]float64, n)
	sc := getTrav(n)
	defer putTrav(sc)
	for u := range n {
		sc.nextEpoch()
		q := c.bfs(int32(u), sc, c.offsets, c.targets, allDepths)
		sum, reach := 0, len(q)-1
		for _, v := range q[1:] {
			sum += int(sc.depths[v])
		}
		if sum > 0 {
			out[u] = float64(reach) / float64(sum) * float64(reach) / float64(n-1)
		}
	}
	return out
}

// Betweenness computes exact unweighted betweenness centrality with
// Brandes' algorithm over the edges as they point: directed betweenness on a
// directed graph (shortest paths follow out-edges), and on an undirected one
// the usual undirected score, each pair counted once. Each source's walk
// gives the visit order. One forward pass over it sums σ (shortest-path
// counts) and counts each node's predecessors, a second files them in one
// flat array, each node's run in visit order, and the backward pass sums δ.
// Every float is added in the order of the textbook queue loop (σ[w] by
// predecessor in visit order, δ[v] by successor in reverse visit order), so
// the scores are that loop's bit for bit; all sources share one lease.
func Betweenness(g *Graph) []float64 {
	c := g.Freeze()
	n := c.n
	bc := make([]float64, n)
	sc := getTrav(n)
	defer putTrav(sc)
	sigma, delta, end := grow(&sc.fdist, n), grow(&sc.delta, n), grow(&sc.marks, n)
	for s := range n {
		sc.nextEpoch()
		q := c.bfs(int32(s), sc, c.offsets, c.targets, allDepths)
		depth := sc.depths
		for _, u := range q {
			sigma[u], delta[u], end[u] = 0, 0, 0
		}
		sigma[s] = 1
		for _, u := range q {
			for _, v := range c.OutNeighbors(NodeID(u)) {
				if depth[v] == depth[u]+1 {
					sigma[v] += sigma[u]
					end[v]++
				}
			}
		}
		// Lay the runs out in visit order: end[w] is first w's run start,
		// then, once filled, its end — the next node's start.
		total := int32(0)
		for _, w := range q {
			total, end[w] = total+end[w], total
		}
		preds := grow(&sc.preds, int(total))
		for _, u := range q {
			for _, v := range c.OutNeighbors(NodeID(u)) {
				if depth[v] == depth[u]+1 {
					preds[end[v]] = u
					end[v]++
				}
			}
		}
		// q[0] is s: no predecessors, no score.
		for i := len(q) - 1; i > 0; i-- {
			w := q[i]
			for _, v := range preds[end[q[i-1]]:end[w]] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			bc[w] += delta[w]
		}
	}
	// Undirected: each pair counted twice.
	if !c.directed {
		for i := range bc {
			bc[i] /= 2
		}
	}
	return bc
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
	taken := grow(&sc.marks, n+1)
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
