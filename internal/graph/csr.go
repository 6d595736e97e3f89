package graph

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// CSR is the frozen, read-only adjacency view of one Graph version — the
// only adjacency a Graph has — laid out in compressed-sparse-row form: one
// contiguous targets array for the forward rows and, on a directed graph,
// one for the undirected view, each with per-node offset fences. Neighbor
// iteration is a subslice — no allocation, no sorting, no edge-table
// indirection — so the all-source algorithms (eccentricities, triangles,
// core numbers) run one request's sweeps without per-node garbage.
//
// A CSR is immutable and safe for unlimited concurrent use. It snapshots the
// topology, weights, and the node labels Stats needs, so it stays
// self-contained even if the parent graph mutates later
// (Freeze hands out a fresh CSR after any mutation). Per-node rows are
// sorted by neighbor ID, so traversals over the CSR visit nodes in exactly
// the order the slice-based reference implementations in parity_test.go do.
// Parallel edges keep one entry each.
type CSR struct {
	version  uint64
	directed bool
	n, m     int

	// Forward adjacency: out-edges for directed graphs, all incident edges
	// for undirected ones. weights[i] is the edge weight for targets[i].
	offsets []int32
	targets []NodeID
	weights []float64

	// Undirected view: both endpoints of every edge. For undirected graphs
	// these alias the forward arrays.
	uoffsets []int32
	utargets []NodeID

	// Node labels snapshotted at freeze time so Stats never has to re-read
	// (possibly mutated) node state.
	labels []string

	statsOnce sync.Once
	stats     Stats
	describe  string // stats.Describe(), rendered once
}

// Freeze returns the CSR view of g's current version, building it on first
// use and caching it until the next mutation. Concurrent Freeze calls on an
// unmutated graph share one CSR; the build itself is O(V + E log d).
func (g *Graph) Freeze() *CSR {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if g.frozen == nil || g.frozen.version != g.version {
		g.frozen = buildCSR(g)
	}
	return g.frozen
}

// rowSorter sorts one adjacency row by target ID, keeping the parallel
// weight array aligned. Implementing sort.Interface directly avoids the
// per-row closure allocations sort.Slice would pay.
type rowSorter struct {
	t []NodeID
	w []float64
}

func (r rowSorter) Len() int           { return len(r.t) }
func (r rowSorter) Less(i, j int) bool { return r.t[i] < r.t[j] }
func (r rowSorter) Swap(i, j int) {
	r.t[i], r.t[j] = r.t[j], r.t[i]
	if r.w != nil {
		r.w[i], r.w[j] = r.w[j], r.w[i]
	}
}

// insertionSortRow sorts small rows in place; buildCSR falls back to
// sort.Sort above a small cutoff.
func insertionSortRow(t []NodeID, w []float64) {
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j] < t[j-1]; j-- {
			t[j], t[j-1] = t[j-1], t[j]
			if w != nil {
				w[j], w[j-1] = w[j-1], w[j]
			}
		}
	}
}

func sortRows(offsets []int32, targets []NodeID, weights []float64) {
	for u := 0; u+1 < len(offsets); u++ {
		lo, hi := offsets[u], offsets[u+1]
		t := targets[lo:hi]
		var w []float64
		if weights != nil {
			w = weights[lo:hi]
		}
		if len(t) <= 24 {
			insertionSortRow(t, w)
		} else {
			sort.Sort(rowSorter{t, w})
		}
	}
}

func buildCSR(g *Graph) *CSR {
	n := len(g.nodes)
	m := len(g.edges)
	c := &CSR{version: g.version, directed: g.directed, n: n, m: m}

	c.labels = make([]string, n)
	for i := range g.nodes {
		c.labels[i] = g.nodes[i].Label
	}

	// Forward adjacency, rows ascending.
	fwd := m
	if !g.directed {
		fwd = 2 * m
	}
	c.offsets = make([]int32, n+1)
	c.targets = make([]NodeID, fwd)
	c.weights = make([]float64, fwd)
	for _, e := range g.edges {
		c.offsets[e.From+1]++
		if !g.directed {
			c.offsets[e.To+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.offsets[i+1] += c.offsets[i]
	}
	pos := make([]int32, n)
	copy(pos, c.offsets[:n])
	for _, e := range g.edges {
		p := pos[e.From]
		pos[e.From]++
		c.targets[p] = e.To
		c.weights[p] = e.Weight
		if !g.directed {
			p = pos[e.To]
			pos[e.To]++
			c.targets[p] = e.From
			c.weights[p] = e.Weight
		}
	}
	sortRows(c.offsets, c.targets, c.weights)

	if g.directed {
		// Undirected view: both directions of every edge.
		c.uoffsets = make([]int32, n+1)
		c.utargets = make([]NodeID, 2*m)
		for _, e := range g.edges {
			c.uoffsets[e.From+1]++
			c.uoffsets[e.To+1]++
		}
		for i := 0; i < n; i++ {
			c.uoffsets[i+1] += c.uoffsets[i]
		}
		copy(pos, c.uoffsets[:n])
		for _, e := range g.edges {
			p := pos[e.From]
			pos[e.From]++
			c.utargets[p] = e.To
			p = pos[e.To]
			pos[e.To]++
			c.utargets[p] = e.From
		}
		sortRows(c.uoffsets, c.utargets, nil)
	} else {
		c.uoffsets = c.offsets
		c.utargets = c.targets
	}
	return c
}

// NumNodes returns the node count.
func (c *CSR) NumNodes() int { return c.n }

// OutNeighbors returns u's neighbors (out-neighbors for directed graphs) in
// ascending ID order, parallel edges repeated, as a zero-allocation view
// into the frozen arrays. Callers must not modify the returned slice.
func (c *CSR) OutNeighbors(u NodeID) []NodeID {
	return c.targets[c.offsets[u]:c.offsets[u+1]]
}

// OutWeights returns the edge weights aligned with OutNeighbors(u).
func (c *CSR) OutWeights(u NodeID) []float64 {
	return c.weights[c.offsets[u]:c.offsets[u+1]]
}

// OutDegree returns len(OutNeighbors(u)) without materializing anything.
func (c *CSR) OutDegree(u NodeID) int {
	return int(c.offsets[u+1] - c.offsets[u])
}

// InDegree returns the in-degree (Degree for undirected graphs). On a
// directed graph the undirected row holds both ends of every edge, so what
// it holds beyond the out row is exactly the in-edges, parallel ones
// included.
func (c *CSR) InDegree(u NodeID) int {
	if !c.directed {
		return c.OutDegree(u)
	}
	return c.undDegree(u) - c.OutDegree(u)
}

// UndirectedNeighbors returns u's neighbors in the undirected view (both
// edge directions), ascending, parallel edges included. Like OutNeighbors it
// is a view into the frozen arrays: callers must not modify it.
func (c *CSR) UndirectedNeighbors(u NodeID) []NodeID {
	return c.utargets[c.uoffsets[u]:c.uoffsets[u+1]]
}

func (c *CSR) undDegree(u NodeID) int {
	return int(c.uoffsets[u+1] - c.uoffsets[u])
}

// allDepths is the radius of a walk that reaches every node it can.
const allDepths = math.MaxInt32

// bfs is the one level-order queue loop every unweighted traversal shares:
// farthest, eccFrom, components, KHopSubgraphNodes, ShortestPath, Closeness,
// Betweenness and the sequentializer's trees (Walker). It walks off/tgt from
// src under sc's current epoch, expanding no node at depth ≥ radius, and sets
// sc.depths[v], sc.parent[v] (the first discoverer, -1 at src) and the epoch
// mark of every reached node. It returns the queue: every reached node in
// visit order (neighbors ascending), so depths never decrease along it. The
// walk ends as soon as every node is queued, since no expansion can reach
// more. The caller owns the epoch: bfs never bumps it, so components can
// share one epoch across per-component walks. The returned slice is a prefix
// of sc.queue and is valid until the next walk on sc.
//
// The parent store must cost the walks nothing (EXPERIMENTS.md E45): the
// queue is sized to n up front, each node being queued once, so the loop
// makes no call that would spill registers, and depth and parent share
// seen's length, so seen's bounds check covers theirs.
func (c *CSR) bfs(src int32, sc *travScratch, off []int32, tgt []NodeID, radius int32) []int32 {
	n, seen, epoch := c.n, sc.visited[:c.n], sc.epoch
	depth, parent := grow(&sc.depths, n)[:len(seen)], grow(&sc.parent, n)[:len(seen)]
	q := grow(&sc.queue, n)
	q[0] = src
	seen[src], depth[src], parent[src] = epoch, 0, -1
	tail := 1
	for head := 0; head < tail && tail < n; head++ {
		u := q[head]
		d := depth[u]
		if d >= radius {
			break // BFS order: everything still queued sits on the rim too
		}
		for _, v := range tgt[off[u]:off[u+1]] {
			if seen[v] != epoch {
				seen[v], depth[v], parent[v] = epoch, d+1, u
				q[tail] = int32(v)
				tail++
			}
		}
	}
	return q[:tail]
}

// Walker is a run of radius-bounded walks over a CSR's forward rows on one
// leased scratch: the sequentializer grows every root's tree through it.
// A Walker is not safe for concurrent use; Release returns its scratch.
type Walker struct {
	c  *CSR
	sc *travScratch
}

// Walker leases one traversal scratch for a run of Tree calls.
func (c *CSR) Walker() *Walker { return &Walker{c: c, sc: getTrav(c.n)} }

// Release returns the walker's scratch to the pool; the walker and every
// slice it handed out are dead afterwards.
func (w *Walker) Release() {
	putTrav(w.sc)
	w.sc = nil
}

// Tree walks the BFS tree of the given radius rooted at root over the
// forward rows (neighbors ascending, the first discoverer is the parent). It
// returns the tree's nodes in visit order, and depth and parent indexed by
// node, valid for those nodes only (the root's parent is -1). All three are
// views into the walker's scratch, valid until its next Tree or Release.
func (w *Walker) Tree(root NodeID, radius int) (order, depth, parent []int32) {
	w.sc.nextEpoch()
	order = w.c.bfs(int32(root), w.sc, w.c.offsets, w.c.targets, int32(min(radius, allDepths)))
	return order, w.sc.depths, w.sc.parent
}

// eccFrom returns the maximum BFS depth reachable from src over the forward
// adjacency, using the caller's scratch: the depth of the last node queued.
// Zero allocations.
func (c *CSR) eccFrom(src int32, sc *travScratch) int32 {
	sc.nextEpoch()
	q := c.bfs(src, sc, c.offsets, c.targets, allDepths)
	return sc.depths[q[len(q)-1]]
}

// farthest returns the node at maximum BFS depth from src (ties broken by
// BFS visit order, matching the slice-based double sweep) and that depth.
func (c *CSR) farthest(src int32, sc *travScratch) (NodeID, int32) {
	sc.nextEpoch()
	q := c.bfs(src, sc, c.offsets, c.targets, allDepths)
	best := q[0]
	for _, u := range q {
		if sc.depths[u] > sc.depths[best] {
			best = u
		}
	}
	return NodeID(best), sc.depths[best]
}

// components returns the weakly connected components (members sorted,
// components ordered by smallest member), matching the pre-CSR
// Graph.ConnectedComponents output exactly. Each component is one walk over
// the undirected view; one shared epoch spans all components, so a node
// claimed by an earlier component starts no walk of its own.
func (c *CSR) components() [][]NodeID {
	sc := getTrav(c.n)
	defer putTrav(sc)
	var comps [][]NodeID
	for s := 0; s < c.n; s++ {
		if sc.seen(int32(s)) {
			continue
		}
		q := c.bfs(int32(s), sc, c.uoffsets, c.utargets, allDepths)
		members := make([]NodeID, len(q))
		for i, u := range q {
			members[i] = NodeID(u)
		}
		slices.Sort(members)
		comps = append(comps, members)
	}
	return comps
}
