package graph

import (
	"math/bits"
	"sort"
	"sync"
)

// CSR is the frozen, read-only adjacency view of one Graph version — the
// only adjacency a Graph has — laid out in compressed-sparse-row form: one contiguous targets array per direction
// with per-node offset fences. Neighbor iteration is a subslice — no
// allocation, no sorting, no edge-table indirection — which is what makes the
// all-source algorithms (eccentricities, triangles, core numbers) cheap
// enough to parallelize.
//
// A CSR is immutable and safe for unlimited concurrent use. It snapshots the
// topology, weights, and the label/attribute signals Stats and Classify
// need, so it stays self-contained even if the parent graph mutates later
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

	// Reverse adjacency (directed only): in-edges per node.
	roffsets []int32
	rtargets []NodeID

	// Undirected view: both endpoints of every edge. For undirected graphs
	// these alias the forward arrays.
	uoffsets []int32
	utargets []NodeID

	// Label/attribute signals snapshotted at freeze time so Stats and
	// Classify never have to re-read (possibly mutated) node state.
	labels     []string
	elementish int // nodes that look like chemical elements
	typed      int // nodes with a person/place/org type attribute
	relLabeled int // edges with a non-bond relation label

	statsOnce sync.Once
	stats     Stats
	kindOnce  sync.Once
	kind      Kind
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
		nd := &g.nodes[i]
		c.labels[i] = nd.Label
		if isElementSymbol(nd.Label) || nd.Attrs["element"] != "" {
			c.elementish++
		}
		if t := nd.Attrs["type"]; t == "person" || t == "place" || t == "org" {
			c.typed++
		}
	}
	for i := range g.edges {
		if l := g.edges[i].Label; l != "" && l != "bond" {
			c.relLabeled++
		}
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
		// Reverse adjacency.
		c.roffsets = make([]int32, n+1)
		c.rtargets = make([]NodeID, m)
		for _, e := range g.edges {
			c.roffsets[e.To+1]++
		}
		for i := 0; i < n; i++ {
			c.roffsets[i+1] += c.roffsets[i]
		}
		copy(pos, c.roffsets[:n])
		for _, e := range g.edges {
			p := pos[e.To]
			pos[e.To]++
			c.rtargets[p] = e.From
		}
		sortRows(c.roffsets, c.rtargets, nil)

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

// InDegree returns the in-degree (Degree for undirected graphs).
func (c *CSR) InDegree(u NodeID) int {
	if !c.directed {
		return c.OutDegree(u)
	}
	return int(c.roffsets[u+1] - c.roffsets[u])
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

// BFS visits nodes reachable from start in breadth-first order over the
// forward adjacency (neighbors ascending), calling visit with each node and
// its hop distance; visit returning false stops the traversal. All working
// state comes from the pooled traversal scratch, so the walk allocates
// nothing per visited node.
func (c *CSR) BFS(start NodeID, visit func(id NodeID, depth int) bool) {
	if start < 0 || int(start) >= c.n {
		return
	}
	sc := getTrav(c.n)
	defer putTrav(sc)
	depth := sc.ints(c.n)
	q := sc.queue[:0]
	defer func() { sc.queue = q[:0] }()
	q = append(q, int32(start))
	sc.mark(int32(start))
	depth[start] = 0
	for head := 0; head < len(q); head++ {
		u := q[head]
		d := depth[u]
		if !visit(NodeID(u), int(d)) {
			return
		}
		for _, v := range c.targets[c.offsets[u]:c.offsets[u+1]] {
			if !sc.seen(int32(v)) {
				sc.mark(int32(v))
				depth[v] = d + 1
				q = append(q, int32(v))
			}
		}
	}
}

// Hybrid BFS tuning. A frontier holding at least
// max(n/denseFrontierDivisor, minDenseFrontier) nodes promotes to the dense
// (bitset, bottom-up) mode; it demotes back to the queue when a level
// shrinks below half that threshold. The floor keeps tiny graphs — where a
// whole traversal costs less than one bitset rebuild — on the queue path.
const (
	denseFrontierDivisor = 16
	minDenseFrontier     = 64
)

// bfsFrom is the level-synchronous hybrid BFS core shared by eccFrom,
// ShortestPathLengths, and components. Sparse frontiers expand top-down
// through the queue, exactly like the classic loop. When a level grows past
// the density threshold the traversal promotes to bottom-up: the visited
// bitset is rebuilt from the epoch marks, and each subsequent level is found
// by sweeping the complement words (bits.TrailingZeros64 per unvisited
// node) and probing reverse-adjacency rows for a frontier member, breaking
// at the first hit — on dense levels that replaces |frontier|·degree edge
// scans with early-exiting probes of the (few) unvisited nodes. Epoch marks
// stay in sync in dense mode, so demotion (and any later caller using
// sc.seen) just works.
//
// off/tgt is the adjacency to traverse; roff/rtgt must be its reverse (the
// same slices for symmetric views). depth[v] is set for every reached node;
// unreached entries are left untouched (callers identify reached nodes via
// sc.seen). members, when non-nil, collects every reached node, in no
// particular order. The caller owns the epoch: bfsFrom never bumps it, so
// components can share one epoch across per-component calls. Returns the
// maximum depth reached.
func (c *CSR) bfsFrom(src int32, sc *travScratch, off []int32, tgt []NodeID, roff []int32, rtgt []NodeID, depth []int32, members *[]NodeID) int32 {
	threshold := c.n / denseFrontierDivisor
	if threshold < minDenseFrontier {
		threshold = minDenseFrontier
	}
	q := sc.queue[:0]
	defer func() { sc.queue = q[:0] }()
	q = append(q, src)
	sc.mark(src)
	depth[src] = 0
	if members != nil {
		*members = append(*members, NodeID(src))
	}
	var (
		d, maxD        int32 // current frontier depth, deepest level seen
		dense          bool
		cur, next, vis []uint64
	)
	lo, hi := 0, 1 // current level occupies q[lo:hi]
	for {
		if !dense && hi-lo >= threshold {
			// Promote: rebuild the bitsets — visited from the epoch marks,
			// the frontier from the current queue level. O(n) once, paid
			// only when the level itself is Ω(n/16).
			cur, next, vis = sc.bitsets(c.n)
			clear(cur)
			clear(vis)
			for i := 0; i < c.n; i++ {
				if sc.visited[i] == sc.epoch {
					vis[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			for _, u := range q[lo:hi] {
				cur[u>>6] |= 1 << (uint(u) & 63)
			}
			q = q[:0]
			lo, hi = 0, 0
			dense = true
		}
		if dense {
			clear(next)
			count := 0
			for w, free := range vis {
				free = ^free
				if base := w << 6; base+64 > c.n {
					free &= 1<<(uint(c.n-base)) - 1
				}
				for free != 0 {
					b := bits.TrailingZeros64(free)
					free &^= 1 << uint(b)
					v := int32(w<<6 + b)
					for _, u := range rtgt[roff[v]:roff[v+1]] {
						if cur[u>>6]&(1<<(uint(u)&63)) != 0 {
							depth[v] = d + 1
							sc.mark(v)
							vis[w] |= 1 << uint(b)
							next[v>>6] |= 1 << (uint(v) & 63)
							count++
							if members != nil {
								*members = append(*members, NodeID(v))
							}
							break
						}
					}
				}
			}
			if count == 0 {
				return maxD
			}
			d++
			maxD = d
			cur, next = next, cur
			if count < threshold/2 {
				// Demote: extract the again-sparse frontier into the queue.
				dense = false
				for w, bw := range cur {
					for bw != 0 {
						b := bits.TrailingZeros64(bw)
						bw &^= 1 << uint(b)
						q = append(q, int32(w<<6+b))
					}
				}
				lo, hi = 0, len(q)
			}
			continue
		}
		if lo == hi {
			return maxD
		}
		for i := lo; i < hi; i++ {
			u := q[i]
			for _, v := range tgt[off[u]:off[u+1]] {
				if !sc.seen(int32(v)) {
					sc.mark(int32(v))
					depth[v] = d + 1
					q = append(q, int32(v))
					if members != nil {
						*members = append(*members, NodeID(v))
					}
				}
			}
		}
		lo, hi = hi, len(q)
		if lo < hi {
			d++
			maxD = d
		}
	}
}

// bfsForward runs the hybrid BFS from src over the forward adjacency using
// sc's current epoch (directed graphs probe in-neighbors bottom-up via the
// reverse arrays). See bfsFrom for the depth/seen contract.
func (c *CSR) bfsForward(src int32, sc *travScratch, depth []int32) int32 {
	roff, rtgt := c.offsets, c.targets
	if c.directed {
		roff, rtgt = c.roffsets, c.rtargets
	}
	return c.bfsFrom(src, sc, c.offsets, c.targets, roff, rtgt, depth, nil)
}

// eccFrom returns the maximum BFS depth reachable from src over the forward
// adjacency, using the caller's scratch. Zero allocations; dense levels run
// bottom-up (see bfsFrom).
func (c *CSR) eccFrom(src int32, sc *travScratch) int32 {
	sc.nextEpoch()
	return c.bfsForward(src, sc, sc.ints(c.n))
}

// farthest returns the node at maximum BFS depth from src (ties broken by
// BFS visit order, matching the slice-based double sweep) and that depth.
func (c *CSR) farthest(src int32, sc *travScratch) (NodeID, int32) {
	sc.nextEpoch()
	depth := sc.ints(c.n)
	q := sc.queue[:0]
	defer func() { sc.queue = q[:0] }()
	q = append(q, src)
	sc.mark(src)
	depth[src] = 0
	best, bestD := src, int32(0)
	for head := 0; head < len(q); head++ {
		u := q[head]
		d := depth[u]
		if d > bestD {
			best, bestD = u, d
		}
		for _, v := range c.targets[c.offsets[u]:c.offsets[u+1]] {
			if !sc.seen(int32(v)) {
				sc.mark(int32(v))
				depth[v] = d + 1
				q = append(q, int32(v))
			}
		}
	}
	return NodeID(best), bestD
}

// components returns the weakly connected components (members sorted,
// components ordered by smallest member), matching the pre-CSR
// Graph.ConnectedComponents output exactly. Each component is traversed by
// the hybrid BFS over the symmetric undirected view; one shared epoch spans
// all components, so the dense mode's visited bitset automatically excludes
// nodes claimed by earlier components.
func (c *CSR) components() [][]NodeID {
	sc := getTrav(c.n)
	defer putTrav(sc)
	depth := sc.ints(c.n)
	var comps [][]NodeID
	for s := 0; s < c.n; s++ {
		if sc.seen(int32(s)) {
			continue
		}
		members := make([]NodeID, 0, 8)
		c.bfsFrom(int32(s), sc, c.uoffsets, c.utargets, c.uoffsets, c.utargets, depth, &members)
		sortNodeIDs(members)
		comps = append(comps, members)
	}
	return comps
}
