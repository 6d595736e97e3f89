// Package graph implements the labeled property-graph substrate used across
// ChatGraph: nodes and edges with string labels and attribute maps, directed
// or undirected adjacency, traversal, serialization, synthetic generators,
// and graph statistics.
//
// Graphs are the unit of user input in ChatGraph prompts ("here is a graph G,
// write a report for G") and the unit the analysis APIs in internal/apis
// operate on.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node within one graph. IDs are dense non-negative
// integers assigned by AddNode in insertion order.
type NodeID int

// Node is a labeled vertex with optional attributes.
type Node struct {
	ID    NodeID
	Label string
	// Attrs is a read-only value: nodes of one parse with equal attrs
	// objects, and a graph and its clones, may share one map. Nothing writes
	// into it; SetNodeAttr replaces the node's map with an extended copy.
	Attrs map[string]string
}

// Edge connects From to To. In an undirected graph each edge is stored once
// but visible from both endpoints' adjacency lists.
type Edge struct {
	From  NodeID
	To    NodeID
	Label string
	// Weight defaults to 1 for unweighted graphs.
	Weight float64
}

// Graph is a mutable labeled property graph. The zero value is not usable;
// construct with New or NewDirected.
//
// Mutation is not safe for concurrent use, but any number of goroutines may
// read one graph concurrently — including through Freeze, whose frozen CSR
// view backs every traversal-heavy algorithm in this package.
type Graph struct {
	// Name is an optional human-readable identifier ("G", "caffeine", ...).
	Name     string
	directed bool
	nodes    []Node
	// adj[u] lists indexes into edges for all edges incident to u (for
	// undirected graphs) or leaving u (for directed graphs).
	adj   [][]int
	edges []Edge

	// version counts mutations; Freeze and the cached content hash are
	// memoized per version, so any structural or label change invalidates
	// both.
	version uint64
	// frozenMu guards frozen (the cached CSR) and the cached content hash,
	// both memoized for the current version.
	frozenMu sync.Mutex
	frozen   *CSR
	// Cached ContentHash, computed for hashVersion; the valid flag
	// distinguishes "never computed" from "version 0 computed".
	hash        ContentHash
	hashVersion uint64
	hashValid   bool
	// shared marks a graph interned by graphstore and visible to any number
	// of concurrent readers. Shared graphs must never mutate: the executor
	// clones them before running a mutating chain, and race-enabled builds
	// panic on any mutation that slips through.
	shared atomic.Bool
}

// MarkShared flags g as an interned, multi-reader graph. There is no way
// back: once shared, the instance must stay immutable for its lifetime.
func (g *Graph) MarkShared() { g.shared.Store(true) }

// Shared reports whether g is an interned graph shared across sessions.
// Writers (the executor, graph-editing callers) must clone before mutating.
func (g *Graph) Shared() bool { return g.shared.Load() }

// Version returns the mutation counter: it changes whenever the graph's
// nodes, edges, labels, or attributes change, so equal versions on the same
// Graph imply identical analysis results.
func (g *Graph) Version() uint64 { return g.version }

// bump records a mutation, invalidating any frozen view or cached result
// keyed on the previous version. Race-enabled builds turn a mutation of a
// shared interned graph into a panic — the bug it catches (an API missing
// its Mutates flag, or a caller skipping the clone) corrupts every session
// holding the graph, so tests should fail loudly, not flake.
func (g *Graph) bump() {
	if raceEnabled && g.shared.Load() {
		panic("graph: mutation of a shared interned graph (clone it, or mark the API Mutates)")
	}
	g.version++
}

// Grow preallocates capacity for nodes additional nodes and edges additional
// edges, so bulk constructions (complement, union, JSON decode) append
// without re-growing the backing arrays.
func (g *Graph) Grow(nodes, edges int) {
	if nodes > 0 {
		g.nodes = append(make([]Node, 0, len(g.nodes)+nodes), g.nodes...)
		g.adj = append(make([][]int, 0, len(g.adj)+nodes), g.adj...)
	}
	if edges > 0 {
		g.edges = append(make([]Edge, 0, len(g.edges)+edges), g.edges...)
	}
}

// New returns an empty undirected graph.
func New() *Graph { return &Graph{} }

// NewDirected returns an empty directed graph.
func NewDirected() *Graph { return &Graph{directed: true} }

// Directed reports whether g stores directed edges.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count (each undirected edge counted once).
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node with the given label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Label: label})
	g.adj = append(g.adj, nil)
	g.bump()
	return id
}

// AddNodeAttrs appends a node with label and a copy of attrs. Only tests
// build graphs this way (the typed fixtures of internal/kg and internal/apis);
// the generators set attributes one at a time with SetNodeAttr.
func (g *Graph) AddNodeAttrs(label string, attrs map[string]string) NodeID {
	id := g.AddNode(label)
	if len(attrs) > 0 {
		m := make(map[string]string, len(attrs))
		for k, v := range attrs {
			m[k] = v
		}
		g.nodes[id].Attrs = m
	}
	return id
}

// Node returns the node with the given ID. It panics on out-of-range IDs.
func (g *Graph) Node(id NodeID) Node {
	return g.nodes[id]
}

// SetNodeLabel relabels node id.
func (g *Graph) SetNodeLabel(id NodeID, label string) {
	g.nodes[id].Label = label
	g.bump()
}

// SetNodeAttr sets one attribute on node id. Attribute maps are shared
// read-only values (see Node.Attrs), so it never writes into the node's map:
// it gives the node a copy that carries the new key, and every other node or
// clone holding the old map still reads the old value.
func (g *Graph) SetNodeAttr(id NodeID, key, val string) {
	old := g.nodes[id].Attrs
	m := make(map[string]string, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[key] = val
	g.nodes[id].Attrs = m
	g.bump()
}

// Nodes returns the nodes in ID order. The returned slice is shared; callers
// must not modify it, nor the attribute maps it holds, which other nodes and
// clones may share.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edges returns all edges. The returned slice is shared; callers must not
// modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// valid reports whether id names an existing node.
func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// AddEdge inserts an edge with weight 1 and empty label. It returns an error
// on dangling endpoints or self-loops (which no ChatGraph workload uses).
func (g *Graph) AddEdge(from, to NodeID) error {
	return g.AddEdgeLabeled(from, to, "", 1)
}

// AddEdgeLabeled inserts a labeled, weighted edge.
func (g *Graph) AddEdgeLabeled(from, to NodeID, label string, weight float64) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("graph: edge (%d,%d) has endpoint outside [0,%d)", from, to, len(g.nodes))
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d rejected", from)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Label: label, Weight: weight})
	g.adj[from] = append(g.adj[from], idx)
	if !g.directed {
		g.adj[to] = append(g.adj[to], idx)
	}
	g.bump()
	return nil
}

// HasEdge reports whether an edge from→to exists (either direction for
// undirected graphs).
func (g *Graph) HasEdge(from, to NodeID) bool {
	if !g.valid(from) || !g.valid(to) {
		return false
	}
	for _, ei := range g.adj[from] {
		e := g.edges[ei]
		if e.From == from && e.To == to || !g.directed && e.From == to && e.To == from {
			return true
		}
	}
	return false
}

// HasEdgeLabeled reports whether an edge from→to (either direction for
// undirected graphs) carries exactly the given label — the edge
// RemoveEdgeLabeled would delete.
func (g *Graph) HasEdgeLabeled(from, to NodeID, label string) bool {
	if !g.valid(from) || !g.valid(to) {
		return false
	}
	for _, ei := range g.adj[from] {
		e := &g.edges[ei]
		if e.Label == label && (e.From == from && e.To == to || !g.directed && e.From == to && e.To == from) {
			return true
		}
	}
	return false
}

// RemoveEdge deletes one edge between from and to (the first found,
// whatever its label) and reports whether an edge was removed. Removal is
// O(E) because edge indexes are compacted; cleaning workloads remove few
// edges so this is acceptable.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	return g.removeEdge(from, to, "", false)
}

// RemoveEdgeLabeled deletes one edge between from and to carrying exactly
// the given label, leaving differently-labeled parallel edges intact.
func (g *Graph) RemoveEdgeLabeled(from, to NodeID, label string) bool {
	return g.removeEdge(from, to, label, true)
}

func (g *Graph) removeEdge(from, to NodeID, label string, matchLabel bool) bool {
	target := -1
	for i, e := range g.edges {
		if matchLabel && e.Label != label {
			continue
		}
		if e.From == from && e.To == to || !g.directed && e.From == to && e.To == from {
			target = i
			break
		}
	}
	if target < 0 {
		return false
	}
	g.edges = append(g.edges[:target], g.edges[target+1:]...)
	g.rebuildAdj()
	g.bump()
	return true
}

// rebuildAdj recomputes adjacency lists from the edge slice.
func (g *Graph) rebuildAdj() {
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	for idx, e := range g.edges {
		g.adj[e.From] = append(g.adj[e.From], idx)
		if !g.directed {
			g.adj[e.To] = append(g.adj[e.To], idx)
		}
	}
}

// Neighbors returns the IDs adjacent to u (out-neighbors for directed
// graphs), in deterministic ascending order.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[u]))
	for _, ei := range g.adj[u] {
		e := g.edges[ei]
		if e.From == u {
			out = append(out, e.To)
		} else {
			out = append(out, e.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Degree returns the number of incident edges at u (out-degree for directed
// graphs).
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Clone returns a copy of g that mutates independently of it. The copy is
// private: it is never marked shared (even when g is an interned graph). It
// copies the node, edge and adjacency slices and shares what is read-only:
// the attribute maps (SetNodeAttr replaces a map, never writes into it) and,
// at the same version, the fingerprint and the frozen CSR g has already
// computed — the executor's clone of an interned graph neither hashes 300
// nodes again to find the invoke-cache entries of the original nor rebuilds
// the CSR its first step reads. The copy's first mutation invalidates both,
// like any other.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, directed: g.directed, version: g.version}
	g.frozenMu.Lock()
	if g.hashValid && g.hashVersion == g.version {
		c.hash, c.hashVersion, c.hashValid = g.hash, g.version, true
	}
	if g.frozen != nil && g.frozen.version == g.version {
		c.frozen = g.frozen
	}
	g.frozenMu.Unlock()
	c.nodes = make([]Node, len(g.nodes))
	copy(c.nodes, g.nodes)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	// One index slab carved into capped rows, as loadWire lays them out: an
	// AddEdge on the copy reallocates just the row it grows.
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	slab := make([]int, total)
	c.adj = make([][]int, len(g.adj))
	off := 0
	for i, a := range g.adj {
		end := off + copy(slab[off:], a)
		c.adj[i] = slab[off:end:end]
		off = end
	}
	return c
}

// BFS visits nodes in breadth-first order from start, calling visit with each
// node and its hop distance. Traversal stops early if visit returns false.
// Neighbors are visited in ascending ID order. The traversal runs over the
// frozen CSR view with pooled scratch, so it allocates nothing per visited
// node; visit must not mutate the graph mid-traversal.
func (g *Graph) BFS(start NodeID, visit func(id NodeID, depth int) bool) {
	if !g.valid(start) {
		return
	}
	g.Freeze().BFS(start, visit)
}

// KHopSubgraphNodes returns the set of nodes within l hops of u (inclusive of
// u), in ascending ID order.
func (g *Graph) KHopSubgraphNodes(u NodeID, l int) []NodeID {
	var out []NodeID
	g.BFS(u, func(id NodeID, depth int) bool {
		if depth > l {
			return false
		}
		out = append(out, id)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConnectedComponents returns, for undirected graphs, the weakly connected
// components as slices of node IDs (each sorted; components ordered by their
// smallest member). Directed graphs are treated as undirected here.
func (g *Graph) ConnectedComponents() [][]NodeID {
	return g.Freeze().components()
}

// ShortestPathLengths runs an unweighted BFS from src and returns hop counts
// to every node; unreachable nodes get -1. The traversal uses the hybrid
// queue/bitset frontier, so dense graphs pay bottom-up sweeps instead of
// per-edge scans.
func (g *Graph) ShortestPathLengths(src NodeID) []int {
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || int(src) >= len(g.nodes) {
		return dist
	}
	c := g.Freeze()
	sc := getTrav(c.n)
	defer putTrav(sc)
	depth := sc.ints(c.n)
	c.bfsForward(int32(src), sc, depth)
	for i := range dist {
		if sc.seen(int32(i)) {
			dist[i] = int(depth[i])
		}
	}
	return dist
}

// String summarizes the graph for logs and chat transcripts.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	name := g.Name
	if name == "" {
		name = "G"
	}
	return fmt.Sprintf("%s(%s, |V|=%d, |E|=%d)", name, kind, len(g.nodes), len(g.edges))
}
