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
	"slices"
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
// but visible from both endpoints' rows of the frozen CSR.
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
// A graph keeps two slabs, its nodes and its labelled edge list, and reads
// adjacency from one place: the CSR Freeze builds for the current version
// (OutNeighbors, OutDegree, UndirectedNeighbors). Only readers of adjacency
// build one — Classify, ContentHash and the kg detectors scan the slabs. A
// mutation costs an append or a compaction, and the next adjacency read
// after it rebuilds the view once, O(V + E) — so code that interleaves "is
// this edge there?" with AddEdge keeps its own edge set (the generators,
// kg.InjectNoise). A clone of an interned graph borrows its slabs until its
// first in-place write (Clone).
//
// Mutation is not safe for concurrent use, but any number of goroutines may
// read one graph concurrently — including through Freeze, whose frozen CSR
// view backs every traversal-heavy algorithm in this package.
type Graph struct {
	// Name is an optional human-readable identifier ("G", "caffeine", ...).
	Name     string
	directed bool
	nodes    []Node
	edges    []Edge

	// nodesBorrowed and edgesBorrowed mark slabs a clone reads from the
	// interned graph it was cloned from. They are clipped to cap == len, so
	// an append reallocates; an in-place write copies them first (ownNodes,
	// ownEdges).
	nodesBorrowed, edgesBorrowed bool

	// version counts mutations; Freeze, the cached content hash and the
	// cached kind are memoized per version, so any structural or label
	// change invalidates all three.
	version uint64
	// frozenMu guards frozen (the cached CSR), the cached content hash and
	// the cached kind, each memoized for the current version.
	frozenMu sync.Mutex
	frozen   *CSR
	// Cached ContentHash, computed for hashVersion; the valid flag
	// distinguishes "never computed" from "version 0 computed".
	hash        ContentHash
	hashVersion uint64
	hashValid   bool
	// Cached Classify result, computed for kindVersion, likewise.
	kind        Kind
	kindVersion uint64
	kindValid   bool
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
// edges, so a bulk construction (seq.SuperGraph) appends without re-growing
// the two slabs.
func (g *Graph) Grow(nodes, edges int) {
	if nodes > 0 {
		g.nodes = append(make([]Node, 0, len(g.nodes)+nodes), g.nodes...)
		g.nodesBorrowed = false
	}
	if edges > 0 {
		g.edges = append(make([]Edge, 0, len(g.edges)+edges), g.edges...)
		g.edgesBorrowed = false
	}
}

// ownNodes gives g its own copy of a borrowed node slab before an in-place
// write.
func (g *Graph) ownNodes() {
	if g.nodesBorrowed {
		g.nodes, g.nodesBorrowed = slices.Clone(g.nodes), false
	}
}

// ownEdges gives g its own copy of a borrowed edge slab before an in-place
// write.
func (g *Graph) ownEdges() {
	if g.edgesBorrowed {
		g.edges, g.edgesBorrowed = slices.Clone(g.edges), false
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
	g.nodesBorrowed = false // a borrowed slab has no room: the append copied it
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
	g.ownNodes()
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
	g.ownNodes()
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
	g.edges = append(g.edges, Edge{From: from, To: to, Label: label, Weight: weight})
	g.edgesBorrowed = false // a borrowed slab has no room: the append copied it
	g.bump()
	return nil
}

// RemoveEdge deletes one edge between from and to (the first found in edge
// order, whatever its label) and reports whether an edge was removed.
// Removal is O(E) because the edge list is compacted; cleaning workloads
// remove few edges one at a time (kg.Apply edits its whole plan in one pass
// through SetEdges).
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	for i, e := range g.edges {
		if e.From == from && e.To == to || !g.directed && e.From == to && e.To == from {
			g.ownEdges()
			g.edges = append(g.edges[:i], g.edges[i+1:]...)
			g.bump()
			return true
		}
	}
	return false
}

// SetEdges replaces g's edge list with edges, which g then owns, checking
// every edge as AddEdgeLabeled does. edits (at least 1) is how many
// single-edge additions and removals the replacement stands for: Version
// advances by that many, as it would have under that sequence of calls. On
// an error g is unchanged.
func (g *Graph) SetEdges(edges []Edge, edits int) error {
	for _, e := range edges {
		if !g.valid(e.From) || !g.valid(e.To) {
			return fmt.Errorf("graph: edge (%d,%d) has endpoint outside [0,%d)", e.From, e.To, len(g.nodes))
		}
		if e.From == e.To {
			return fmt.Errorf("graph: self-loop on node %d rejected", e.From)
		}
	}
	g.edges, g.edgesBorrowed = edges, false
	g.bump()
	g.version += uint64(max(edits, 1) - 1)
	return nil
}

// Clone returns a copy of g that mutates independently of it. The copy is
// private: it is never marked shared (even when g is an interned graph). It
// shares what is read-only: the attribute maps (SetNodeAttr replaces a map,
// never writes into it) and, at the same version, the fingerprint, the kind
// and the frozen CSR g has already computed — the executor's clone of an
// interned graph neither hashes 300 nodes again to find the invoke-cache
// entries of the original nor rebuilds the CSR its first step reads. The
// copy's first mutation invalidates them, like any other.
//
// The node and edge slabs of a Shared graph, which never mutates, are
// borrowed too: the clone reads them until its first in-place write copies
// the slab it writes, and an append or a SetEdges leaves them alone ("Clean
// G" replaces the edge list without ever copying the old one). Any other
// graph's slabs are copied.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, directed: g.directed, version: g.version}
	g.frozenMu.Lock()
	if g.hashValid && g.hashVersion == g.version {
		c.hash, c.hashVersion, c.hashValid = g.hash, g.version, true
	}
	if g.kindValid && g.kindVersion == g.version {
		c.kind, c.kindVersion, c.kindValid = g.kind, g.version, true
	}
	if g.frozen != nil && g.frozen.version == g.version {
		c.frozen = g.frozen
	}
	g.frozenMu.Unlock()
	if g.Shared() {
		c.nodes, c.edges = slices.Clip(g.nodes), slices.Clip(g.edges)
		c.nodesBorrowed, c.edgesBorrowed = true, true
		return c
	}
	c.nodes = make([]Node, len(g.nodes))
	copy(c.nodes, g.nodes)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
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
