package graph

import (
	"encoding/json"
	"fmt"
)

// jsonGraph is the wire form of a graph. It matches what the chat server and
// CLI accept as uploaded graphs.
type jsonGraph struct {
	Name     string     `json:"name,omitempty"`
	Directed bool       `json:"directed,omitempty"`
	Nodes    []jsonNode `json:"nodes"`
	Edges    []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID    int               `json:"id"`
	Label string            `json:"label,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

type jsonEdge struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Label  string  `json:"label,omitempty"`
	Weight float64 `json:"weight,omitempty"`
}

// MarshalJSON encodes g in the upload wire format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Name:     g.Name,
		Directed: g.directed,
		Nodes:    make([]jsonNode, 0, len(g.nodes)),
		Edges:    make([]jsonEdge, 0, len(g.edges)),
	}
	for _, n := range g.nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{ID: int(n.ID), Label: n.Label, Attrs: n.Attrs})
	}
	for _, e := range g.edges {
		w := e.Weight
		if w == 1 {
			w = 0 // omit default weight
		}
		jg.Edges = append(jg.Edges, jsonEdge{From: int(e.From), To: int(e.To), Label: e.Label, Weight: w})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes the upload wire format. Node IDs in the payload may
// be sparse; they are remapped to dense IDs preserving payload order. The
// schema scanner (scan.go) decodes what it fully understands in one pass;
// whatever it declines goes through encoding/json on the same bytes, so
// results and error texts for those inputs are encoding/json's.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if !scanWire(data, &jg) {
		jg = jsonGraph{}
		if err := json.Unmarshal(data, &jg); err != nil {
			return fmt.Errorf("graph: decode: %w", err)
		}
	}
	// Reset in place (a whole-struct copy would copy the freeze mutex) and
	// bump the version so any cached view of the old contents is invalid.
	g.Name = jg.Name
	g.directed = jg.Directed
	g.nodes, g.edges, g.adj = nil, nil, nil
	g.bump()
	return g.loadWire(&jg)
}

// loadWire bulk-loads the decoded wire form into a reset g with batch
// allocation: one Node slab, one Edge slab, and one edge-index slab carved
// into per-node adjacency rows, instead of the per-AddNode/AddEdge appends
// (two adjacency allocations per node) the incremental path pays. The
// decoder's attribute maps are adopted rather than copied — jg is private to
// this parse, and nodes the scanner gave one map keep sharing it, as read-only
// attribute maps may (Node.Attrs). Validation order matches the incremental path exactly:
// duplicate node IDs in payload order, then per edge unknown-From,
// unknown-To, self-loop.
func (g *Graph) loadWire(jg *jsonGraph) error {
	n, m := len(jg.Nodes), len(jg.Edges)

	// Payloads we marshalled ourselves (and most hand-written ones) already
	// carry dense in-order IDs; detect that and skip the remap table — a
	// duplicate is impossible when every ID equals its index.
	dense := true
	for i := range jg.Nodes {
		if jg.Nodes[i].ID != i {
			dense = false
			break
		}
	}
	var remap map[int]NodeID
	if !dense {
		remap = make(map[int]NodeID, n)
		for i := range jg.Nodes {
			id := jg.Nodes[i].ID
			if _, dup := remap[id]; dup {
				return fmt.Errorf("graph: duplicate node id %d", id)
			}
			remap[id] = NodeID(i)
		}
	}

	nodes := make([]Node, n)
	for i := range jg.Nodes {
		nodes[i] = Node{ID: NodeID(i), Label: jg.Nodes[i].Label}
		if len(jg.Nodes[i].Attrs) > 0 {
			nodes[i].Attrs = jg.Nodes[i].Attrs
		}
	}

	// Validate every edge and count degrees in one pass, then fill the Edge
	// slab; errors surface for the first bad edge in payload order, exactly
	// as AddEdgeLabeled reported them.
	edges := make([]Edge, m)
	deg := make([]int, n)
	for i := range jg.Edges {
		e := &jg.Edges[i]
		var from, to NodeID
		if dense {
			if e.From < 0 || e.From >= n {
				return fmt.Errorf("graph: edge references unknown node %d", e.From)
			}
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("graph: edge references unknown node %d", e.To)
			}
			from, to = NodeID(e.From), NodeID(e.To)
		} else {
			var ok bool
			if from, ok = remap[e.From]; !ok {
				return fmt.Errorf("graph: edge references unknown node %d", e.From)
			}
			if to, ok = remap[e.To]; !ok {
				return fmt.Errorf("graph: edge references unknown node %d", e.To)
			}
		}
		if from == to {
			return fmt.Errorf("graph: self-loop on node %d rejected", from)
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		edges[i] = Edge{From: from, To: to, Label: e.Label, Weight: w}
		deg[from]++
		if !g.directed {
			deg[to]++
		}
	}

	// Carve one index slab into the adjacency rows. Three-index subslices
	// cap each row at its degree, so a post-parse AddEdge appending to a row
	// reallocates just that row instead of corrupting its neighbor.
	total := 0
	for _, d := range deg {
		total += d
	}
	slab := make([]int, 0, total)
	adj := make([][]int, n)
	off := 0
	for u, d := range deg {
		adj[u] = slab[off : off : off+d]
		off += d
	}
	for i := range edges {
		e := &edges[i]
		adj[e.From] = append(adj[e.From], i)
		if !g.directed {
			adj[e.To] = append(adj[e.To], i)
		}
	}

	g.nodes, g.edges, g.adj = nodes, edges, adj
	// The version advances exactly as the incremental path did: the caller's
	// reset bump plus one per node and per edge, so parsing the same bytes
	// twice yields the same Version() (exported, and pinned by tests).
	g.version += uint64(n + m)
	return nil
}

// ParseJSON decodes one graph from JSON bytes.
func ParseJSON(data []byte) (*Graph, error) {
	g := New()
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}
