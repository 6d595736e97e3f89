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

// wire is a graph as the upload spells it: node IDs as sent, edge
// endpoints naming those IDs, weights as sent (0 when absent). The scanner
// decodes into it directly; only the encoding/json fallback goes through
// jsonGraph.
type wire struct {
	name     string
	directed bool
	nodes    []Node
	edges    []Edge
}

// decodeWire is the encoding/json road into w, for what the scanner
// declines — among it every string with an escape or invalid UTF-8; its
// results and errors are the ones the upload path reports for those inputs.
func decodeWire(data []byte, w *wire) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	*w = wire{name: jg.Name, directed: jg.Directed, nodes: make([]Node, len(jg.Nodes)), edges: make([]Edge, len(jg.Edges))}
	for i, n := range jg.Nodes {
		w.nodes[i] = Node{ID: NodeID(n.ID), Label: n.Label, Attrs: n.Attrs}
	}
	for i, e := range jg.Edges {
		w.edges[i] = Edge{From: NodeID(e.From), To: NodeID(e.To), Label: e.Label, Weight: e.Weight}
	}
	return nil
}

// UnmarshalJSON decodes the upload wire format. Node IDs in the payload may
// be sparse; they are remapped to dense IDs preserving payload order. The
// schema scanner (scan.go) decodes what it fully understands — plain
// strings, plain keys, plain numbers — in one pass; whatever it declines
// goes through encoding/json on the same bytes, so results and error texts
// for those inputs are encoding/json's.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var w wire
	if !scanWire(data, &w) {
		if err := decodeWire(data, &w); err != nil {
			return err
		}
	}
	return g.load(&w)
}

// load resets g and adopts w's slabs, validating and remapping them in
// place: the node IDs become indexes, edge endpoints are looked up, absent
// weights become 1, and empty attribute maps nil. The decoder's attribute
// maps are adopted rather than copied — w is private to this parse, and
// nodes the scanner gave one map keep sharing it, as read-only attribute
// maps may (Node.Attrs). Validation order matches the incremental path
// (AddNode / AddEdgeLabeled) exactly: duplicate node IDs in payload order,
// then per edge unknown-From, unknown-To, self-loop.
func (g *Graph) load(w *wire) error {
	// Reset in place (a whole-struct copy would copy the freeze mutex) and
	// bump the version so any cached view of the old contents is invalid.
	g.Name, g.directed = w.name, w.directed
	g.nodes, g.edges = nil, nil
	g.nodesBorrowed, g.edgesBorrowed = false, false
	g.bump()

	nodes, edges := w.nodes, w.edges
	n := len(nodes)
	// Payloads we marshalled ourselves (and most hand-written ones) already
	// carry dense in-order IDs; detect that and skip the remap table — a
	// duplicate is impossible when every ID equals its index.
	dense := true
	for i := range nodes {
		if nodes[i].ID != NodeID(i) {
			dense = false
			break
		}
	}
	var remap map[NodeID]NodeID
	if !dense {
		remap = make(map[NodeID]NodeID, n)
		for i := range nodes {
			id := nodes[i].ID
			if _, dup := remap[id]; dup {
				return fmt.Errorf("graph: duplicate node id %d", id)
			}
			remap[id] = NodeID(i)
			nodes[i].ID = NodeID(i)
		}
	}
	for i := range nodes {
		if len(nodes[i].Attrs) == 0 {
			nodes[i].Attrs = nil
		}
	}

	// Errors surface for the first bad edge in payload order, exactly as
	// AddEdgeLabeled reported them.
	for i := range edges {
		e := &edges[i]
		if dense {
			if e.From < 0 || int(e.From) >= n {
				return fmt.Errorf("graph: edge references unknown node %d", e.From)
			}
			if e.To < 0 || int(e.To) >= n {
				return fmt.Errorf("graph: edge references unknown node %d", e.To)
			}
		} else {
			from, ok := remap[e.From]
			if !ok {
				return fmt.Errorf("graph: edge references unknown node %d", e.From)
			}
			to, ok := remap[e.To]
			if !ok {
				return fmt.Errorf("graph: edge references unknown node %d", e.To)
			}
			e.From, e.To = from, to
		}
		if e.From == e.To {
			return fmt.Errorf("graph: self-loop on node %d rejected", e.From)
		}
		if e.Weight == 0 {
			e.Weight = 1
		}
	}

	g.nodes, g.edges = nodes, edges
	// The version advances exactly as the incremental path did: the reset
	// bump plus one per node and per edge, so parsing the same bytes twice
	// yields the same Version() (exported, and pinned by tests).
	g.version += uint64(n + len(edges))
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
