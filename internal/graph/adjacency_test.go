package graph

import "slices"

// The adjacency reads the tests of this package make one node at a time.
// Non-test code reads the frozen CSR (OutNeighbors, OutDegree) once per
// call. These scan Edges() instead, so that they stay a reference for the
// CSR rather than a second read of it: TestCSRNeighborViews and the naive*
// oracles compare the two.

// Neighbors returns the IDs adjacent to u (out-neighbors for directed
// graphs), ascending, parallel edges repeated.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	var out []NodeID
	for _, e := range g.Edges() {
		switch {
		case e.From == u:
			out = append(out, e.To)
		case !g.Directed() && e.To == u:
			out = append(out, e.From)
		}
	}
	slices.Sort(out)
	return out
}

// Degree returns the number of incident edges at u (out-degree for directed
// graphs).
func (g *Graph) Degree(u NodeID) int { return len(g.Neighbors(u)) }

// HasEdge reports whether an edge from→to exists (either direction for
// undirected graphs).
func (g *Graph) HasEdge(from, to NodeID) bool {
	for _, e := range g.Edges() {
		if e.From == from && e.To == to || !g.Directed() && e.From == to && e.To == from {
			return true
		}
	}
	return false
}
