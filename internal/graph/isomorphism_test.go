package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func labeledPath(labels ...string) *Graph {
	g := New()
	for _, l := range labels {
		g.AddNode(l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(NodeID(i), NodeID(i+1)) //nolint:errcheck
	}
	return g
}

func TestSubgraphIsoFindsLabeledPath(t *testing.T) {
	host := labeledPath("C", "O", "C", "N")
	pattern := labeledPath("O", "C")
	ms := FindSubgraphIsomorphisms(pattern, host, IsoOptions{MaxMatches: 10})
	if len(ms) != 2 { // O maps to node 1; C can be node 0 or node 2
		t.Fatalf("matches = %v", ms)
	}
	for _, m := range ms {
		if host.Node(m[0]).Label != "O" || host.Node(m[1]).Label != "C" {
			t.Fatalf("labels violated in %v", m)
		}
		if !host.HasEdge(m[0], m[1]) {
			t.Fatalf("adjacency violated in %v", m)
		}
	}
}

func TestSubgraphIsoNoMatch(t *testing.T) {
	host := labeledPath("C", "C", "C")
	pattern := labeledPath("N", "C")
	if HasSubgraph(pattern, host, IsoOptions{}) {
		t.Fatal("phantom match")
	}
	triangle := New()
	for i := 0; i < 3; i++ {
		triangle.AddNode("C")
	}
	triangle.AddEdge(0, 1) //nolint:errcheck
	triangle.AddEdge(1, 2) //nolint:errcheck
	triangle.AddEdge(2, 0) //nolint:errcheck
	// A triangle cannot embed in a path (not enough adjacency).
	if HasSubgraph(triangle, labeledPath("C", "C", "C"), IsoOptions{}) {
		t.Fatal("triangle embedded in path")
	}
}

func TestSubgraphIsoWildcardLabels(t *testing.T) {
	host := labeledPath("C", "O", "N")
	pattern := labeledPath("", "")
	if !HasSubgraph(pattern, host, IsoOptions{}) {
		t.Fatal("wildcard pattern not found")
	}
}

func TestSubgraphIsoIsMonomorphism(t *testing.T) {
	// Pattern: path a-b-c (no edge a-c). Host: triangle. The host's extra
	// edge does not disqualify the match.
	pattern := labeledPath("", "", "")
	host := New()
	for i := 0; i < 3; i++ {
		host.AddNode("x")
	}
	host.AddEdge(0, 1) //nolint:errcheck
	host.AddEdge(1, 2) //nolint:errcheck
	host.AddEdge(2, 0) //nolint:errcheck
	if !HasSubgraph(pattern, host, IsoOptions{}) {
		t.Fatal("monomorphism not found")
	}
}

func TestSubgraphIsoEdgeCases(t *testing.T) {
	host := labeledPath("C", "C")
	if got := FindSubgraphIsomorphisms(New(), host, IsoOptions{}); got != nil {
		t.Fatal("empty pattern matched")
	}
	big := labeledPath("C", "C", "C")
	if got := FindSubgraphIsomorphisms(big, host, IsoOptions{}); got != nil {
		t.Fatal("oversized pattern matched")
	}
}

func TestSubgraphIsoInjective(t *testing.T) {
	// Pattern of two disconnected nodes must map to two distinct hosts.
	pattern := New()
	pattern.AddNode("C")
	pattern.AddNode("C")
	host := New()
	host.AddNode("C")
	if HasSubgraph(pattern, host, IsoOptions{}) {
		t.Fatal("non-injective match")
	}
}

// Property: planting a random pattern inside a larger host guarantees a
// match, and every returned mapping preserves adjacency and injectivity.
func TestQuickSubgraphIsoPlanted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pattern := ErdosRenyi(4+rng.Intn(3), 0.5, rng)
		for i, n := range pattern.Nodes() {
			pattern.SetNodeLabel(n.ID, string(rune('a'+i%3)))
		}
		// Host = copy of pattern plus noise nodes/edges.
		host := pattern.Clone()
		for i := 0; i < 6; i++ {
			host.AddNode(string(rune('a' + rng.Intn(3))))
		}
		for i := 0; i < 8; i++ {
			u := NodeID(rng.Intn(host.NumNodes()))
			v := NodeID(rng.Intn(host.NumNodes()))
			if u != v && !host.HasEdge(u, v) {
				host.AddEdge(u, v) //nolint:errcheck
			}
		}
		ms := FindSubgraphIsomorphisms(pattern, host, IsoOptions{MaxMatches: 3})
		if len(ms) == 0 {
			return false
		}
		for _, m := range ms {
			seen := make(map[NodeID]bool)
			for pu, hv := range m {
				if seen[hv] || pattern.Node(NodeID(pu)).Label != host.Node(hv).Label {
					return false
				}
				seen[hv] = true
			}
			for _, e := range pattern.Edges() {
				if !host.HasEdge(m[e.From], m[e.To]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// HasSubgraph reports whether pattern occurs in host.
func HasSubgraph(pattern, host *Graph, opts IsoOptions) bool {
	opts.MaxMatches = 1
	return len(FindSubgraphIsomorphisms(pattern, host, opts)) > 0
}
