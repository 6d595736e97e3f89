package seq_test

import (
	"fmt"

	"chatgraph/internal/graph"
	"chatgraph/internal/seq"
)

func ExamplePathCover() {
	// A triangle: every node's 1-hop neighborhood is covered by paths of
	// length ≤ 1 starting at it.
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b) //nolint:errcheck
	g.AddEdge(b, c) //nolint:errcheck
	g.AddEdge(c, a) //nolint:errcheck
	paths := seq.PathCover(g, 1)
	fmt.Println("paths:", len(paths))
	fmt.Println("covers 1-hop neighborhoods:", seq.CoverageOK(g, paths, 1))
	// Output:
	// paths: 6
	// covers 1-hop neighborhoods: true
}

func ExampleRender() {
	g := graph.New()
	c := g.AddNode("C")
	o := g.AddNode("O")
	g.AddEdge(c, o) //nolint:errcheck
	fmt.Println(seq.Render(g, seq.Path{c, o}))
	// Output:
	// v0[C] - v1[O]
}
