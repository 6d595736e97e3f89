package graph_test

import (
	"fmt"
	"slices"

	"chatgraph/internal/graph"
)

func ExampleGraph() {
	g := graph.New()
	a := g.AddNode("alice")
	b := g.AddNode("bob")
	c := g.AddNode("carol")
	g.AddEdge(a, b) //nolint:errcheck
	g.AddEdge(b, c) //nolint:errcheck
	fmt.Println(g.NumNodes(), "nodes,", g.NumEdges(), "edges")
	fmt.Println("alice-bob adjacent:", slices.Contains(g.Freeze().OutNeighbors(a), b))
	fmt.Println("distance alice->carol:", len(graph.ShortestPath(g, a, c))-1)
	// Output:
	// 3 nodes, 2 edges
	// alice-bob adjacent: true
	// distance alice->carol: 2
}

func ExampleClassify() {
	mol := graph.New()
	c1 := mol.AddNode("C")
	o := mol.AddNode("O")
	mol.AddEdge(c1, o) //nolint:errcheck
	fmt.Println(graph.Classify(mol))
	// Output:
	// molecule
}

func ExampleFindSubgraphIsomorphisms() {
	host := graph.New()
	c1 := host.AddNode("C")
	c2 := host.AddNode("C")
	o := host.AddNode("O")
	host.AddEdge(c1, c2) //nolint:errcheck
	host.AddEdge(c2, o)  //nolint:errcheck

	pattern := graph.New()
	pc := pattern.AddNode("C")
	po := pattern.AddNode("O")
	pattern.AddEdge(pc, po) //nolint:errcheck

	matches := graph.FindSubgraphIsomorphisms(pattern, host, graph.IsoOptions{MaxMatches: 4})
	fmt.Println("C-O occurrences:", len(matches))
	// Output:
	// C-O occurrences: 1
}
