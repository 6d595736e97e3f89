package apis

import (
	"fmt"
	"sort"
	"strings"

	"chatgraph/internal/graph"
)

// registerExtended adds the second wave of analysis APIs: cohesion (k-core,
// cliques), mixing (assortativity), distances (weighted paths, center),
// coloring, spanning trees, and molecule substructure search. Registered
// from Default alongside the scenario APIs.
func registerExtended(r *Registry, _ *Env) {
	r.mustRegister(API{
		Name:        "structure.kcore",
		Memoizable:  true,
		Description: "Compute the k-core decomposition of the network to find its most cohesive subgroups.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			core := graph.CoreNumbers(in.Graph)
			degeneracy := 0
			hist := make(map[int]int)
			for _, c := range core {
				hist[c]++
				if c > degeneracy {
					degeneracy = c
				}
			}
			return Output{
				Text: fmt.Sprintf("Degeneracy %d; the innermost %d-core contains %d node(s).", degeneracy, degeneracy, hist[degeneracy]),
				Data: core,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.cliques",
		Memoizable:  true,
		Description: "Enumerate the maximal cliques of the network, the tightly knit groups where everyone knows everyone.",
		Category:    "understand",
		Params: []Param{
			{Name: "max", Description: "stop after this many cliques", Kind: "int", Default: "1000"},
		},
		Fn: func(in Input) (Output, error) {
			cliques := graph.MaximalCliques(in.Graph, in.IntArg("max", 1000))
			largest := 0
			for _, c := range cliques {
				if len(c) > largest {
					largest = len(c)
				}
			}
			return Output{
				Text: fmt.Sprintf("Found %d maximal clique(s); the largest has %d members.", len(cliques), largest),
				Data: cliques,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.assortativity",
		Memoizable:  true,
		Description: "Measure degree assortativity: whether hubs connect to hubs or to peripheral nodes.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			a := graph.Assortativity(in.Graph)
			tendency := "neutral mixing"
			switch {
			case a > 0.1:
				tendency = "assortative: hubs attach to hubs"
			case a < -0.1:
				tendency = "disassortative: hubs attach to the periphery"
			}
			return Output{
				Text: fmt.Sprintf("Degree assortativity %.3f (%s).", a, tendency),
				Data: a,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "path.weighted",
		Memoizable:  true,
		Description: "Compute the minimum weight route between two nodes using the edge weights.",
		Category:    "understand",
		Params: []Param{
			{Name: "from", Description: "source node id", Required: true, Kind: "int"},
			{Name: "to", Description: "target node id", Required: true, Kind: "int"},
		},
		Fn: func(in Input) (Output, error) {
			from := graph.NodeID(in.IntArg("from", -1))
			to := graph.NodeID(in.IntArg("to", -1))
			n := graph.NodeID(in.Graph.NumNodes())
			if from < 0 || to < 0 || from >= n || to >= n {
				return Output{}, fmt.Errorf("path.weighted: node out of range (have %d nodes)", n)
			}
			path, w := graph.WeightedShortestPath(in.Graph, from, to)
			if path == nil {
				return Output{Text: fmt.Sprintf("No route exists between node %d and node %d.", from, to), Data: path}, nil
			}
			parts := make([]string, len(path))
			for i, id := range path {
				parts[i] = fmt.Sprintf("%d", id)
			}
			return Output{
				Text: fmt.Sprintf("Minimum-weight route (total %.2f): %s.", w, strings.Join(parts, " -> ")),
				Data: path,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.center",
		Memoizable:  true,
		Description: "Find the center of the graph: the nodes with the smallest eccentricity, plus the radius and diameter.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			ecc, radius, diameter := graph.Eccentricities(in.Graph)
			var center []graph.NodeID
			for u, e := range ecc {
				if e == radius {
					center = append(center, graph.NodeID(u))
				}
			}
			return Output{
				Text: fmt.Sprintf("Radius %d, diameter %d; %d node(s) form the center.", radius, diameter, len(center)),
				Data: center,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.coloring",
		Memoizable:  true,
		Description: "Color the graph so adjacent nodes differ, reporting how many colors the greedy heuristic needs.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			colors, k := graph.GreedyColoring(in.Graph)
			return Output{
				Text: fmt.Sprintf("Greedy coloring uses %d color(s).", k),
				Data: colors,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.spanning_tree",
		Memoizable:  true,
		Description: "Compute a minimum weight spanning tree of the graph and its total weight.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			edges, total := graph.MinimumSpanningForest(in.Graph)
			return Output{
				Text: fmt.Sprintf("Minimum spanning forest has %d edge(s) with total weight %.2f.", len(edges), total),
				Data: edges,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "molecule.substructure",
		Memoizable:  true,
		Description: "Search the molecule for functional group substructures like hydroxyl, amine, and halide motifs.",
		Category:    "molecule",
		Fn: func(in Input) (Output, error) {
			counts := FunctionalGroups(in.Graph)
			if len(counts) == 0 {
				return Output{Text: "No recognized functional groups found.", Data: counts}, nil
			}
			keys := make([]string, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s×%d", k, counts[k])
			}
			return Output{
				Text: fmt.Sprintf("Functional groups: %s.", strings.Join(parts, ", ")),
				Data: counts,
			}, nil
		},
	})
}

// functionalGroupPatterns are the small labeled motifs substructure search
// looks for. Patterns are expressed as tiny graphs and matched with the
// exact subgraph-isomorphism engine.
func functionalGroupPatterns() map[string]*graph.Graph {
	mk := func(labels []string, edges [][2]int) *graph.Graph {
		g := graph.New()
		for _, l := range labels {
			g.AddNode(l)
		}
		for _, e := range edges {
			g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])) //nolint:errcheck
		}
		return g
	}
	return map[string]*graph.Graph{
		"hydroxyl-like (C-O)":  mk([]string{"C", "O"}, [][2]int{{0, 1}}),
		"amine-like (C-N)":     mk([]string{"C", "N"}, [][2]int{{0, 1}}),
		"thioether-like (C-S)": mk([]string{"C", "S"}, [][2]int{{0, 1}}),
		"chloride (C-Cl)":      mk([]string{"C", "Cl"}, [][2]int{{0, 1}}),
		"fluoride (C-F)":       mk([]string{"C", "F"}, [][2]int{{0, 1}}),
		"ether-like (C-O-C)":   mk([]string{"C", "O", "C"}, [][2]int{{0, 1}, {1, 2}}),
		"carbon ring (C6)": mk([]string{"C", "C", "C", "C", "C", "C"},
			[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}),
	}
}

// FunctionalGroups counts occurrences of each known functional-group motif
// in the molecule (up to 64 matches per motif to bound work).
func FunctionalGroups(g *graph.Graph) map[string]int {
	out := make(map[string]int)
	for name, pattern := range functionalGroupPatterns() {
		ms := graph.FindSubgraphIsomorphisms(pattern, g, graph.IsoOptions{MaxMatches: 64})
		if len(ms) > 0 {
			out[name] = len(ms)
		}
	}
	return out
}
