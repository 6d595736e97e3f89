package apis

import (
	"fmt"
	"strings"

	"chatgraph/internal/graph"
)

// registerUtil adds the cross-cutting APIs every scenario uses: graph type
// classification, summary statistics, and report composition.
func registerUtil(r *Registry, _ *Env) {
	r.mustRegister(API{
		Name:        "graph.classify",
		Memoizable:  true,
		Description: "Predict whether the uploaded graph is a social network, a chemical molecule, or a knowledge graph.",
		Category:    "util",
		Fn: func(in Input) (Output, error) {
			kind := graph.Classify(in.Graph)
			return Output{
				Text: fmt.Sprintf("The graph looks like a %s graph.", kind),
				Data: kind,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "graph.stats",
		Memoizable:  true,
		Description: "Summarize the basic statistics of the graph: nodes, edges, density, degrees, components, and clustering.",
		Category:    "util",
		Fn: func(in Input) (Output, error) {
			c := in.Graph.Freeze()
			return Output{Text: strings.TrimRight(c.Describe(), "\n"), Data: c.Stats()}, nil
		},
	})
	r.mustRegister(API{
		Name:        "report.compose",
		Description: "Write a brief natural language report about the graph combining the results of the previous analysis steps.",
		Category:    "util",
		Params: []Param{
			{Name: "style", Description: "report style", Kind: "enum", Enum: []string{"brief", "detailed"}, Default: "brief"},
		},
		Fn: func(in Input) (Output, error) {
			kind := graph.Classify(in.Graph)
			c := in.Graph.Freeze()
			s := c.Stats()
			var b strings.Builder
			name := in.Graph.Name
			if name == "" {
				name = "G"
			}
			fmt.Fprintf(&b, "Report for %s (%s graph):\n", name, kind)
			b.WriteString(c.Describe())
			if in.Prev.Text != "" {
				b.WriteString("Analysis findings:\n")
				for _, line := range strings.Split(in.Prev.Text, "\n") {
					fmt.Fprintf(&b, "  %s\n", line)
				}
			}
			if in.Arg("style", "brief") == "detailed" {
				fmt.Fprintf(&b, "Degree extremes: min %d, max %d; diameter ≈ %d.\n",
					s.MinDegree, s.MaxDegree, s.ApproxDiameter)
			}
			return Output{Text: strings.TrimRight(b.String(), "\n"), Data: s}, nil
		},
	})
	r.mustRegister(API{
		Name:        "graph.sample_neighborhood",
		Memoizable:  true,
		Description: "Extract the neighborhood subgraph within a number of hops around a node.",
		Category:    "util",
		Params: []Param{
			{Name: "node", Description: "center node id", Required: true, Kind: "int"},
			{Name: "hops", Description: "radius in hops", Kind: "int", Default: "2"},
		},
		Fn: func(in Input) (Output, error) {
			id := in.IntArg("node", -1)
			if id < 0 || id >= in.Graph.NumNodes() {
				return Output{}, fmt.Errorf("graph.sample_neighborhood: node %d out of range", id)
			}
			hops := in.IntArg("hops", 2)
			if hops < 0 {
				return Output{}, fmt.Errorf("graph.sample_neighborhood: hops must be at least 0, got %d", hops)
			}
			nodes := in.Graph.KHopSubgraphNodes(graph.NodeID(id), hops)
			return Output{
				Text: fmt.Sprintf("The %d-hop neighborhood of node %d contains %d node(s).", hops, id, len(nodes)),
				Data: nodes,
			}, nil
		},
	})
}
