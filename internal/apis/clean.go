package apis

import (
	"fmt"
	"strings"

	"chatgraph/internal/graph"
	"chatgraph/internal/kg"
)

// registerClean adds the knowledge-graph cleaning and graph-edit APIs of
// scenario 3 (Fig. 6). Detection APIs produce an issue list; the edit APIs
// apply it (after the session obtains user confirmation).
func registerClean(r *Registry, env *Env) {
	r.mustRegister(API{
		Name:        "kg.detect_incorrect",
		Description: "Detect incorrect edges in a knowledge graph, such as type violations and duplicate triples, to clean the noise.",
		Category:    "clean",
		Fn: func(in Input) (Output, error) {
			issues := env.Detector.DetectIncorrect(in.Graph)
			return issueOutput("incorrect edge(s)", issues), nil
		},
	})
	r.mustRegister(API{
		Name:        "kg.detect_missing",
		Description: "Infer missing edges in a knowledge graph using logical rules like symmetry and transitivity to complete and clean it.",
		Category:    "clean",
		Fn: func(in Input) (Output, error) {
			issues := env.Detector.DetectMissing(in.Graph)
			return issueOutput("missing edge(s)", issues), nil
		},
	})
	r.mustRegister(API{
		Name:        "kg.detect_all",
		Description: "Clean the knowledge graph: run all quality checks and report every incorrect and missing edge to fix.",
		Category:    "clean",
		Fn: func(in Input) (Output, error) {
			issues := env.Detector.Detect(in.Graph)
			return issueOutput("issue(s)", issues), nil
		},
	})
	r.mustRegister(API{
		Name:        "kg.mine_rules",
		Description: "Mine logical rules like symmetry and transitivity from the knowledge graph with support and confidence scores.",
		Category:    "clean",
		Params: []Param{
			{Name: "min_support", Description: "minimum body instances", Kind: "int", Default: "3"},
			{Name: "min_confidence", Description: "minimum confidence", Kind: "float", Default: "0.6"},
		},
		Fn: func(in Input) (Output, error) {
			mined := kg.MineRules(in.Graph, kg.MineConfig{
				MinSupport:    in.IntArg("min_support", 3),
				MinConfidence: in.FloatArg("min_confidence", 0.6),
			})
			if len(mined) == 0 {
				return Output{Text: "No rules met the support and confidence thresholds.", Data: mined}, nil
			}
			var b strings.Builder
			fmt.Fprintf(&b, "Mined %d rule(s):\n", len(mined))
			for i, m := range mined {
				if i >= 8 {
					fmt.Fprintf(&b, "... and %d more\n", len(mined)-8)
					break
				}
				fmt.Fprintf(&b, "  %d. %s\n", i+1, m)
			}
			return Output{Text: strings.TrimRight(b.String(), "\n"), Data: mined}, nil
		},
	})
	r.mustRegister(API{
		Name:        "graph.apply_edits",
		Description: "Apply the confirmed cleaning edits, removing incorrect edges and adding missing edges to repair the graph.",
		Category:    "clean",
		Mutates:     true,
		Fn: func(in Input) (Output, error) {
			issues, ok := in.Prev.Data.([]kg.Issue)
			if !ok {
				return Output{}, fmt.Errorf("graph.apply_edits: previous step produced %T, want []kg.Issue from a detection API", in.Prev.Data)
			}
			applied := kg.Apply(in.Graph, issues)
			return Output{
				Text: fmt.Sprintf("Applied %d of %d edit(s); the graph now has %d edges.", applied, len(issues), in.Graph.NumEdges()),
				Data: applied,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "graph.add_edge",
		Description: "Add a single edge with an optional label between two nodes of the graph.",
		Category:    "clean",
		Mutates:     true,
		Params: []Param{
			{Name: "from", Description: "source node id", Required: true, Kind: "int"},
			{Name: "to", Description: "target node id", Required: true, Kind: "int"},
			{Name: "label", Description: "edge label"},
		},
		Fn: func(in Input) (Output, error) {
			from := graph.NodeID(in.IntArg("from", -1))
			to := graph.NodeID(in.IntArg("to", -1))
			if err := in.Graph.AddEdgeLabeled(from, to, in.Arg("label", ""), 1); err != nil {
				return Output{}, err
			}
			return Output{Text: fmt.Sprintf("Added edge %d -> %d.", from, to), Data: true}, nil
		},
	})
	r.mustRegister(API{
		Name:        "graph.remove_edge",
		Description: "Remove a single edge between two nodes of the graph.",
		Category:    "clean",
		Mutates:     true,
		Params: []Param{
			{Name: "from", Description: "source node id", Required: true, Kind: "int"},
			{Name: "to", Description: "target node id", Required: true, Kind: "int"},
		},
		Fn: func(in Input) (Output, error) {
			from := graph.NodeID(in.IntArg("from", -1))
			to := graph.NodeID(in.IntArg("to", -1))
			if !in.Graph.RemoveEdge(from, to) {
				return Output{}, fmt.Errorf("graph.remove_edge: no edge %d -> %d", from, to)
			}
			return Output{Text: fmt.Sprintf("Removed edge %d -> %d.", from, to), Data: true}, nil
		},
	})
	r.mustRegister(API{
		Name:        "graph.relabel_node",
		Description: "Change the label of one node in the graph to fix a mislabel.",
		Category:    "clean",
		Mutates:     true,
		Params: []Param{
			{Name: "node", Description: "node id", Required: true, Kind: "int"},
			{Name: "label", Description: "new label", Required: true},
		},
		Fn: func(in Input) (Output, error) {
			id := in.IntArg("node", -1)
			if id < 0 || id >= in.Graph.NumNodes() {
				return Output{}, fmt.Errorf("graph.relabel_node: node %d out of range", id)
			}
			old := in.Graph.Node(graph.NodeID(id)).Label
			in.Graph.SetNodeLabel(graph.NodeID(id), in.Arg("label", ""))
			return Output{Text: fmt.Sprintf("Relabeled node %d from %q to %q.", id, old, in.Arg("label", "")), Data: true}, nil
		},
	})
}

func issueOutput(noun string, issues []kg.Issue) Output {
	if len(issues) == 0 {
		return Output{Text: fmt.Sprintf("No %s found; the graph looks clean.", noun), Data: issues}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Found %d %s:\n", len(issues), noun)
	for i, is := range issues {
		if i >= 10 {
			fmt.Fprintf(&b, "... and %d more\n", len(issues)-10)
			break
		}
		fmt.Fprintf(&b, "  %d. %s\n", i+1, is)
	}
	return Output{Text: strings.TrimRight(b.String(), "\n"), Data: issues}
}
