package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"chatgraph/internal/graph"
	"chatgraph/internal/llm"
)

// promptFidelity prints E37: how much of a graph the prompt llm.BuildPrompt
// renders for an HTTP LLM actually shows the model. The three graphs are the
// prompt goldens' (internal/llm/testdata); every column is read back from the
// prompt's text, and the hash pins the prompt's bytes.
func promptFidelity() {
	fmt.Printf("%-8s %5s %2s %6s %9s %9s %5s %6s %7s %s\n",
		"graph", "lines", "l", "levels", "nodes", "edges", "comms", "supers", "biggest", "hash")
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		kind graph.Kind
	}{
		{"sbm4x50", graph.PlantedCommunities(4, 50, 0.3, 0.02, rand.New(rand.NewSource(11))), graph.KindSocial},
		{"kg300", graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(12))), graph.KindKnowledge},
		{"mol30", graph.Molecule(30, rand.New(rand.NewSource(13))), graph.KindMolecule},
	} {
		for _, lines := range []int{7, 40, 160} {
			for _, l := range []int{2, 3, 4} {
				for _, levels := range []int{1, 2} {
					msgs := llm.BuildPrompt("Clean G", tc.g, tc.kind,
						[]string{"graph.classify", "kg.detect_all"},
						map[string]string{"kg.detect_all": "Detect issues."},
						llm.PromptConfig{MaxPathLines: lines, PathLength: l, Levels: levels})
					f := readPrompt(tc.g, msgs[1].Content)
					h := fnv.New32a()
					h.Write([]byte(msgs[0].Content + "\n" + msgs[1].Content))
					fmt.Printf("%-8s %5d %2d %6d %9s %9s %5s %6s %7s %08x\n", tc.name, lines, l, levels,
						fmt.Sprintf("%d/%d", f.nodes, tc.g.NumNodes()), fmt.Sprintf("%d/%d", f.edges, tc.g.NumEdges()),
						f.comms, f.supers, f.biggest, h.Sum32())
				}
			}
		}
	}
}

// fidelity is what one prompt names of its graph. comms is "touched/planted"
// over the nodes' "community" attrs ("-" for a graph with none); supers and
// biggest are the distinct super-nodes the motif section names and the most
// members any of them merges ("-" without a motif section).
type fidelity struct {
	nodes, edges           int
	comms, supers, biggest string
}

// readPrompt parses the path sections of a BuildPrompt user message. A path
// line is "v3[C] - v7[O] - ..."; an edge is named when two consecutive nodes
// of a printed level-0 path join it.
func readPrompt(g *graph.Graph, user string) fidelity {
	named := map[graph.NodeID]bool{}
	steps := map[[2]graph.NodeID]bool{}
	supers := map[int]bool{}
	biggest, section := 1, ""
	for _, line := range strings.Split(user, "\n") {
		if strings.HasPrefix(line, "### ") {
			section = line
			continue
		}
		if line == "" || strings.HasPrefix(line, "... (") {
			continue
		}
		prev := graph.NodeID(-1)
		for _, tok := range strings.Split(line, " - ") {
			label := ""
			if i := strings.IndexByte(tok, '['); i > 0 {
				tok, label = tok[:i], strings.TrimSuffix(tok[i+1:], "]")
			}
			id, err := strconv.Atoi(strings.TrimPrefix(tok, "v"))
			if err != nil {
				break // not a path line
			}
			switch section {
			case "### GraphPaths":
				named[graph.NodeID(id)] = true
				if prev >= 0 {
					steps[[2]graph.NodeID{prev, graph.NodeID(id)}] = true
				}
				prev = graph.NodeID(id)
			case "### GraphMotifPaths":
				supers[id] = true
				if i := strings.LastIndexByte(label, '*'); strings.HasPrefix(label, "motif:") && i > 0 {
					if k, err := strconv.Atoi(label[i+1:]); err == nil {
						biggest = max(biggest, k)
					}
				}
			}
		}
	}
	f := fidelity{nodes: len(named), comms: "-", supers: "-", biggest: "-"}
	for _, e := range g.Edges() {
		if steps[[2]graph.NodeID{e.From, e.To}] || !g.Directed() && steps[[2]graph.NodeID{e.To, e.From}] {
			f.edges++
		}
	}
	planted, touched := map[string]bool{}, map[string]bool{}
	for _, n := range g.Nodes() {
		if c, ok := n.Attrs["community"]; ok {
			planted[c] = true
			if named[n.ID] {
				touched[c] = true
			}
		}
	}
	if len(planted) > 0 {
		f.comms = fmt.Sprintf("%d/%d", len(touched), len(planted))
	}
	if len(supers) > 0 {
		f.supers, f.biggest = strconv.Itoa(len(supers)), strconv.Itoa(biggest)
	}
	return f
}
