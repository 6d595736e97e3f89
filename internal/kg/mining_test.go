package kg

import (
	"strings"
	"testing"

	"chatgraph/internal/graph"
)

// symmetricKG: spouse_of stored in both directions for 4 couples, plus a
// one-directional stray.
func symmetricKG() *graph.Graph {
	g := graph.NewDirected()
	for i := 0; i < 10; i++ {
		g.AddNodeAttrs("p", map[string]string{"type": "person"})
	}
	for i := 0; i < 8; i += 2 {
		g.AddEdgeLabeled(graph.NodeID(i), graph.NodeID(i+1), "spouse_of", 1) //nolint:errcheck
		g.AddEdgeLabeled(graph.NodeID(i+1), graph.NodeID(i), "spouse_of", 1) //nolint:errcheck
	}
	g.AddEdgeLabeled(8, 9, "spouse_of", 1) //nolint:errcheck
	return g
}

func TestMineSymmetry(t *testing.T) {
	rules := MineRules(symmetricKG(), MineConfig{MinSupport: 3, MinConfidence: 0.5})
	found := false
	for _, r := range rules {
		if r.Kind == "symmetric" && r.Rel == "spouse_of" {
			found = true
			if r.Confidence < 0.8 {
				t.Fatalf("symmetry confidence = %v", r.Confidence)
			}
			if r.Support != 9 {
				t.Fatalf("symmetry support = %d, want 9", r.Support)
			}
		}
	}
	if !found {
		t.Fatalf("spouse symmetry not mined: %v", rules)
	}
}

func TestMineTransitivity(t *testing.T) {
	// located_in chain with closure edges present.
	g := graph.NewDirected()
	for i := 0; i < 6; i++ {
		g.AddNodeAttrs("pl", map[string]string{"type": "place"})
	}
	// 0→1→2, closure 0→2; 3→4→5, closure 3→5.
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddEdgeLabeled(e[0], e[1], "located_in", 1) //nolint:errcheck
	}
	rules := MineRules(g, MineConfig{MinSupport: 2, MinConfidence: 0.9})
	found := false
	for _, r := range rules {
		if r.Kind == "transitive" && r.Rel == "located_in" {
			found = true
			if r.Confidence != 1 {
				t.Fatalf("transitivity confidence = %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Fatalf("transitivity not mined: %v", rules)
	}
}

func TestMineComposition(t *testing.T) {
	g := graph.NewDirected()
	for i := 0; i < 9; i++ {
		g.AddNodeAttrs("pl", map[string]string{"type": "place"})
	}
	// capital_of(x,y) ∧ located_in(y,z) ⇒ located_in(x,z), three instances.
	for i := 0; i < 9; i += 3 {
		a, b, c := graph.NodeID(i), graph.NodeID(i+1), graph.NodeID(i+2)
		g.AddEdgeLabeled(a, b, "capital_of", 1) //nolint:errcheck
		g.AddEdgeLabeled(b, c, "located_in", 1) //nolint:errcheck
		g.AddEdgeLabeled(a, c, "located_in", 1) //nolint:errcheck
	}
	rules := MineRules(g, MineConfig{MinSupport: 3, MinConfidence: 0.9})
	found := false
	for _, r := range rules {
		if r.Kind == "composition" && r.Body1 == "capital_of" && r.Body2 == "located_in" && r.Head == "located_in" {
			found = true
		}
	}
	if !found {
		t.Fatalf("composition not mined: %v", rules)
	}
}

func TestMineThresholdsFilter(t *testing.T) {
	// One couple only: support 2 < MinSupport 3 → nothing mined.
	g := graph.NewDirected()
	a := g.AddNodeAttrs("a", map[string]string{"type": "person"})
	b := g.AddNodeAttrs("b", map[string]string{"type": "person"})
	g.AddEdgeLabeled(a, b, "spouse_of", 1) //nolint:errcheck
	g.AddEdgeLabeled(b, a, "spouse_of", 1) //nolint:errcheck
	if rules := MineRules(g, MineConfig{}); len(rules) != 0 {
		t.Fatalf("under-supported rules mined: %v", rules)
	}
}

func TestMinedRulesDriveDetector(t *testing.T) {
	g := symmetricKG()
	mined := MineRules(g, MineConfig{MinSupport: 3, MinConfidence: 0.5})
	d := NewDetector()
	d.Rules = nil
	for _, m := range mined {
		d.Rules = append(d.Rules, m.Rule)
	}
	issues := d.DetectMissing(g)
	// The stray one-directional spouse edge 8→9 should yield missing 9→8.
	found := false
	for _, is := range issues {
		if is.From == 9 && is.To == 8 && is.Label == "spouse_of" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mined rules did not infer the missing reverse edge: %v", issues)
	}
}

func TestMinedRuleString(t *testing.T) {
	for _, r := range []MinedRule{
		{Rule: Rule{Kind: "symmetric", Rel: "r"}, Support: 3, Confidence: 0.9},
		{Rule: Rule{Kind: "transitive", Rel: "r"}, Support: 3, Confidence: 0.9},
		{Rule: Rule{Kind: "composition", Body1: "a", Body2: "b", Head: "c"}, Support: 3, Confidence: 0.9},
		{Rule: Rule{Kind: "other", Name: "custom"}, Support: 1, Confidence: 1},
	} {
		if !strings.Contains(r.String(), "support 3") && r.Kind != "other" {
			t.Fatalf("String = %q", r.String())
		}
	}
}

func TestMineRulesSortedByConfidence(t *testing.T) {
	g := symmetricKG()
	rules := MineRules(g, MineConfig{MinSupport: 1, MinConfidence: 0.01})
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Fatal("rules not sorted by confidence")
		}
	}
}
