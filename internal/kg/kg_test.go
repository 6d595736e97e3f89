package kg

import (
	"math/rand"
	"strings"
	"testing"

	"chatgraph/internal/graph"
)

// tinyKG builds a hand-checked knowledge graph:
// alice -spouse_of-> bob, paris -located_in-> france,
// france -located_in-> europe, acme -part_of-> megacorp.
func tinyKG() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.NewDirected()
	ids := map[string]graph.NodeID{}
	add := func(name, typ string) {
		ids[name] = g.AddNodeAttrs(name, map[string]string{"type": typ})
	}
	add("alice", "person")
	add("bob", "person")
	add("paris", "place")
	add("france", "place")
	add("europe", "place")
	add("acme", "org")
	add("megacorp", "org")
	g.AddEdgeLabeled(ids["alice"], ids["bob"], "spouse_of", 1)      //nolint:errcheck
	g.AddEdgeLabeled(ids["paris"], ids["france"], "located_in", 1)  //nolint:errcheck
	g.AddEdgeLabeled(ids["france"], ids["europe"], "located_in", 1) //nolint:errcheck
	g.AddEdgeLabeled(ids["acme"], ids["megacorp"], "part_of", 1)    //nolint:errcheck
	return g, ids
}

func TestDetectIncorrectTypeViolation(t *testing.T) {
	g, ids := tinyKG()
	// A person "located_in" violates (place, place).
	g.AddEdgeLabeled(ids["alice"], ids["paris"], "located_in", 1) //nolint:errcheck
	issues := NewDetector().DetectIncorrect(g)
	if len(issues) != 1 {
		t.Fatalf("issues = %v", issues)
	}
	if issues[0].Kind != "incorrect" || issues[0].From != ids["alice"] {
		t.Fatalf("issue = %+v", issues[0])
	}
	if !strings.Contains(issues[0].Reason, "type violation") {
		t.Fatalf("reason = %q", issues[0].Reason)
	}
}

func TestDetectIncorrectUnknownRelation(t *testing.T) {
	g, ids := tinyKG()
	g.AddEdgeLabeled(ids["alice"], ids["bob"], "teleports_to", 1) //nolint:errcheck
	issues := NewDetector().DetectIncorrect(g)
	if len(issues) != 1 || issues[0].Reason != "unknown relation" {
		t.Fatalf("issues = %v", issues)
	}
}

func TestDetectMissingSymmetry(t *testing.T) {
	g, ids := tinyKG()
	issues := NewDetector().DetectMissing(g)
	found := false
	for _, is := range issues {
		if is.Label == "spouse_of" && is.From == ids["bob"] && is.To == ids["alice"] {
			found = true
		}
	}
	if !found {
		t.Fatalf("symmetry inference missing from %v", issues)
	}
}

func TestDetectMissingTransitivity(t *testing.T) {
	g, ids := tinyKG()
	issues := NewDetector().DetectMissing(g)
	found := false
	for _, is := range issues {
		if is.Label == "located_in" && is.From == ids["paris"] && is.To == ids["europe"] {
			found = true
		}
	}
	if !found {
		t.Fatalf("transitivity inference missing from %v", issues)
	}
}

func TestDetectMissingComposition(t *testing.T) {
	g := graph.NewDirected()
	berlin := g.AddNodeAttrs("berlin", map[string]string{"type": "place"})
	germany := g.AddNodeAttrs("germany", map[string]string{"type": "place"})
	europe := g.AddNodeAttrs("europe", map[string]string{"type": "place"})
	g.AddEdgeLabeled(berlin, germany, "capital_of", 1) //nolint:errcheck
	g.AddEdgeLabeled(germany, europe, "located_in", 1) //nolint:errcheck
	issues := NewDetector().DetectMissing(g)
	found := false
	for _, is := range issues {
		if is.Label == "located_in" && is.From == berlin && is.To == europe {
			found = true
		}
	}
	if !found {
		t.Fatalf("composition inference missing from %v", issues)
	}
}

func TestDetectNoFalsePositivesOnCleanGraph(t *testing.T) {
	g, _ := tinyKG()
	if issues := NewDetector().DetectIncorrect(g); len(issues) != 0 {
		t.Fatalf("clean graph flagged: %v", issues)
	}
}

func TestApply(t *testing.T) {
	g, ids := tinyKG()
	before := g.NumEdges()
	issues := []Issue{
		{Kind: "incorrect", From: ids["alice"], To: ids["bob"], Label: "spouse_of"},
		{Kind: "missing", From: ids["bob"], To: ids["alice"], Label: "spouse_of"},
		{Kind: "missing", From: ids["bob"], To: ids["alice"], Label: "spouse_of"}, // dup: no-op
	}
	applied := Apply(g, issues)
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	if g.NumEdges() != before {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), before)
	}
	if !g.HasEdge(ids["bob"], ids["alice"]) {
		t.Fatal("missing edge not added")
	}
}

func TestInjectNoiseAndScore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.KnowledgeGraph(40, 80, rng)
	c := InjectNoise(g, 10, 5, rng)
	if len(c.AddedWrong) != 10 || len(c.RemovedTrue) != 5 {
		t.Fatalf("corruption = %d wrong, %d dropped", len(c.AddedWrong), len(c.RemovedTrue))
	}
	detected := NewDetector().Detect(g)
	precision, recall := Score(detected, c)
	if recall < 0.99 {
		t.Fatalf("recall = %v; every injected type-violating edge should be caught", recall)
	}
	if precision <= 0 {
		t.Fatalf("precision = %v", precision)
	}
}

func TestScoreEmpty(t *testing.T) {
	p, r := Score(nil, Corruption{})
	if p != 0 || r != 0 {
		t.Fatalf("empty Score = %v, %v", p, r)
	}
}

func TestIssueString(t *testing.T) {
	add := Issue{Kind: "missing", From: 1, To: 2, Label: "r", Reason: "why"}
	if s := add.String(); !strings.HasPrefix(s, "add edge") {
		t.Fatalf("String = %q", s)
	}
	rm := Issue{Kind: "incorrect", From: 1, To: 2, Label: "r"}
	if s := rm.String(); !strings.HasPrefix(s, "remove edge") {
		t.Fatalf("String = %q", s)
	}
}

func TestDetectDuplicateTriple(t *testing.T) {
	g := graph.NewDirected()
	a := g.AddNodeAttrs("a", map[string]string{"type": "person"})
	b := g.AddNodeAttrs("b", map[string]string{"type": "person"})
	g.AddEdgeLabeled(a, b, "spouse_of", 1) //nolint:errcheck
	g.AddEdgeLabeled(a, b, "spouse_of", 1) //nolint:errcheck
	issues := NewDetector().DetectIncorrect(g)
	if len(issues) != 1 || issues[0].Reason != "duplicate triple" {
		t.Fatalf("issues = %v", issues)
	}
}
