package kg

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"chatgraph/internal/graph"
)

// oracleDetectIncorrect and oracleDetectMissing are the string-keyed
// detectors the integer-indexed ones replaced, kept verbatim as the
// reference: a "from|rel|to" string per triple, map-of-map adjacency, two
// Attrs["type"] lookups per validity check, the issues sorted as Issues.
func oracleDetectIncorrect(d *Detector, g *graph.Graph) []Issue {
	var issues []Issue
	seen := make(map[string]bool, g.NumEdges())
	for _, e := range g.Edges() {
		key := tripleKey(e.From, e.Label, e.To)
		if seen[key] {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: "duplicate triple",
			})
			continue
		}
		seen[key] = true
		sig, ok := d.Signatures[e.Label]
		if !ok {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: "unknown relation",
			})
			continue
		}
		st := g.Node(e.From).Attrs["type"]
		ot := g.Node(e.To).Attrs["type"]
		if st != sig[0] || ot != sig[1] {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: fmt.Sprintf("type violation: %s(%s,%s) requires (%s,%s)", e.Label, st, ot, sig[0], sig[1]),
			})
		}
	}
	return issues
}

func oracleValidTriple(d *Detector, g *graph.Graph, from graph.NodeID, rel string, to graph.NodeID) bool {
	sig, ok := d.Signatures[rel]
	if !ok {
		return false
	}
	return g.Node(from).Attrs["type"] == sig[0] && g.Node(to).Attrs["type"] == sig[1]
}

func oracleDetectMissing(d *Detector, g *graph.Graph) []Issue {
	byRel := make(map[string]map[graph.NodeID][]graph.NodeID)
	has := make(map[string]bool, g.NumEdges())
	for _, e := range g.Edges() {
		has[tripleKey(e.From, e.Label, e.To)] = true
		if !oracleValidTriple(d, g, e.From, e.Label, e.To) {
			continue
		}
		if byRel[e.Label] == nil {
			byRel[e.Label] = make(map[graph.NodeID][]graph.NodeID)
		}
		byRel[e.Label][e.From] = append(byRel[e.Label][e.From], e.To)
	}
	var issues []Issue
	emit := func(from graph.NodeID, rel string, to graph.NodeID, why string) {
		if from == to || has[tripleKey(from, rel, to)] {
			return
		}
		if !oracleValidTriple(d, g, from, rel, to) {
			return
		}
		has[tripleKey(from, rel, to)] = true // dedup across rules
		issues = append(issues, Issue{Kind: "missing", From: from, To: to, Label: rel, Reason: why})
	}
	for _, r := range d.Rules {
		switch r.Kind {
		case "symmetric":
			for from, tos := range byRel[r.Rel] {
				for _, to := range tos {
					emit(to, r.Rel, from, r.Name)
				}
			}
		case "transitive":
			for x, ys := range byRel[r.Rel] {
				for _, y := range ys {
					for _, z := range byRel[r.Rel][y] {
						emit(x, r.Rel, z, r.Name)
					}
				}
			}
		case "composition":
			for x, ys := range byRel[r.Body1] {
				for _, y := range ys {
					for _, z := range byRel[r.Body2][y] {
						emit(x, r.Head, z, r.Name)
					}
				}
			}
		}
	}
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].From != issues[j].From {
			return issues[i].From < issues[j].From
		}
		if issues[i].To != issues[j].To {
			return issues[i].To < issues[j].To
		}
		return issues[i].Label < issues[j].Label
	})
	return issues
}

func oracleDetect(d *Detector, g *graph.Graph) []Issue {
	return append(oracleDetectIncorrect(d, g), oracleDetectMissing(d, g)...)
}

// sameIssues is DeepEqual that does not tell a nil list from an empty one.
func sameIssues(a, b []Issue) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestDetectParity(t *testing.T) {
	graphs := map[string]*graph.Graph{"empty": graph.NewDirected()}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs[fmt.Sprintf("clean%d", seed)] = graph.KnowledgeGraph(300, 900, rng)
		noisy := graph.KnowledgeGraph(300, 900, rng)
		InjectNoise(noisy, 30, 10, rng)
		graphs[fmt.Sprintf("noisy%d", seed)] = noisy
	}
	// Stored twice, an unknown relation, an untyped node, an undirected
	// graph, and rule bodies chained through a node the noise mistyped.
	odd := graph.KnowledgeGraph(60, 150, rand.New(rand.NewSource(9)))
	for _, e := range odd.Edges()[:20] {
		odd.AddEdgeLabeled(e.From, e.To, e.Label, 1) //nolint:errcheck
	}
	odd.AddEdgeLabeled(0, 1, "teleports_to", 1)                    //nolint:errcheck
	odd.AddEdgeLabeled(0, 1, "teleports_to", 1)                    //nolint:errcheck
	odd.AddEdgeLabeled(2, odd.AddNode("untyped"), "located_in", 1) //nolint:errcheck
	graphs["odd"] = odd
	und := graph.New()
	a := und.AddNodeAttrs("a", map[string]string{"type": "person"})
	b := und.AddNodeAttrs("b", map[string]string{"type": "person"})
	und.AddEdgeLabeled(a, b, "spouse_of", 1) //nolint:errcheck
	graphs["undirected"] = und

	mined := NewDetector()
	mined.Rules = append(mined.Rules,
		Rule{Name: "no such relation", Kind: "transitive", Rel: "teleports_to"},
		Rule{Name: "headless", Kind: "composition", Body1: "capital_of", Body2: "located_in", Head: "orbits"},
		Rule{Name: "bad kind", Kind: "reflexive", Rel: "part_of"},
		Rule{Name: "member symmetry", Kind: "symmetric", Rel: "member_of"})
	detectors := map[string]*Detector{"default": NewDetector(), "extra rules": mined,
		"no signatures": {Rules: DefaultRules()}}

	for gname, g := range graphs {
		for dname, d := range detectors {
			if got, want := d.DetectIncorrect(g), oracleDetectIncorrect(d, g); !sameIssues(got, want) {
				t.Fatalf("%s/%s: DetectIncorrect differs\n got %v\nwant %v", gname, dname, got, want)
			}
			if got, want := d.DetectMissing(g), oracleDetectMissing(d, g); !sameIssues(got, want) {
				t.Fatalf("%s/%s: DetectMissing differs\n got %v\nwant %v", gname, dname, got, want)
			}
			if got, want := d.Detect(g), oracleDetect(d, g); !sameIssues(got, want) {
				t.Fatalf("%s/%s: Detect differs\n got %v\nwant %v", gname, dname, got, want)
			}
		}
	}
}

// Apply used to skip a missing triple whenever any edge joined its endpoints,
// so (x, located_in, z) was dropped where (x, capital_of, z) existed: on
// KnowledgeGraph(300, 900) it applied 742 of the 748 edits the detector
// reported.
func TestApplyAddsEveryMissingTriple(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(seed)))
		before := append([]graph.Edge(nil), g.Edges()...)
		issues := NewDetector().Detect(g)
		if applied := Apply(g, issues); applied != len(issues) {
			t.Errorf("seed %d: applied %d of %d", seed, applied, len(issues))
		}
		stored := make(map[string]int)
		for _, e := range g.Edges() {
			stored[tripleKey(e.From, e.Label, e.To)]++
		}
		for _, is := range issues {
			if n := stored[tripleKey(is.From, is.Label, is.To)]; n != 1 {
				t.Fatalf("seed %d: %v stored %d times after Apply", seed, is, n)
			}
		}
		for _, e := range before {
			if stored[tripleKey(e.From, e.Label, e.To)] == 0 {
				t.Fatalf("seed %d: Apply lost %v", seed, e)
			}
		}
	}

	// The smallest case: the capital is also located in its country.
	g := graph.NewDirected()
	city := g.AddNodeAttrs("paris", map[string]string{"type": "place"})
	country := g.AddNodeAttrs("france", map[string]string{"type": "place"})
	g.AddEdgeLabeled(city, country, "capital_of", 1) //nolint:errcheck
	add := Issue{Kind: "missing", From: city, To: country, Label: "located_in"}
	if applied := Apply(g, []Issue{add, add}); applied != 1 {
		t.Fatalf("applied %d, want 1 (the repeat is a no-op)", applied)
	}
	if g.NumEdges() != 2 || !g.RemoveEdgeLabeled(city, country, "capital_of") || !g.RemoveEdgeLabeled(city, country, "located_in") {
		t.Fatalf("want capital_of and located_in side by side, have %v", g.Edges())
	}
}

// "Clean G" clones the interned graph and adds ~740 edges to the copy, whose
// edge array Clone sized exactly: Apply reserves room for its additions once
// instead of doubling a 36 KB array twice on the way.
func TestApplyGrowsEdgesOnce(t *testing.T) {
	g := graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(1)))
	issues := NewDetector().Detect(g)
	c := g.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Apply(c, issues)
	runtime.ReadMemStats(&after)
	if got, want := cap(c.Edges()), g.NumEdges()+len(issues); got != want {
		t.Errorf("edge array has room for %d edges after Apply, want exactly %d", got, want)
	}
	// What is left to allocate is that one array and the touched nodes'
	// adjacency lists outgrowing their exact-capacity copies.
	edgeArray := uint64(cap(c.Edges())) * uint64(unsafe.Sizeof(graph.Edge{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*edgeArray {
		t.Errorf("Apply allocated %d B, want under twice its %d B edge array", got, edgeArray)
	}
}
