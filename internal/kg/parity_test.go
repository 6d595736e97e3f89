package kg

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// mapTriple, mapView and the mapDetect* functions are the map-keyed
// detectors the row-based ones replaced, kept as the second reference:
// triples as 12-byte comparable map keys, a string-map relation lookup per
// edge in each pass, the valid triples' adjacency as one offset array
// indexed by relation·n + subject, and every rule conclusion collected
// before one comparator sort of 16-byte records.
type mapTriple struct {
	from, to, rel int32
}

type mapView struct {
	types []string    // node → "type" attribute
	names []string    // relation id → label, ascending
	sigs  [][2]string // relation id → required (subject, object) types
	// ids maps a label to its relation id. mapIncorrect numbers the labels
	// that have no signature as it meets them, after the ones that do.
	ids map[string]int32
}

func mapViewOf(d *Detector, g *graph.Graph) *mapView {
	v := &mapView{
		types: make([]string, g.NumNodes()),
		names: make([]string, 0, len(d.Signatures)),
		sigs:  make([][2]string, len(d.Signatures)),
		ids:   make(map[string]int32, len(d.Signatures)),
	}
	for i, n := range g.Nodes() {
		v.types[i] = n.Attrs["type"]
	}
	for rel := range d.Signatures {
		v.names = append(v.names, rel)
	}
	sort.Strings(v.names)
	for id, rel := range v.names {
		v.sigs[id] = d.Signatures[rel]
		v.ids[rel] = int32(id)
	}
	return v
}

func (v *mapView) rel(label string) (id int32, ok bool) {
	id, ok = v.ids[label]
	return id, ok && int(id) < len(v.names)
}

func (v *mapView) valid(from graph.NodeID, rel int32, to graph.NodeID) bool {
	return v.types[from] == v.sigs[rel][0] && v.types[to] == v.sigs[rel][1]
}

func mapIncorrect(g *graph.Graph, v *mapView) ([]Issue, map[mapTriple]struct{}) {
	var issues []Issue
	stored := make(map[mapTriple]struct{}, g.NumEdges())
	for _, e := range g.Edges() {
		rel, seen := v.ids[e.Label]
		if !seen {
			rel = int32(len(v.ids))
			v.ids[e.Label] = rel
		}
		key := mapTriple{int32(e.From), int32(e.To), rel}
		if _, dup := stored[key]; dup {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: "duplicate triple",
			})
			continue
		}
		stored[key] = struct{}{}
		if int(rel) >= len(v.names) {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: "unknown relation",
			})
			continue
		}
		if !v.valid(e.From, rel, e.To) {
			sig := v.sigs[rel]
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: fmt.Sprintf("type violation: %s(%s,%s) requires (%s,%s)", e.Label, v.types[e.From], v.types[e.To], sig[0], sig[1]),
			})
		}
	}
	return issues, stored
}

func mapMissing(d *Detector, g *graph.Graph, v *mapView, stored map[mapTriple]struct{}, issues []Issue) []Issue {
	n := g.NumNodes()
	off := make([]int32, len(v.names)*n+2)
	edges := g.Edges()
	rels := make([]int32, len(edges))
	for i, e := range edges {
		rel, ok := v.rel(e.Label)
		if !ok || !v.valid(e.From, rel, e.To) {
			rels[i] = -1
			continue
		}
		rels[i] = rel
		off[int(rel)*n+int(e.From)+2]++
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	tos := make([]int32, off[len(off)-1])
	for i, e := range edges {
		if rels[i] >= 0 {
			k := int(rels[i])*n + int(e.From) + 1
			tos[off[k]] = int32(e.To)
			off[k]++
		}
	}
	row := func(rel int32, from int) []int32 {
		k := int(rel)*n + from
		return tos[off[k]:off[k+1]]
	}
	type inferred struct {
		ends      uint64
		rel, rule int32
	}
	var found []inferred
	emit := func(from, to int32, rel int32, rule int) {
		key := mapTriple{from, to, rel}
		if _, ok := stored[key]; from == to || ok {
			return
		}
		if !v.valid(graph.NodeID(from), rel, graph.NodeID(to)) {
			return
		}
		stored[key] = struct{}{}
		found = append(found, inferred{uint64(from)<<32 | uint64(to), rel, int32(rule)})
	}
	for ri, r := range d.Rules {
		body1, body2, head := r.Rel, r.Rel, r.Rel
		if r.Kind == "composition" {
			body1, body2, head = r.Body1, r.Body2, r.Head
		}
		b1, ok1 := v.rel(body1)
		b2, ok2 := v.rel(body2)
		h, ok3 := v.rel(head)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		switch r.Kind {
		case "symmetric":
			for from := 0; from < n; from++ {
				for _, to := range row(b1, from) {
					emit(to, int32(from), h, ri)
				}
			}
		case "transitive", "composition":
			for x := 0; x < n; x++ {
				for _, y := range row(b1, x) {
					for _, z := range row(b2, int(y)) {
						emit(int32(x), z, h, ri)
					}
				}
			}
		}
	}
	slices.SortFunc(found, func(a, b inferred) int {
		return cmp.Or(cmp.Compare(a.ends, b.ends), cmp.Compare(a.rel, b.rel))
	})
	issues = slices.Grow(issues, len(found))
	for _, f := range found {
		issues = append(issues, Issue{
			Kind: "missing", From: graph.NodeID(f.ends >> 32), To: graph.NodeID(uint32(f.ends)),
			Label: v.names[f.rel], Reason: d.Rules[f.rule].Name,
		})
	}
	return issues
}

func mapDetectIncorrect(d *Detector, g *graph.Graph) []Issue {
	issues, _ := mapIncorrect(g, mapViewOf(d, g))
	return issues
}

func mapDetectMissing(d *Detector, g *graph.Graph) []Issue {
	v := mapViewOf(d, g)
	stored := make(map[mapTriple]struct{}, g.NumEdges())
	for _, e := range g.Edges() {
		if rel, ok := v.rel(e.Label); ok {
			stored[mapTriple{int32(e.From), int32(e.To), rel}] = struct{}{}
		}
	}
	return mapMissing(d, g, v, stored, nil)
}

func mapDetect(d *Detector, g *graph.Graph) []Issue {
	v := mapViewOf(d, g)
	issues, stored := mapIncorrect(g, v)
	return mapMissing(d, g, v, stored, issues)
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
	graphs["hub"] = hubKG(30)

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
			checkDetectParity(t, gname+"/"+dname, d, g)
		}
	}
}

// checkDetectParity holds the three detectors to both references: the
// string-keyed oracle and the map-keyed detectors.
func checkDetectParity(t *testing.T, name string, d *Detector, g *graph.Graph) {
	t.Helper()
	for _, c := range []struct {
		detector    string
		got, oracle func(*Detector, *graph.Graph) []Issue
		mapKeyed    func(*Detector, *graph.Graph) []Issue
	}{
		{"DetectIncorrect", (*Detector).DetectIncorrect, oracleDetectIncorrect, mapDetectIncorrect},
		{"DetectMissing", (*Detector).DetectMissing, oracleDetectMissing, mapDetectMissing},
		{"Detect", (*Detector).Detect, oracleDetect, mapDetect},
	} {
		got := c.got(d, g)
		if want := c.oracle(d, g); !sameIssues(got, want) {
			t.Fatalf("%s: %s differs from the string-keyed oracle\n got %v\nwant %v", name, c.detector, got, want)
		}
		if want := c.mapKeyed(d, g); !sameIssues(got, want) {
			t.Fatalf("%s: %s differs from the map-keyed detector\n got %v\nwant %v", name, c.detector, got, want)
		}
	}
}

// hubKG is one place located in k places, each located in k places of its
// own: located_in transitivity concludes k² triples, all with the hub as
// their subject.
func hubKG(k int) *graph.Graph {
	g := graph.NewDirected()
	place := map[string]string{"type": "place"}
	hub := g.AddNodeAttrs("hub", place)
	for i := 0; i < k; i++ {
		mid := g.AddNodeAttrs(fmt.Sprintf("mid%d", i), place)
		g.AddEdgeLabeled(hub, mid, "located_in", 1) //nolint:errcheck
		for j := 0; j < k; j++ {
			g.AddEdgeLabeled(mid, g.AddNodeAttrs(fmt.Sprintf("leaf%d_%d", i, j), place), "located_in", 1) //nolint:errcheck
		}
	}
	return g
}

// FuzzDetectParity holds the three detectors to both references on small
// knowledge graphs, directed and undirected, decoded from the fuzz input:
// node types from the signatures, untyped nodes and a type no signature
// names; edges that repeat, carry labels with no signature, or violate
// their relation's types; signatures dropped by a mask; and rule lists of
// every kind, including bad kinds and rules over relations with no
// signature.
func FuzzDetectParity(f *testing.F) {
	f.Add(true, uint8(5), uint8(0), []byte{1, 1, 1, 0, 2}, []byte{0, 1, 1, 1, 2, 1, 0, 1, 1, 3, 4, 2}, []byte{})
	f.Add(false, uint8(4), uint8(0), []byte{0, 0, 1, 1}, []byte{0, 1, 3, 1, 0, 3, 2, 3, 1}, []byte{0, 3, 0, 0})
	f.Add(true, uint8(6), uint8(2), []byte{1, 1, 1, 1, 2, 4}, []byte{0, 1, 1, 1, 2, 1, 2, 3, 7, 3, 4, 1}, []byte{1, 1, 0, 0, 2, 2, 1, 7, 3, 1, 0, 0})
	f.Add(true, uint8(7), uint8(0), []byte{2, 2, 2, 0, 0, 3, 1}, []byte{0, 1, 4, 1, 2, 4, 3, 1, 6, 4, 2, 5}, []byte{2, 6, 4, 6, 0, 8, 8, 8, 1, 7, 7, 7})
	f.Fuzz(func(t *testing.T, directed bool, nodes, sigMask uint8, typeSpec, edgeSpec, ruleSpec []byte) {
		labels := []string{"born_in", "located_in", "part_of", "spouse_of", "capital_of", "member_of", "works_for", "teleports_to", "orbits"}
		types := []string{"person", "place", "org", "", "alien"}
		n := 1 + int(nodes%8)
		g := graph.New()
		if directed {
			g = graph.NewDirected()
		}
		for i := 0; i < n; i++ {
			tp := types[3]
			if i < len(typeSpec) {
				tp = types[int(typeSpec[i])%len(types)]
			}
			id := g.AddNode(fmt.Sprintf("e%d", i))
			if tp != "" {
				g.SetNodeAttr(id, "type", tp)
			}
		}
		for i := 0; i+2 < len(edgeSpec) && i < 3*48; i += 3 {
			g.AddEdgeLabeled(graph.NodeID(int(edgeSpec[i])%n), graph.NodeID(int(edgeSpec[i+1])%n), labels[int(edgeSpec[i+2])%len(labels)], 1) //nolint:errcheck // self-loops are skipped
		}
		d := NewDetector()
		for bit, rel := range labels[:7] {
			if sigMask&(1<<bit) != 0 {
				delete(d.Signatures, rel)
			}
		}
		// Four bytes per rule: kind, then three labels (the relation, or
		// the two bodies and the head).
		if len(ruleSpec) >= 4 {
			kinds := []string{"symmetric", "transitive", "composition", "reflexive"}
			d.Rules = nil
			for i := 0; i+3 < len(ruleSpec) && i < 4*8; i += 4 {
				at := func(k int) string { return labels[int(ruleSpec[i+k])%len(labels)] }
				d.Rules = append(d.Rules, Rule{
					Name: fmt.Sprintf("rule%d", i/4), Kind: kinds[int(ruleSpec[i])%len(kinds)],
					Rel: at(1), Body1: at(1), Body2: at(2), Head: at(3),
				})
			}
		}
		checkDetectParity(t, "fuzz", d, g)
	})
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
	if want := []graph.Edge{{From: city, To: country, Label: "capital_of", Weight: 1}, {From: city, To: country, Label: "located_in", Weight: 1}}; !slices.Equal(g.Edges(), want) {
		t.Fatalf("want capital_of and located_in side by side, have %v", g.Edges())
	}
}

// "Clean G" clones the interned graph and adds ~740 edges to the copy: Apply
// writes the edited edge list once, at its exact size, and what else it
// allocates — the buckets and the chains — is small beside that array.
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
	edgeArray := uint64(cap(c.Edges())) * uint64(unsafe.Sizeof(graph.Edge{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*edgeArray {
		t.Errorf("Apply allocated %d B, want under twice its %d B edge array", got, edgeArray)
	}
}

// applySequential is Apply as it was before the one-pass rewrite — each
// issue in turn through Graph.RemoveEdgeLabeled, or Graph.HasEdgeLabeled
// then AddEdgeLabeled — replayed over a copy of g's edge list, since those
// methods went with it: a removal deletes the first edge in edge order that
// joins the endpoints (either way round when undirected) with the issue's
// label, an addition appends unless such an edge exists and is refused for
// an unknown node or a self-loop. It returns the edited list and how many
// edits applied; under the old Apply, Version advanced once per applied edit.
func applySequential(g *graph.Graph, issues []Issue) ([]graph.Edge, int) {
	edges := slices.Clone(g.Edges())
	n := graph.NodeID(g.NumNodes())
	applied := 0
	for _, is := range issues {
		match := func(e graph.Edge) bool {
			return e.Label == is.Label && (e.From == is.From && e.To == is.To || !g.Directed() && e.From == is.To && e.To == is.From)
		}
		switch is.Kind {
		case "incorrect":
			if i := slices.IndexFunc(edges, match); i >= 0 {
				edges = slices.Delete(edges, i, i+1)
				applied++
			}
		case "missing":
			if slices.ContainsFunc(edges, match) || is.From < 0 || is.From >= n || is.To < 0 || is.To >= n || is.From == is.To {
				continue
			}
			edges = append(edges, graph.Edge{From: is.From, To: is.To, Label: is.Label, Weight: 1})
			applied++
		}
	}
	return edges, applied
}

// checkApplyParity runs Apply on a clone of g and holds it to
// applySequential: the same edges in the same order, the same applied
// count, Version advanced by that count, an exact-size edge slab, and g
// itself untouched.
func checkApplyParity(t *testing.T, g *graph.Graph, issues []Issue) {
	t.Helper()
	before := slices.Clone(g.Edges())
	c := g.Clone()
	v0 := c.Version()
	applied := Apply(c, issues)
	want, wantApplied := applySequential(g, issues)
	if applied != wantApplied {
		t.Fatalf("applied %d, sequential %d\nedges %v\nissues %v", applied, wantApplied, before, issues)
	}
	if !slices.Equal(c.Edges(), want) && (len(want) > 0 || c.NumEdges() > 0) {
		t.Fatalf("edges %v, sequential %v\nbefore %v\nissues %v", c.Edges(), want, before, issues)
	}
	if got := c.Version(); got != v0+uint64(applied) {
		t.Fatalf("version %d after %d edits from %d", got, applied, v0)
	}
	if applied > 0 && cap(c.Edges()) != c.NumEdges() {
		t.Fatalf("edge slab cap %d for %d edges", cap(c.Edges()), c.NumEdges())
	}
	if !slices.Equal(g.Edges(), before) {
		t.Fatal("Apply on the clone changed the original")
	}
}

// TestApplyParity: cleaning plans as the detector makes them, noisy ones,
// and the same plans repeated, reversed and interleaved.
func TestApplyParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.KnowledgeGraph(300, 900, rng)
		checkApplyParity(t, g, NewDetector().Detect(g))
		InjectNoise(g, 30, 10, rng)
		issues := NewDetector().Detect(g)
		checkApplyParity(t, g, issues)
		twice := append(slices.Clone(issues), issues...)
		checkApplyParity(t, g, twice)
		slices.Reverse(twice)
		checkApplyParity(t, g, twice)
		rng.Shuffle(len(twice), func(i, j int) { twice[i], twice[j] = twice[j], twice[i] })
		checkApplyParity(t, g, twice)
	}
}

// FuzzApplyParity holds the one-pass Apply to applySequential on small
// knowledge graphs, directed and undirected, with parallel and repeated
// edges, under issue lists decoded from the fuzz input: repeats,
// remove-then-add, add-then-remove, reversed endpoints, unknown nodes,
// self-loops and kinds Apply ignores.
func FuzzApplyParity(f *testing.F) {
	f.Add(true, uint8(4), []byte{0, 1, 0, 1, 2, 0, 0, 1, 1}, []byte{0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0})
	f.Add(false, uint8(3), []byte{0, 1, 0, 1, 0, 0, 1, 2, 1}, []byte{0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 2, 1, 1})
	f.Add(true, uint8(5), []byte{0, 1, 0, 0, 1, 0, 0, 1, 0}, []byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0})
	f.Add(false, uint8(2), []byte{}, []byte{1, 0, 1, 2, 1, 0, 1, 2, 0, 0, 1, 2, 0, 1, 0, 2})
	f.Add(true, uint8(6), []byte{0, 1, 0, 2, 3, 1}, []byte{1, 255, 0, 0, 1, 0, 9, 0, 1, 2, 2, 1, 0, 3, 3, 0, 2, 0, 1, 0, 3, 0, 1, 1})
	f.Fuzz(func(t *testing.T, directed bool, nodes uint8, edgeSpec, issueSpec []byte) {
		n := 2 + int(nodes%6)
		g := graph.New()
		if directed {
			g = graph.NewDirected()
		}
		for i := 0; i < n; i++ {
			g.AddNodeAttrs(fmt.Sprintf("e%d", i), map[string]string{"type": "place"})
		}
		labels := []string{"located_in", "part_of", "capital_of"}
		for i := 0; i+2 < len(edgeSpec) && i < 3*64; i += 3 {
			g.AddEdgeLabeled(graph.NodeID(int(edgeSpec[i])%n), graph.NodeID(int(edgeSpec[i+1])%n), labels[int(edgeSpec[i+2])%3], 1) //nolint:errcheck // self-loops are skipped
		}
		// Four bytes per issue: kind (0 incorrect, 1 missing, 2 other),
		// endpoints as signed bytes (so -1 and n+k name unknown nodes),
		// label.
		var issues []Issue
		kinds := []string{"incorrect", "missing", "noted"}
		for i := 0; i+3 < len(issueSpec) && i < 4*64; i += 4 {
			issues = append(issues, Issue{
				Kind:  kinds[int(issueSpec[i])%3],
				From:  graph.NodeID(int8(issueSpec[i+1])),
				To:    graph.NodeID(int8(issueSpec[i+2])),
				Label: labels[int(issueSpec[i+3])%3],
			})
		}
		checkApplyParity(t, g, issues)
	})
}

// TestInjectNoiseIsStable pins InjectNoise's fixed-seed output, recorded
// before it stopped asking the graph whether an edge exists and kept its own
// edge set instead: the noisy graph and the corruption it reports.
func TestInjectNoiseIsStable(t *testing.T) {
	for seed, want := range map[int64][2]string{
		1: {"45abe385499cd755b2a016920a33251a840b5222f8ed727cbbd4782dd7326f82", "99492b79f58a9820cacd5a2eb40a5006ef9dbd7b521c515abf9a38db677ab95e"},
		7: {"471510ea031d60dfea00203675d16653fadd4f6e180d5c1ce377b6aaed3c1a56", "bf0444070e4e341c4543f501feaa0ed0129beda236b47fa4142105b571d1e43f"},
	} {
		rng := rand.New(rand.NewSource(seed))
		g := graph.KnowledgeGraph(300, 900, rng)
		c := InjectNoise(g, 30, 10, rng)
		gj, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		cj, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]string{fmt.Sprintf("%x", sha256.Sum256(gj)), fmt.Sprintf("%x", sha256.Sum256(cj))}; got != want {
			t.Errorf("seed %d: sha256 of graph, corruption %v, want %v", seed, got, want)
		}
	}
}
