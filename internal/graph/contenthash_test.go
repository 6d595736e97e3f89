package graph

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// chSpec describes one graph by spec index, so the same spec can be
// materialized under any node/edge insertion order.
type chSpec struct {
	name     string
	directed bool
	labels   []string
	attrs    []map[string]string // per node, may be nil
	edges    []chEdge
}

type chEdge struct {
	from, to int
	label    string
	weight   float64
}

// build materializes the spec. perm gives the node insertion order (nil =
// spec order); edge insertion order is shuffled with rng when rng != nil,
// and attribute keys are set one by one in shuffled order so map fill order
// varies too.
func (sp chSpec) build(t *testing.T, perm []int, rng *rand.Rand) *Graph {
	t.Helper()
	var g *Graph
	if sp.directed {
		g = NewDirected()
	} else {
		g = New()
	}
	g.Name = sp.name
	if perm == nil {
		perm = make([]int, len(sp.labels))
		for i := range perm {
			perm[i] = i
		}
	}
	newID := make([]NodeID, len(sp.labels))
	for _, orig := range perm {
		newID[orig] = g.AddNode(sp.labels[orig])
		keys := make([]string, 0, len(sp.attrs[orig]))
		for k := range sp.attrs[orig] {
			keys = append(keys, k)
		}
		if rng != nil {
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		for _, k := range keys {
			g.SetNodeAttr(newID[orig], k, sp.attrs[orig][k])
		}
	}
	order := make([]int, len(sp.edges))
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, ei := range order {
		e := sp.edges[ei]
		from, to := newID[e.from], newID[e.to]
		if !sp.directed && rng != nil && rng.Intn(2) == 0 {
			from, to = to, from // undirected edges may insert either way
		}
		if err := g.AddEdgeLabeled(from, to, e.label, e.weight); err != nil {
			t.Fatalf("spec edge (%d,%d): %v", e.from, e.to, err)
		}
	}
	return g
}

// randomSpec draws a small random graph spec with labels, attributes,
// parallel edges, and mixed weights.
func randomSpec(rng *rand.Rand) chSpec {
	n := 2 + rng.Intn(10)
	labels := []string{"a", "b", "c", ""}
	attrKeys := []string{"k1", "k2", "type"}
	attrVals := []string{"x", "y", "person"}
	sp := chSpec{
		name:     "spec",
		directed: rng.Intn(2) == 0,
		labels:   make([]string, n),
		attrs:    make([]map[string]string, n),
	}
	for i := 0; i < n; i++ {
		sp.labels[i] = labels[rng.Intn(len(labels))]
		for _, k := range attrKeys {
			if rng.Intn(3) == 0 {
				if sp.attrs[i] == nil {
					sp.attrs[i] = map[string]string{}
				}
				sp.attrs[i][k] = attrVals[rng.Intn(len(attrVals))]
			}
		}
	}
	m := rng.Intn(2 * n)
	edgeLabels := []string{"", "bond", "rel"}
	weights := []float64{1, 1, 2.5, -0.5}
	for len(sp.edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		sp.edges = append(sp.edges, chEdge{
			from:   u,
			to:     v,
			label:  edgeLabels[rng.Intn(len(edgeLabels))],
			weight: weights[rng.Intn(len(weights))],
		})
	}
	return sp
}

// TestContentHashMutationSensitivity is the sensitivity property: every
// single mutation of a spec — node or edge added/removed, weight, label,
// attribute, name, or directedness changed — must change the hash.
func TestContentHashMutationSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		sp := randomSpec(rng)
		if len(sp.edges) == 0 {
			sp.edges = append(sp.edges, chEdge{from: 0, to: 1, weight: 1})
		}
		base := sp.build(t, nil, nil).ContentHash()
		ei := rng.Intn(len(sp.edges))
		ni := rng.Intn(len(sp.labels))
		mutations := map[string]func(chSpec) chSpec{
			"add node": func(s chSpec) chSpec {
				s.labels = append(append([]string(nil), s.labels...), "zz")
				s.attrs = append(append([]map[string]string(nil), s.attrs...), nil)
				return s
			},
			"remove node": func(s chSpec) chSpec {
				last := len(s.labels) - 1
				s.labels = append([]string(nil), s.labels[:last]...)
				s.attrs = append([]map[string]string(nil), s.attrs[:last]...)
				var kept []chEdge
				for _, e := range s.edges {
					if e.from != last && e.to != last {
						kept = append(kept, e)
					}
				}
				s.edges = kept
				return s
			},
			"add edge": func(s chSpec) chSpec {
				s.edges = append(append([]chEdge(nil), s.edges...), chEdge{from: 0, to: 1, label: "new", weight: 9})
				return s
			},
			"remove edge": func(s chSpec) chSpec {
				s.edges = append(append([]chEdge(nil), s.edges[:ei]...), s.edges[ei+1:]...)
				return s
			},
			"change weight": func(s chSpec) chSpec {
				s.edges = append([]chEdge(nil), s.edges...)
				s.edges[ei].weight += 3.25
				return s
			},
			"change edge label": func(s chSpec) chSpec {
				s.edges = append([]chEdge(nil), s.edges...)
				s.edges[ei].label += "'"
				return s
			},
			"change node label": func(s chSpec) chSpec {
				s.labels = append([]string(nil), s.labels...)
				s.labels[ni] += "'"
				return s
			},
			"change attr": func(s chSpec) chSpec {
				s.attrs = append([]map[string]string(nil), s.attrs...)
				m := map[string]string{}
				for k, v := range s.attrs[ni] {
					m[k] = v
				}
				m["k1"] += "'"
				s.attrs[ni] = m
				return s
			},
			"replace attrs": func(s chSpec) chSpec {
				s.attrs = append([]map[string]string(nil), s.attrs...)
				s.attrs[ni] = map[string]string{"extra": "e"}
				return s
			},
			"rename graph": func(s chSpec) chSpec {
				s.name += "'"
				return s
			},
			"flip directedness": func(s chSpec) chSpec {
				s.directed = !s.directed
				return s
			},
		}
		for name, mutate := range mutations {
			if got := mutate(sp).build(t, nil, nil).ContentHash(); got == base {
				t.Fatalf("trial %d: mutation %q left the hash unchanged (%s)\nspec: %+v", trial, name, got, sp)
			}
		}
	}
}

// TestContentHashMutateAndRevert: identity is content, not history — a
// graph mutated and mutated back hashes like it never changed, even though
// its version moved on.
func TestContentHashMutateAndRevert(t *testing.T) {
	g := PlantedCommunities(2, 5, 0.7, 0.2, rand.New(rand.NewSource(3)))
	h0, v0 := g.ContentHash(), g.Version()
	if err := g.AddEdgeLabeled(0, 9, "tmp", 2); err != nil {
		t.Fatal(err)
	}
	if g.ContentHash() == h0 {
		t.Fatal("added edge did not change the hash")
	}
	if !g.RemoveEdgeLabeled(0, 9, "tmp") {
		t.Fatal("revert failed")
	}
	if got := g.ContentHash(); got != h0 {
		t.Fatalf("reverted content hashes %s, want %s", got, h0)
	}
	if g.Version() == v0 {
		t.Fatal("version should have moved on")
	}
}

// TestContentHashParseDeterminism: identical JSON parses to identical hash
// — the property the cross-session cache depends on — and to an identical
// Version().
func TestContentHashParseDeterminism(t *testing.T) {
	data, err := json.Marshal(KnowledgeGraph(8, 14, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if g1.ContentHash() != g2.ContentHash() {
		t.Fatal("identical JSON hashed differently")
	}
	if g1.Version() != g2.Version() {
		t.Fatalf("identical JSON produced versions %d and %d", g1.Version(), g2.Version())
	}
}

// TestContentHashSmallGraphs pins a few distinctions a sloppy hash could
// miss: empty vs one-node, directed vs undirected empties, edge direction
// in directed graphs, and wiring beyond label/edge multisets (a triangle
// plus isolated node vs a 4-path — same n, m, labels, and edge labels).
func TestContentHashSmallGraphs(t *testing.T) {
	if New().ContentHash() != New().ContentHash() {
		t.Fatal("empty graphs must agree")
	}
	if New().ContentHash() == NewDirected().ContentHash() {
		t.Fatal("directedness must reach the hash")
	}
	one := New()
	one.AddNode("x")
	if one.ContentHash() == New().ContentHash() {
		t.Fatal("node count must reach the hash")
	}

	ab := NewDirected()
	a, b := ab.AddNode("a"), ab.AddNode("b")
	if err := ab.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	ba := NewDirected()
	a2, b2 := ba.AddNode("a"), ba.AddNode("b")
	if err := ba.AddEdge(b2, a2); err != nil {
		t.Fatal(err)
	}
	if ab.ContentHash() == ba.ContentHash() {
		t.Fatal("directed edge orientation must reach the hash")
	}

	tri := New()
	for i := 0; i < 4; i++ {
		tri.AddNode("x")
	}
	path := New()
	for i := 0; i < 4; i++ {
		path.AddNode("x")
	}
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 0}} {
		if err := tri.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}} {
		if err := path.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if tri.ContentHash() == path.ContentHash() {
		t.Fatal("triangle+isolated collided with 4-path")
	}
}

// wlTwins returns the classic 1-WL indistinguishable pair — a 6-cycle and
// two disjoint triangles, every node labeled the same — which collide
// under any refinement-based canonical hash.
func wlTwins(t *testing.T) (*Graph, *Graph) {
	t.Helper()
	cycle := New()
	for i := 0; i < 6; i++ {
		cycle.AddNode("C")
	}
	for i := 0; i < 6; i++ {
		if err := cycle.AddEdge(NodeID(i), NodeID((i+1)%6)); err != nil {
			t.Fatal(err)
		}
	}
	triangles := New()
	for i := 0; i < 6; i++ {
		triangles.AddNode("C")
	}
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := triangles.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return cycle, triangles
}

// TestExactHashDiscriminatesWLEquivalents: a 6-cycle and two disjoint
// triangles have equal node labels, degrees and edge multisets and are 1-WL
// equivalent, so nothing short of the wiring itself separates them. The
// fingerprint the intern store and invoke cache key on must.
func TestExactHashDiscriminatesWLEquivalents(t *testing.T) {
	cycle, triangles := wlTwins(t)
	if cycle.ContentHash() == triangles.ContentHash() {
		t.Fatal("ContentHash failed to distinguish structurally different graphs")
	}
}

// TestExactHashOrderSensitivity: permuted insertion orders of one spec —
// nodes, edges, or an undirected edge's endpoints — produce different
// hashes, because node IDs and edge positions are observable through API
// args and outputs and the stores keyed on identity must not conflate the
// representations. Attribute fill order is not observable and must not
// reach the hash.
func TestExactHashOrderSensitivity(t *testing.T) {
	xy := New()
	xy.AddNode("x")
	xy.AddNode("y")
	yx := New()
	yx.AddNode("y")
	yx.AddNode("x")
	if xy.ContentHash() == yx.ContentHash() {
		t.Fatal("the hash must see the node-ID assignment")
	}
	xy2 := New()
	xy2.AddNode("x")
	xy2.AddNode("y")
	if xy.ContentHash() != xy2.ContentHash() {
		t.Fatal("identical construction must agree")
	}

	sp := chSpec{
		name:   "spec",
		labels: []string{"a", "b", "c"},
		attrs:  []map[string]string{{"k1": "x", "k2": "y", "type": "person"}, nil, nil},
		edges:  []chEdge{{0, 1, "rel", 1}, {1, 2, "bond", 2.5}},
	}
	want := sp.build(t, nil, nil).ContentHash()
	if sp.build(t, []int{1, 0, 2}, nil).ContentHash() == want {
		t.Fatal("permuted node insertion hashed like spec order")
	}
	swapped := sp
	swapped.edges = []chEdge{sp.edges[1], sp.edges[0]}
	if swapped.build(t, nil, nil).ContentHash() == want {
		t.Fatal("permuted edge insertion hashed like spec order")
	}
	flipped := sp
	flipped.edges = []chEdge{{1, 0, "rel", 1}, sp.edges[1]}
	if flipped.build(t, nil, nil).ContentHash() == want {
		t.Fatal("swapped undirected endpoints hashed like spec order")
	}
	// build fills attribute maps in shuffled key order when handed an rng;
	// with no edges there is nothing else for it to shuffle.
	noEdges := sp
	noEdges.edges = nil
	ref := noEdges.build(t, nil, nil).ContentHash()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		if noEdges.build(t, nil, rng).ContentHash() != ref {
			t.Fatal("attribute fill order reached the hash")
		}
	}
}

// TestSharedCloneIsPrivate: clones of interned graphs are mutable privately
// and never inherit the shared mark.
func TestSharedCloneIsPrivate(t *testing.T) {
	g := PlantedCommunities(2, 4, 0.8, 0.2, rand.New(rand.NewSource(8)))
	g.MarkShared()
	if !g.Shared() {
		t.Fatal("MarkShared did not stick")
	}
	c := g.Clone()
	if c.Shared() {
		t.Fatal("clone inherited the shared mark")
	}
	if c.ContentHash() != g.ContentHash() {
		t.Fatal("clone content differs from original")
	}
	before := g.NumNodes()
	c.AddNode("private")
	if g.NumNodes() != before {
		t.Fatal("clone mutation leaked into the shared original")
	}
	if c.ContentHash() == g.ContentHash() {
		t.Fatal("mutated clone still hashes like the original")
	}
}

// TestSharedMutationPanicsUnderRace: the race-build guard turns a mutation
// of a shared graph into a loud failure instead of silent cross-session
// corruption.
func TestSharedMutationPanicsUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("mutation guard is armed only in race-enabled builds")
	}
	g := New()
	g.AddNode("a")
	g.MarkShared()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a shared graph did not panic under -race")
		}
	}()
	g.AddNode("b")
}
