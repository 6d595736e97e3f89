package graph

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1)); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if id := g.AddNode("x"); id != NodeID(i) {
			t.Fatalf("node %d got id %d", i, id)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(a, a); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Fatal("dangling edge accepted")
	}
}

func TestUndirectedNeighborsSymmetric(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Fatal("undirected edge not visible from both sides")
	}
	if got := g.Neighbors(b); len(got) != 1 || got[0] != a {
		t.Fatalf("Neighbors(b) = %v, want [a]", got)
	}
}

func TestDirectedEdgesOneWay(t *testing.T) {
	g := NewDirected()
	a, b := g.AddNode("a"), g.AddNode("b")
	if err := g.AddEdgeLabeled(a, b, "rel", 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(a, b) {
		t.Fatal("forward edge missing")
	}
	if g.HasEdge(b, a) {
		t.Fatal("directed edge visible backwards")
	}
	if in := g.InNeighbors(b); len(in) != 1 || in[0] != a {
		t.Fatalf("InNeighbors(b) = %v, want [a]", in)
	}
	if in := g.InNeighbors(a); len(in) != 0 {
		t.Fatalf("InNeighbors(a) = %v, want empty", in)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := line(t, 3)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge reported false for existing edge")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge still present after removal")
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("unrelated edge lost after removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge reported true for missing edge")
	}
}

// ShortestPathLengths returns the hop count from src to every node over the
// forward adjacency, -1 where unreachable: one production queue walk
// (queueOrder), read out for the tests that pin depths.
func (g *Graph) ShortestPathLengths(src NodeID) []int {
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	for _, v := range queueOrder(g, src) {
		dist[v.id] = v.d
	}
	return dist
}

func TestBFSDepths(t *testing.T) {
	g := line(t, 5)
	dist := g.ShortestPathLengths(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	g.AddNode("a")
	g.AddNode("b")
	dist := g.ShortestPathLengths(0)
	if dist[1] != -1 {
		t.Fatalf("unreachable node distance = %d, want -1", dist[1])
	}
}

func TestKHopSubgraphNodes(t *testing.T) {
	g := line(t, 6)
	got := g.KHopSubgraphNodes(2, 1)
	want := []NodeID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("KHop = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KHop = %v, want %v", got, want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode("v")
	}
	g.AddEdge(0, 1) //nolint:errcheck
	g.AddEdge(1, 2) //nolint:errcheck
	g.AddEdge(3, 4) //nolint:errcheck
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes = %d,%d,%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	a := g.AddNodeAttrs("a", map[string]string{"k": "v"})
	b := g.AddNode("b")
	g.AddEdge(a, b) //nolint:errcheck
	c := g.Clone()
	c.SetNodeLabel(a, "changed")
	c.SetNodeAttr(a, "k", "changed")
	c.AddEdge(b, c.AddNode("new")) //nolint:errcheck
	if g.Node(a).Label != "a" || g.Node(a).Attrs["k"] != "v" {
		t.Fatal("clone mutation leaked into original node data")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatal("clone mutation leaked into original topology")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := NewDirected()
	g.Name = "kg"
	a := g.AddNodeAttrs("alice", map[string]string{"type": "person"})
	b := g.AddNode("acme")
	if err := g.AddEdgeLabeled(a, b, "works_for", 3); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Directed() || got.Name != "kg" || got.NumNodes() != 2 || got.NumEdges() != 1 {
		t.Fatalf("round trip mismatch: %s", got)
	}
	e := got.Edges()[0]
	if e.Label != "works_for" || e.Weight != 3 {
		t.Fatalf("edge round trip = %+v", e)
	}
	if got.Node(0).Attrs["type"] != "person" {
		t.Fatal("attrs lost in round trip")
	}
}

func TestParseJSONRejectsBadPayloads(t *testing.T) {
	cases := []string{
		`{"nodes":[{"id":1},{"id":1}],"edges":[]}`,         // duplicate id
		`{"nodes":[{"id":1}],"edges":[{"from":1,"to":2}]}`, // dangling edge
		`{"nodes":[{"id":1}],"edges":[{"from":9,"to":1}]}`, // dangling edge
		`not json`, // malformed
		`{"nodes":[{"id":1}],"edges":[{"from":1,"to":1}]}`, // self loop
	}
	for _, c := range cases {
		if _, err := ParseJSON([]byte(c)); err == nil {
			t.Errorf("ParseJSON(%q) succeeded, want error", c)
		}
	}
}

func TestJSONDefaultWeightOmitted(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b) //nolint:errcheck
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "weight") {
		t.Fatalf("default weight serialized: %s", data)
	}
	got, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges()[0].Weight != 1 {
		t.Fatalf("default weight not restored: %+v", got.Edges()[0])
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	er := ErdosRenyi(50, 0.1, rng)
	if er.NumNodes() != 50 {
		t.Fatalf("ER nodes = %d", er.NumNodes())
	}
	ba := BarabasiAlbert(100, 2, rng)
	if ba.NumNodes() != 100 {
		t.Fatalf("BA nodes = %d", ba.NumNodes())
	}
	if comps := ba.ConnectedComponents(); len(comps) != 1 {
		t.Fatalf("BA components = %d, want connected", len(comps))
	}
	sbm := PlantedCommunities(3, 10, 0.6, 0.02, rng)
	if sbm.NumNodes() != 30 {
		t.Fatalf("SBM nodes = %d", sbm.NumNodes())
	}
	if sbm.Node(0).Attrs["community"] != "0" || sbm.Node(29).Attrs["community"] != "2" {
		t.Fatal("SBM community attrs wrong")
	}
}

func TestMoleculeConnectedAndLabeled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 20, 60} {
		m := Molecule(n, rng)
		if m.NumNodes() != n {
			t.Fatalf("Molecule(%d) has %d nodes", n, m.NumNodes())
		}
		if comps := m.ConnectedComponents(); len(comps) != 1 {
			t.Fatalf("Molecule(%d) has %d components", n, len(comps))
		}
		for _, nd := range m.Nodes() {
			if nd.Attrs["element"] == "" {
				t.Fatalf("atom %d missing element attr", nd.ID)
			}
		}
	}
}

func TestKnowledgeGraphPlausibleTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kg := KnowledgeGraph(40, 80, rng)
	if !kg.Directed() {
		t.Fatal("knowledge graph should be directed")
	}
	sigs := KGRelationTypes()
	for _, e := range kg.Edges() {
		sig, ok := sigs[e.Label]
		if !ok {
			t.Fatalf("unknown relation %q", e.Label)
		}
		if st := kg.Node(e.From).Attrs["type"]; st != sig[0] {
			t.Fatalf("edge %s has subject type %s, want %s", e.Label, st, sig[0])
		}
		if ot := kg.Node(e.To).Attrs["type"]; ot != sig[1] {
			t.Fatalf("edge %s has object type %s, want %s", e.Label, ot, sig[1])
		}
	}
}

func TestComputeStatsTriangle(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(a, b) //nolint:errcheck
	g.AddEdge(b, c) //nolint:errcheck
	g.AddEdge(c, a) //nolint:errcheck
	s := ComputeStats(g)
	if s.Triangles != 1 {
		t.Fatalf("triangles = %d, want 1", s.Triangles)
	}
	if s.ClusteringCoeff != 1 {
		t.Fatalf("clustering = %f, want 1", s.ClusteringCoeff)
	}
	if s.ApproxDiameter != 1 {
		t.Fatalf("diameter = %d, want 1", s.ApproxDiameter)
	}
	if s.Density != 1 {
		t.Fatalf("density = %f, want 1", s.Density)
	}
	if !strings.Contains(s.Describe(), "3 nodes") {
		t.Fatalf("Describe missing node count: %s", s.Describe())
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(New())
	if s.Nodes != 0 || s.Edges != 0 {
		t.Fatal("empty graph stats nonzero")
	}
}

func TestClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if k := Classify(Molecule(20, rng)); k != KindMolecule {
		t.Fatalf("molecule classified as %s", k)
	}
	if k := Classify(KnowledgeGraph(30, 60, rng)); k != KindKnowledge {
		t.Fatalf("knowledge graph classified as %s", k)
	}
	if k := Classify(BarabasiAlbert(50, 2, rng)); k != KindSocial {
		t.Fatalf("BA graph classified as %s", k)
	}
	if k := Classify(New()); k != KindUnknown {
		t.Fatalf("empty graph classified as %s", k)
	}
	for _, k := range []Kind{KindUnknown, KindSocial, KindMolecule, KindKnowledge} {
		if k.String() == "" {
			t.Fatal("Kind.String empty")
		}
	}
}

// TestClassifyEdgelessDirected: a directed graph with nodes and no edges has
// no relation labels to go by. It used to classify as a knowledge graph,
// because relLabeled*2 >= m holds when m = 0; its kind comes from its nodes.
func TestClassifyEdgelessDirected(t *testing.T) {
	g := NewDirected()
	for _, l := range []string{"a", "b", "c"} {
		g.AddNode(l)
	}
	if k := Classify(g); k != KindSocial {
		t.Fatalf("edgeless directed graph of plain nodes classified as %s, want social", k)
	}
	for i := NodeID(0); i < 2; i++ {
		g.SetNodeAttr(i, "type", "person")
	}
	if k := Classify(g); k != KindKnowledge {
		t.Fatalf("edgeless directed graph of typed nodes classified as %s, want knowledge", k)
	}
}

// TestClassifyIsMemoizedPerVersion: Classify builds no CSR, answers from
// its memo until the next mutation, and a clone at the same version carries
// the memo.
func TestClassifyIsMemoizedPerVersion(t *testing.T) {
	g := KnowledgeGraph(40, 80, rand.New(rand.NewSource(5)))
	if k := Classify(g); k != KindKnowledge {
		t.Fatalf("classified as %s", k)
	}
	if g.frozen != nil {
		t.Fatal("Classify built a CSR")
	}
	if c := g.Clone(); !c.kindValid || c.kind != KindKnowledge {
		t.Fatal("the clone dropped the kind its original had computed")
	}
	for i := NodeID(0); i < 40; i++ {
		g.SetNodeAttr(i, "element", "C")
	}
	if k := Classify(g); k != KindMolecule {
		t.Fatalf("after the mutation classified as %s, want molecule", k)
	}
}

// TestKindRoundTrip: ParseKind inverts String on every kind — WAL replay
// reads back what turnRecord wrote — and maps anything else to KindUnknown.
func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindUnknown, KindSocial, KindMolecule, KindKnowledge} {
		if got := ParseKind(k.String()); got != k {
			t.Errorf("ParseKind(%q) = %s, want %s", k.String(), got, k)
		}
	}
	for _, name := range []string{"", "Social", "hypergraph"} {
		if got := ParseKind(name); got != KindUnknown {
			t.Errorf("ParseKind(%q) = %s, want unknown", name, got)
		}
	}
}

// Property: for any random graph, every BFS distance from node 0 is either
// -1 or at most n-1, and neighbors are mutual in undirected graphs.
func TestQuickBFSAndSymmetry(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%30) + 2
		p := float64(pRaw%100) / 100
		g := ErdosRenyi(n, p, rand.New(rand.NewSource(seed)))
		dist := g.ShortestPathLengths(0)
		for _, d := range dist {
			if d < -1 || d >= n {
				return false
			}
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.To, e.From) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: JSON round trip preserves node/edge counts and directedness.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := KnowledgeGraph(n, n*2, rand.New(rand.NewSource(seed)))
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		got, err := ParseJSON(data)
		if err != nil {
			return false
		}
		return got.NumNodes() == g.NumNodes() && got.NumEdges() == g.NumEdges() && got.Directed() == g.Directed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	g := New()
	g.AddNode("a")
	if got := g.String(); !strings.Contains(got, "|V|=1") {
		t.Fatalf("String = %q", got)
	}
}
