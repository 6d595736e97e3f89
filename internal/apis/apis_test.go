package apis

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

func reg() *Registry { return Default(nil) }

func pathGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)) //nolint:errcheck
	}
	return g
}

func TestDefaultRegistryPopulated(t *testing.T) {
	r := reg()
	if r.Len() < 25 {
		t.Fatalf("registry has only %d APIs", r.Len())
	}
	for _, cat := range []string{"understand", "molecule", "compare", "clean", "util"} {
		if !slices.ContainsFunc(r.All(), func(a API) bool { return a.Category == cat }) {
			t.Fatalf("category %q empty", cat)
		}
	}
	names := r.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted")
		}
	}
	for _, a := range r.All() {
		if a.Description == "" {
			t.Fatalf("%s missing description", a.Name)
		}
	}
}

func TestRegisterRejectsBadAndDup(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(API{}); err == nil {
		t.Fatal("empty API accepted")
	}
	ok := API{Name: "x", Fn: func(Input) (Output, error) { return Output{}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestValidateStep(t *testing.T) {
	r := reg()
	cases := []struct {
		step   chain.Step
		wantOK bool
	}{
		{chain.NewStep("graph.stats"), true},
		{chain.NewStep("nope.api"), false},
		{chain.NewStep("path.shortest", "from", "0", "to", "1"), true},
		{chain.NewStep("path.shortest", "from", "0"), false},            // missing required
		{chain.NewStep("path.shortest", "from", "x", "to", "1"), false}, // bad int
		{chain.NewStep("report.compose", "style", "brief"), true},       // enum ok
		{chain.NewStep("report.compose", "style", "epic"), false},       // enum bad
		{chain.NewStep("graph.stats", "bogus", "1"), false},             // unexpected arg
		{chain.NewStep("centrality.pagerank", "damping", "0.9"), true},  // float ok
		{chain.NewStep("centrality.pagerank", "damping", "hot"), false}, // float bad
	}
	for _, c := range cases {
		err := r.ValidateStep(c.step)
		if c.wantOK && err != nil {
			t.Errorf("ValidateStep(%s) = %v, want ok", c.step, err)
		}
		if !c.wantOK && err == nil {
			t.Errorf("ValidateStep(%s) succeeded, want error", c.step)
		}
	}
}

func TestInvokeRunsAndValidates(t *testing.T) {
	r := reg()
	g := pathGraph(4)
	out, err := r.Invoke(chain.NewStep("graph.stats"), Input{Graph: g})
	if err != nil || out.Text == "" {
		t.Fatalf("Invoke = %v, %v", out, err)
	}
	if _, err := r.Invoke(chain.NewStep("nope"), Input{Graph: g}); err == nil {
		t.Fatal("invalid step invoked")
	}
}

func TestLabelPropagationFindsPlantedCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.PlantedCommunities(3, 15, 0.7, 0.01, rng)
	comms := LabelPropagation(g, 30)
	// Communities should roughly match the planted partition: count pairs
	// in the same planted block that share a detected label.
	agree, total := 0, 0
	for i := 0; i < g.NumNodes(); i++ {
		for j := i + 1; j < g.NumNodes(); j++ {
			same := g.Node(graph.NodeID(i)).Attrs["community"] == g.Node(graph.NodeID(j)).Attrs["community"]
			if !same {
				continue
			}
			total++
			if comms[i] == comms[j] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Fatalf("planted-pair agreement = %.2f", frac)
	}
	q := Modularity(g, comms)
	if q < 0.3 {
		t.Fatalf("modularity = %.3f", q)
	}
}

// TestModularityIsOneValue: one assignment gives one modularity. The degree
// terms were once subtracted in map order, and on this fixture 200 calls
// returned two values an ulp apart.
func TestModularityIsOneValue(t *testing.T) {
	g := graph.PlantedCommunities(4, 50, 0.2, 0.01, rand.New(rand.NewSource(7)))
	comms := LabelPropagation(g, 20)
	want := Modularity(g, comms)
	for i := 0; i < 200; i++ {
		if q := Modularity(g, LabelPropagation(g, 20)); q != want {
			t.Fatalf("call %d: modularity %v, first call %v", i, q, want)
		}
	}
}

func TestModularityEdgeCases(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	if q := Modularity(g, []int{0}); q != 0 {
		t.Fatalf("edgeless modularity = %v", q)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.BarabasiAlbert(80, 2, rng)
	pr := PageRank(g, 0.85, 60)
	var sum float64
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("pagerank sum = %v", sum)
	}
	// The highest-degree node should be (near) top ranked.
	bestDeg, bestPR := 0, 0
	c := g.Freeze()
	for i := range pr {
		if c.OutDegree(graph.NodeID(i)) > c.OutDegree(graph.NodeID(bestDeg)) {
			bestDeg = i
		}
		if pr[i] > pr[bestPR] {
			bestPR = i
		}
	}
	if c.OutDegree(graph.NodeID(bestPR)) < c.OutDegree(graph.NodeID(bestDeg))/2 {
		t.Fatalf("top PR node %d has degree %d, hub degree %d", bestPR,
			c.OutDegree(graph.NodeID(bestPR)), c.OutDegree(graph.NodeID(bestDeg)))
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// Directed graph with a sink: mass must not leak.
	g := graph.NewDirected()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdgeLabeled(a, b, "", 1) //nolint:errcheck
	pr := PageRank(g, 0.85, 100)
	if math.Abs(pr[0]+pr[1]-1) > 1e-6 {
		t.Fatalf("dangling pagerank sum = %v", pr[0]+pr[1])
	}
	if pr[1] <= pr[0] {
		t.Fatalf("sink should outrank source: %v", pr)
	}
}

func TestBetweennessPathCenter(t *testing.T) {
	g := pathGraph(5)
	bc := graph.Betweenness(g)
	// Center of a 5-path lies on all 2·(2·2)=... exactly: bc = [0,3,4,3,0].
	want := []float64{0, 3, 4, 3, 0}
	for i, w := range want {
		if math.Abs(bc[i]-w) > 1e-9 {
			t.Fatalf("betweenness = %v, want %v", bc, want)
		}
	}
}

func TestClosenessCenterHighest(t *testing.T) {
	g := pathGraph(5)
	cl := graph.Closeness(g)
	for i := range cl {
		if i != 2 && cl[i] > cl[2] {
			t.Fatalf("closeness center not maximal: %v", cl)
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := pathGraph(5)
	p := graph.ShortestPath(g, 0, 4)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Fatalf("path = %v", p)
	}
	if p := graph.ShortestPath(g, 2, 2); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
	g2 := graph.New()
	g2.AddNode("a")
	g2.AddNode("b")
	if p := graph.ShortestPath(g2, 0, 1); p != nil {
		t.Fatalf("unreachable path = %v", p)
	}
}

func TestBridgesAndArticulation(t *testing.T) {
	// Two triangles joined by a bridge 2-3.
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.AddNode("v")
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		g.AddEdge(e[0], e[1]) //nolint:errcheck
	}
	bridges, arts := BridgesAndArticulation(g)
	if len(bridges) != 1 {
		t.Fatalf("bridges = %v", bridges)
	}
	b := bridges[0]
	if !(b[0] == 2 && b[1] == 3 || b[0] == 3 && b[1] == 2) {
		t.Fatalf("bridge = %v, want 2-3", b)
	}
	if len(arts) != 2 {
		t.Fatalf("articulation points = %v, want [2 3]", arts)
	}
}

// On a directed graph the bridges and articulation points are those of its
// undirected view: the same as for the same edges built undirected.
func TestBridgesAndArticulationDirected(t *testing.T) {
	build := func(g *graph.Graph, n int, edges [][2]graph.NodeID) *graph.Graph {
		for i := 0; i < n; i++ {
			g.AddNode("v")
		}
		for _, e := range edges {
			g.AddEdge(e[0], e[1]) //nolint:errcheck // self-loops rejected in both
		}
		return g
	}
	check := func(name string, n int, edges [][2]graph.NodeID) {
		t.Helper()
		gotB, gotA := BridgesAndArticulation(build(graph.NewDirected(), n, edges))
		wantB, wantA := BridgesAndArticulation(build(graph.New(), n, edges))
		if !slices.Equal(gotB, wantB) || !slices.Equal(gotA, wantA) {
			t.Fatalf("%s: directed bridges %v articulation %v, undirected %v %v", name, gotB, gotA, wantB, wantA)
		}
	}
	check("1→0, 1→2", 3, [][2]graph.NodeID{{1, 0}, {1, 2}})
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(25)
		var edges [][2]graph.NodeID
		for e := rng.Intn(2 * n); e > 0; e-- {
			edges = append(edges, [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))})
		}
		check("random graph "+strconv.Itoa(i), n, edges)
	}
}

func TestUnderstandAPIsRun(t *testing.T) {
	r := reg()
	rng := rand.New(rand.NewSource(2))
	g := graph.PlantedCommunities(2, 10, 0.6, 0.05, rng)
	for _, name := range []string{
		"community.detect", "connectivity.components", "connectivity.bridges",
		"centrality.degree", "centrality.pagerank", "centrality.betweenness",
		"centrality.closeness", "structure.density", "structure.triangles",
	} {
		a, ok := r.Get(name)
		if !ok {
			t.Fatalf("API %s missing", name)
		}
		out, err := a.Fn(Input{Graph: g})
		if err != nil || out.Text == "" {
			t.Fatalf("%s: %v, %v", name, out, err)
		}
	}
}

func TestPathShortestAPIBounds(t *testing.T) {
	r := reg()
	g := pathGraph(3)
	if _, err := r.Invoke(chain.NewStep("path.shortest", "from", "0", "to", "99"), Input{Graph: g}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	out, err := r.Invoke(chain.NewStep("path.shortest", "from", "0", "to", "2"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "2 hops") {
		t.Fatalf("path.shortest = %v, %v", out, err)
	}
}

func TestMoleculeDescriptors(t *testing.T) {
	// Benzene-like ring of 6 carbons: 6 atoms, 6 bonds, 1 ring, weight ~72.
	g := graph.New()
	for i := 0; i < 6; i++ {
		id := g.AddNode("C")
		g.SetNodeAttr(id, "element", "C")
	}
	for i := 0; i < 6; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6)) //nolint:errcheck
	}
	d := ComputeDescriptors(g)
	if d.Rings != 1 {
		t.Fatalf("rings = %d", d.Rings)
	}
	if math.Abs(d.Weight-6*12.011) > 0.01 {
		t.Fatalf("weight = %v", d.Weight)
	}
	if d.Formula != "C6" {
		t.Fatalf("formula = %q", d.Formula)
	}
	if d.HeteroFrac != 0 || d.NOCount != 0 || d.HalogenCount != 0 {
		t.Fatalf("descriptors = %+v", d)
	}
}

func TestHillFormulaOrder(t *testing.T) {
	got := hillFormula(map[string]int{"O": 1, "C": 2, "H": 6, "N": 1})
	if got != "C2H6NO" {
		t.Fatalf("hillFormula = %q", got)
	}
}

func TestPropertyModelsMonotonic(t *testing.T) {
	base := MoleculeDescriptors{Atoms: 10, Bonds: 10, Weight: 120}
	halogenated := base
	halogenated.HalogenCount = 3
	if Toxicity(halogenated) <= Toxicity(base) {
		t.Fatal("halogens should raise toxicity")
	}
	soluble := base
	soluble.NOCount = 4
	if Solubility(soluble) <= Solubility(base) {
		t.Fatal("N/O should raise solubility")
	}
	if LogP(soluble) >= LogP(base) {
		t.Fatal("N/O should lower logP")
	}
	if Solubility(MoleculeDescriptors{}) != 0 {
		t.Fatal("empty molecule solubility")
	}
}

func TestMoleculeAPIsRun(t *testing.T) {
	r := reg()
	rng := rand.New(rand.NewSource(3))
	g := graph.Molecule(15, rng)
	for _, name := range []string{"molecule.formula", "molecule.toxicity", "molecule.solubility", "molecule.logp", "molecule.rings"} {
		out, err := r.Invoke(chain.NewStep(name), Input{Graph: g})
		if err != nil || out.Text == "" {
			t.Fatalf("%s: %v, %v", name, out, err)
		}
	}
}

func TestSimilaritySearchScenario(t *testing.T) {
	env := &Env{}
	r := Default(env)
	rng := rand.New(rand.NewSource(4))
	// Empty DB answers gracefully.
	out, err := r.Invoke(chain.NewStep("similarity.search"), Input{Graph: graph.Molecule(10, rng)})
	if err != nil || !strings.Contains(out.Text, "empty") {
		t.Fatalf("empty DB: %v, %v", out, err)
	}
	for i := 0; i < 20; i++ {
		env.MolDB.Add("mol", graph.Molecule(12, rng))
	}
	q := graph.Molecule(12, rng)
	env.MolDB.Add("twin", q.Clone())
	out, err = r.Invoke(chain.NewStep("similarity.search", "top", "2"), Input{Graph: q})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "twin") {
		t.Fatalf("twin not in top-2: %s", out.Text)
	}
}

func TestSimilarityStoreAndKernel(t *testing.T) {
	env := &Env{}
	r := Default(env)
	rng := rand.New(rand.NewSource(5))
	g := graph.Molecule(10, rng)
	out, err := r.Invoke(chain.NewStep("similarity.store", "name", "query"), Input{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := out.Data.(int)
	if !ok {
		t.Fatalf("store Data = %T", out.Data)
	}
	out, err = r.Invoke(chain.NewStep("similarity.kernel", "id", "0"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "1.000") {
		t.Fatalf("kernel vs self = %v, %v (id %d)", out, err, id)
	}
	if _, err := r.Invoke(chain.NewStep("similarity.kernel", "id", "99"), Input{Graph: g}); err == nil {
		t.Fatal("bad id accepted")
	}
	out, err = r.Invoke(chain.NewStep("compare.stats", "id", "0"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "query") {
		t.Fatalf("compare.stats = %v, %v", out, err)
	}
}

func TestCleaningPipeline(t *testing.T) {
	r := reg()
	rng := rand.New(rand.NewSource(6))
	g := graph.KnowledgeGraph(30, 60, rng)
	// Corrupt, then run detect → apply as the chain would.
	g.AddEdgeLabeled(0, 1, "nonsense_rel", 1) //nolint:errcheck
	det, err := r.Invoke(chain.NewStep("kg.detect_incorrect"), Input{Graph: g})
	if err != nil || !strings.Contains(det.Text, "1 incorrect") {
		t.Fatalf("detect = %v, %v", det, err)
	}
	before := g.NumEdges()
	ap, err := r.Invoke(chain.NewStep("graph.apply_edits"), Input{Graph: g, Prev: det})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before-1 {
		t.Fatalf("apply did not remove the edge: %s", ap.Text)
	}
	// apply_edits without a detection output fails cleanly.
	if _, err := r.Invoke(chain.NewStep("graph.apply_edits"), Input{Graph: g}); err == nil {
		t.Fatal("apply_edits accepted missing Prev")
	}
}

func TestDetectMissingAPI(t *testing.T) {
	r := reg()
	g := graph.NewDirected()
	a := g.AddNodeAttrs("a", map[string]string{"type": "person"})
	b := g.AddNodeAttrs("b", map[string]string{"type": "person"})
	g.AddEdgeLabeled(a, b, "spouse_of", 1) //nolint:errcheck
	out, err := r.Invoke(chain.NewStep("kg.detect_missing"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "missing") {
		t.Fatalf("detect_missing = %v, %v", out, err)
	}
	clean, err := r.Invoke(chain.NewStep("kg.detect_all"), Input{Graph: g})
	if err != nil || clean.Text == "" {
		t.Fatalf("detect_all = %v, %v", clean, err)
	}
}

func TestGraphEditAPIs(t *testing.T) {
	r := reg()
	g := pathGraph(3)
	if _, err := r.Invoke(chain.NewStep("graph.add_edge", "from", "0", "to", "2"), Input{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(g.Freeze().OutNeighbors(0), 2) {
		t.Fatal("edge not added")
	}
	if _, err := r.Invoke(chain.NewStep("graph.remove_edge", "from", "0", "to", "2"), Input{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(g.Freeze().OutNeighbors(0), 2) {
		t.Fatal("edge not removed")
	}
	if _, err := r.Invoke(chain.NewStep("graph.remove_edge", "from", "0", "to", "2"), Input{Graph: g}); err == nil {
		t.Fatal("removing missing edge succeeded")
	}
	if _, err := r.Invoke(chain.NewStep("graph.relabel_node", "node", "1", "label", "x"), Input{Graph: g}); err != nil {
		t.Fatal(err)
	}
	if g.Node(1).Label != "x" {
		t.Fatal("node not relabeled")
	}
	if _, err := r.Invoke(chain.NewStep("graph.relabel_node", "node", "99", "label", "x"), Input{Graph: g}); err == nil {
		t.Fatal("out-of-range relabel succeeded")
	}
}

func TestUtilAPIs(t *testing.T) {
	r := reg()
	rng := rand.New(rand.NewSource(7))
	g := graph.Molecule(10, rng)
	out, err := r.Invoke(chain.NewStep("graph.classify"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "molecule") {
		t.Fatalf("classify = %v, %v", out, err)
	}
	out, err = r.Invoke(chain.NewStep("report.compose", "style", "detailed"), Input{
		Graph: g,
		Prev:  Output{Text: "toxicity 0.4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "Report for") || !strings.Contains(out.Text, "toxicity 0.4") {
		t.Fatalf("report = %s", out.Text)
	}
	if !strings.Contains(out.Text, "Degree extremes") {
		t.Fatalf("detailed style missing extras: %s", out.Text)
	}
	out, err = r.Invoke(chain.NewStep("graph.sample_neighborhood", "node", "0", "hops", "1"), Input{Graph: g})
	if err != nil || out.Text == "" {
		t.Fatalf("sample = %v, %v", out, err)
	}
	if _, err := r.Invoke(chain.NewStep("graph.sample_neighborhood", "node", "999"), Input{Graph: g}); err == nil {
		t.Fatal("out-of-range neighborhood succeeded")
	}
}

// TestSampleNeighborhoodRejectsNegativeHops: a negative radius is a failed
// step, not "The -1-hop neighborhood … contains 0 node(s)"; hops=0 still
// answers the node itself.
func TestSampleNeighborhoodRejectsNegativeHops(t *testing.T) {
	r := reg()
	g := pathGraph(5)
	if out, err := r.Invoke(chain.NewStep("graph.sample_neighborhood", "node", "2", "hops", "-1"), Input{Graph: g}); err == nil {
		t.Fatalf("hops=-1 succeeded: %q", out.Text)
	}
	out, err := r.Invoke(chain.NewStep("graph.sample_neighborhood", "node", "2", "hops", "0"), Input{Graph: g})
	if err != nil || out.Text != "The 0-hop neighborhood of node 2 contains 1 node(s)." {
		t.Fatalf("hops=0 = %q, %v", out.Text, err)
	}
}

func TestInputArgHelpers(t *testing.T) {
	in := Input{Args: map[string]string{"a": "5", "b": "", "c": "xyz"}}
	if in.IntArg("a", 1) != 5 || in.IntArg("b", 2) != 2 || in.IntArg("c", 3) != 3 || in.IntArg("missing", 4) != 4 {
		t.Fatal("IntArg defaults wrong")
	}
	if in.FloatArg("a", 1) != 5 || in.FloatArg("b", 2.5) != 2.5 || in.FloatArg("c", 3.5) != 3.5 || in.FloatArg("missing", 4.5) != 4.5 {
		t.Fatal("FloatArg defaults wrong")
	}
	if in.Arg("a", "d") != "5" || in.Arg("b", "d") != "d" || in.Arg("missing", "d") != "d" {
		t.Fatal("Arg defaults wrong")
	}
}
