package apis

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

func TestExtendedAPIsRegistered(t *testing.T) {
	r := reg()
	for _, name := range []string{
		"structure.kcore", "structure.cliques", "structure.assortativity",
		"path.weighted", "structure.center", "structure.coloring",
		"structure.spanning_tree", "molecule.substructure",
	} {
		if _, ok := r.Get(name); !ok {
			t.Fatalf("%s not registered", name)
		}
	}
}

func TestKCoreAPI(t *testing.T) {
	r := reg()
	rng := rand.New(rand.NewSource(1))
	g := graph.BarabasiAlbert(60, 3, rng)
	out, err := r.Invoke(chain.NewStep("structure.kcore"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "Degeneracy") {
		t.Fatalf("kcore = %v, %v", out, err)
	}
	cores, ok := out.Data.([]int)
	if !ok || len(cores) != 60 {
		t.Fatalf("Data = %T", out.Data)
	}
}

func TestCliquesAPI(t *testing.T) {
	r := reg()
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode("v")
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(j)) //nolint:errcheck
		}
	}
	out, err := r.Invoke(chain.NewStep("structure.cliques", "max", "10"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "largest has 4") {
		t.Fatalf("cliques = %v, %v", out, err)
	}
}

func TestAssortativityAPI(t *testing.T) {
	r := reg()
	g := graph.New()
	hub := g.AddNode("h")
	for i := 0; i < 8; i++ {
		g.AddEdge(hub, g.AddNode("l")) //nolint:errcheck
	}
	out, err := r.Invoke(chain.NewStep("structure.assortativity"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "disassortative") {
		t.Fatalf("assortativity = %v, %v", out, err)
	}
}

func TestWeightedPathAPI(t *testing.T) {
	r := reg()
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode("v")
	}
	g.AddEdgeLabeled(0, 1, "", 10) //nolint:errcheck
	g.AddEdgeLabeled(0, 2, "", 1)  //nolint:errcheck
	g.AddEdgeLabeled(2, 1, "", 1)  //nolint:errcheck
	out, err := r.Invoke(chain.NewStep("path.weighted", "from", "0", "to", "1"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "total 2.00") {
		t.Fatalf("weighted path = %v, %v", out, err)
	}
	if _, err := r.Invoke(chain.NewStep("path.weighted", "from", "0", "to", "9"), Input{Graph: g}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestCenterColoringSpanningTreeAPIs(t *testing.T) {
	r := reg()
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)) //nolint:errcheck
	}
	out, err := r.Invoke(chain.NewStep("structure.center"), Input{Graph: g})
	if err != nil || out.Text != "Radius 2, diameter 4; 1 node(s) form the center." || !reflect.DeepEqual(out.Data, []graph.NodeID{2}) {
		t.Fatalf("center = %#v, %v", out, err)
	}
	out, err = r.Invoke(chain.NewStep("structure.coloring"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "2 color") {
		t.Fatalf("coloring = %v, %v", out, err)
	}
	out, err = r.Invoke(chain.NewStep("structure.spanning_tree"), Input{Graph: g})
	if err != nil || !strings.Contains(out.Text, "4 edge") {
		t.Fatalf("mst = %v, %v", out, err)
	}
}

// TestCenterOutputIsPinned pins structure.center's Text and Data on fixed
// graphs: a tree, a ring beside an isolated node (the isolated node is not
// in the center), isolated nodes alone (radius 0: every node is) and the
// empty graph (nil Data).
func TestCenterOutputIsPinned(t *testing.T) {
	r := reg()
	ring := graph.New()
	for i := 0; i < 7; i++ {
		ring.AddNode("v")
	}
	for i := 0; i < 6; i++ {
		ring.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6)) //nolint:errcheck
	}
	isolated := graph.New()
	isolated.AddNode("v")
	isolated.AddNode("v")
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		text string
		data []graph.NodeID
	}{
		{"ba60", graph.BarabasiAlbert(60, 1, rand.New(rand.NewSource(4))), "Radius 5, diameter 10; 1 node(s) form the center.", []graph.NodeID{0}},
		{"ring6+1", ring, "Radius 3, diameter 3; 6 node(s) form the center.", []graph.NodeID{0, 1, 2, 3, 4, 5}},
		{"isolated2", isolated, "Radius 0, diameter 0; 2 node(s) form the center.", []graph.NodeID{0, 1}},
		{"empty", graph.New(), "Radius 0, diameter 0; 0 node(s) form the center.", nil},
	} {
		out, err := r.Invoke(chain.NewStep("structure.center"), Input{Graph: tc.g})
		if err != nil || out.Text != tc.text || !reflect.DeepEqual(out.Data, tc.data) {
			t.Errorf("%s: center = %q %#v, %v; want %q %#v", tc.name, out.Text, out.Data, err, tc.text, tc.data)
		}
	}
}

func TestFunctionalGroups(t *testing.T) {
	// Ethanol-ish: C-C-O.
	g := graph.New()
	c1 := g.AddNode("C")
	c2 := g.AddNode("C")
	o := g.AddNode("O")
	g.AddEdge(c1, c2) //nolint:errcheck
	g.AddEdge(c2, o)  //nolint:errcheck
	counts := FunctionalGroups(g)
	if counts["hydroxyl-like (C-O)"] == 0 {
		t.Fatalf("C-O not detected: %v", counts)
	}
	if counts["amine-like (C-N)"] != 0 {
		t.Fatalf("phantom amine: %v", counts)
	}
	// Benzene ring detection.
	ring := graph.New()
	for i := 0; i < 6; i++ {
		ring.AddNode("C")
	}
	for i := 0; i < 6; i++ {
		ring.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6)) //nolint:errcheck
	}
	if FunctionalGroups(ring)["carbon ring (C6)"] == 0 {
		t.Fatal("C6 ring not detected")
	}
}

func TestSubstructureAPI(t *testing.T) {
	r := reg()
	rng := rand.New(rand.NewSource(2))
	g := graph.Molecule(20, rng)
	out, err := r.Invoke(chain.NewStep("molecule.substructure"), Input{Graph: g})
	if err != nil || out.Text == "" {
		t.Fatalf("substructure = %v, %v", out, err)
	}
	empty := graph.New()
	empty.AddNode("C")
	out, err = r.Invoke(chain.NewStep("molecule.substructure"), Input{Graph: empty})
	if err != nil || !strings.Contains(out.Text, "No recognized") {
		t.Fatalf("empty substructure = %v, %v", out, err)
	}
}
