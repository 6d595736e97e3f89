package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[string]string) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestParseSharesRepeatedAttrs: nodes whose attrs objects repeat byte for
// byte share one map, and SetNodeAttr on one of them replaces its map
// instead of writing into the shared one.
func TestParseSharesRepeatedAttrs(t *testing.T) {
	g, err := ParseJSON([]byte(`{"nodes":[` +
		`{"id":0,"attrs":{"type":"person"}},{"id":1,"attrs":{"type":"person"}},` +
		`{"id":2,"attrs":{"type":"person"}},{"id":3,"attrs":{"type":"place"}}],"edges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	attrs := func(i int) map[string]string { return g.Node(NodeID(i)).Attrs }
	if !sameMap(attrs(0), attrs(1)) || !sameMap(attrs(0), attrs(2)) {
		t.Fatal("nodes with the same attrs bytes got separate maps")
	}
	if sameMap(attrs(0), attrs(3)) {
		t.Fatal("nodes with different attrs share a map")
	}
	g.SetNodeAttr(1, "type", "org")
	g.SetNodeAttr(2, "age", "40")
	for i, want := range []map[string]string{
		{"type": "person"}, {"type": "org"}, {"type": "person", "age": "40"}, {"type": "place"},
	} {
		if !reflect.DeepEqual(attrs(i), want) {
			t.Errorf("node %d attrs = %v, want %v", i, attrs(i), want)
		}
	}
	if sameMap(attrs(0), attrs(1)) || sameMap(attrs(0), attrs(2)) {
		t.Fatal("SetNodeAttr wrote into the shared map instead of replacing it")
	}
}

// TestAttrsShareOnlyEqualBytes: the per-parse table matches raw bytes, so
// objects that decode equal but are spelled differently get maps of their
// own, an object that merely starts like a remembered one is decoded, and a
// parse with more distinct objects than the table holds decodes every one
// exactly as encoding/json does.
func TestAttrsShareOnlyEqualBytes(t *testing.T) {
	g, err := ParseJSON([]byte(`{"nodes":[` +
		`{"id":0,"attrs":{"a":"b"}},{"id":1,"attrs":{"a":"b"}},{"id":2,"attrs":{ "a" : "b" }},` +
		`{"id":3,"attrs":{"a":"b","c":"d"}},{"id":4,"attrs":{"a":"b"}}],"edges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	if !sameMap(nodes[0].Attrs, nodes[1].Attrs) {
		t.Error("node 1 repeats node 0's attrs bytes but got its own map")
	}
	for i := 2; i <= 3; i++ {
		if sameMap(nodes[0].Attrs, nodes[i].Attrs) {
			t.Errorf("node %d shares node 0's map, but its attrs bytes differ", i)
		}
	}
	if !reflect.DeepEqual(nodes[1].Attrs, nodes[0].Attrs) || !reflect.DeepEqual(nodes[3].Attrs, map[string]string{"a": "b", "c": "d"}) {
		t.Fatalf("attrs decoded wrong: %v", nodes)
	}
	if !sameMap(nodes[0].Attrs, nodes[4].Attrs) {
		t.Error("node 4 repeats node 0's attrs bytes but got its own map")
	}

	checkAgainstOracle(t, []byte(manyAttrsBody(3*attrSeenSize)))
}

// manyAttrsBody is an upload whose nodes cycle through distinct attrs
// objects: more of them than the scanner's table holds, each repeated.
func manyAttrsBody(distinct int) string {
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i := 0; i < 2*distinct+3; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"attrs":{"k":"v%d"}}`, i, i%distinct)
	}
	b.WriteString(`],"edges":[]}`)
	return b.String()
}

// parsedKG is the knowledge-graph upload of chat_large_cold, parsed as the
// server parses it.
func parsedKG(t testing.TB, nodes, edges int) (*Graph, []byte) {
	t.Helper()
	data, err := json.Marshal(KnowledgeGraph(nodes, edges, rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	return g, data
}

// TestCloneKeepsFrozenView: a clone of a frozen graph reads the original's
// CSR until its first mutation, then builds its own, and nothing the clone
// does reaches the original's CSR, statistics, kind or fingerprint.
func TestCloneKeepsFrozenView(t *testing.T) {
	g, _ := parsedKG(t, 300, 900)
	csr, stats, kind, hash := g.Freeze(), ComputeStats(g), Classify(g), g.ContentHash()
	for name, mutate := range map[string]func(c *Graph){
		"SetNodeAttr": func(c *Graph) { c.SetNodeAttr(0, "element", "C") },
		"AddEdge": func(c *Graph) {
			if err := c.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
		},
	} {
		c := g.Clone()
		if c.Freeze() != csr {
			t.Fatalf("%s: the clone rebuilt the CSR of an unmutated graph", name)
		}
		mutate(c)
		if c.Freeze() == csr {
			t.Fatalf("%s: the mutated clone still reads the original's CSR", name)
		}
		if g.Freeze() != csr || !reflect.DeepEqual(ComputeStats(g), stats) || Classify(g) != kind || g.ContentHash() != hash {
			t.Fatalf("%s on the clone changed the original's frozen view", name)
		}
		if name == "AddEdge" && ComputeStats(c).Edges != stats.Edges+1 {
			t.Fatalf("the clone's own CSR misses its new edge: %d edges", ComputeStats(c).Edges)
		}
	}

	// A CSR older than the graph is not the clone's to keep.
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if c := g.Clone(); ComputeStats(c).Edges != stats.Edges+1 || c.Freeze() == csr {
		t.Fatal("the clone kept a CSR from before the original's last mutation")
	}
}

// TestConcurrentClonesOfSharedGraph: goroutines that each clone one
// shared, frozen graph and edit their clone, while others read the
// original, share its CSR and attribute maps without a race (run under
// -race) and without seeing each other's edits.
func TestConcurrentClonesOfSharedGraph(t *testing.T) {
	g, _ := parsedKG(t, 300, 900)
	g.MarkShared()
	want, kind := ComputeStats(g), Classify(g)
	var before []map[string]string
	for i := 0; i < 10; i++ {
		before = append(before, map[string]string{"type": g.Node(NodeID(i)).Attrs["type"]})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					if got := ComputeStats(g); got.Edges != want.Edges || got.Triangles != want.Triangles || Classify(g) != kind {
						t.Errorf("the shared graph's view changed: %+v", got)
						return
					}
					continue
				}
				c := g.Clone()
				if ComputeStats(c).Edges != want.Edges {
					t.Error("a fresh clone disagrees with the original")
					return
				}
				c.SetNodeAttr(NodeID(i), "type", "org")
				if err := c.AddEdge(NodeID(i), NodeID(i+1)); err != nil {
					t.Error(err)
					return
				}
				if ComputeStats(c).Edges != want.Edges+1 || c.Node(NodeID(i)).Attrs["type"] != "org" {
					t.Error("the clone lost its own edit")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 10; i++ {
		if a, b := g.Node(NodeID(i)).Attrs, before[i]; !reflect.DeepEqual(a, b) {
			t.Fatalf("node %d of the shared graph now has attrs %v, was %v", i, a, b)
		}
	}
}

// TestCloneGrowsIndependently: a clone grown edge by edge reads its own
// adjacency (the CSR its first mutation makes it rebuild), and the original
// keeps reading its own.
func TestCloneGrowsIndependently(t *testing.T) {
	g := BarabasiAlbert(40, 2, rand.New(rand.NewSource(3)))
	before := make([][]NodeID, 40)
	for u := range before {
		before[u] = g.Neighbors(NodeID(u))
	}
	c := g.Clone()
	for v := NodeID(2); v < 40; v++ {
		if !c.HasEdge(1, v) {
			if err := c.AddEdge(1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for u := NodeID(0); u < 40; u++ {
		if got := g.Neighbors(u); !slices.Equal(got, before[u]) {
			t.Fatalf("original node %d neighbours %v after the clone grew, were %v", u, got, before[u])
		}
		if u == 1 {
			continue
		}
		want := slices.Clone(before[u])
		if u >= 2 && !slices.Contains(before[1], u) {
			want = append(want, 1)
			slices.Sort(want)
		}
		if got := c.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("node %d neighbours %v, want %v", u, got, want)
		}
	}
}

// TestCloneAndParseAllocBudgets: a clone costs a constant number of
// allocations whatever the graph's size — the Graph and its two slabs (it
// used to rebuild every attribute map and adjacency row: 854 at 300 nodes)
// — and a parse costs about one per node (a label each) plus a constant.
func TestCloneAndParseAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, size := range [][2]int{{300, 900}, {1200, 3600}} {
		g, data := parsedKG(t, size[0], size[1])
		g.Freeze()
		if allocs := testing.AllocsPerRun(20, func() { g.Clone() }); allocs > 3 {
			t.Errorf("Clone of a %d-node KG: %.0f allocs, budget 3", size[0], allocs)
		}
		budget := float64(g.NumNodes() + 40)
		if allocs := testing.AllocsPerRun(20, func() { ParseJSON(data) }); allocs > budget { //nolint:errcheck
			t.Errorf("ParseJSON of a %d-node KG: %.0f allocs, budget %.0f", size[0], allocs, budget)
		}
	}
}
