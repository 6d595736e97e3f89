package moldb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chatgraph/internal/graph"
)

func benzeneLike(label string) *graph.Graph {
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.AddNode(label)
	}
	for i := 0; i < 6; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6)) //nolint:errcheck
	}
	return g
}

func TestFingerprintIdenticalGraphsEqual(t *testing.T) {
	a, b := benzeneLike("C"), benzeneLike("C")
	fa, fb := Fingerprint(a, 3), Fingerprint(b, 3)
	if len(fa) != len(fb) {
		t.Fatalf("fingerprint sizes differ: %d vs %d", len(fa), len(fb))
	}
	for k, v := range fa {
		if fb[k] != v {
			t.Fatal("fingerprints differ for identical graphs")
		}
	}
}

func TestFingerprintEmptyGraph(t *testing.T) {
	if fp := Fingerprint(graph.New(), 3); len(fp) != 0 {
		t.Fatalf("empty graph fingerprint = %v", fp)
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	db := New(3)
	g := benzeneLike("C")
	if s := db.Similarity(g, g); s < 0.999 {
		t.Fatalf("self similarity = %v", s)
	}
}

func TestSimilarityRespectsLabels(t *testing.T) {
	db := New(3)
	carbon, nitrogen := benzeneLike("C"), benzeneLike("N")
	if s := db.Similarity(carbon, nitrogen); s > 0.01 {
		t.Fatalf("label-disjoint rings similarity = %v, want ~0", s)
	}
}

func TestSearchRanksIdenticalFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := New(3)
	for i := 0; i < 30; i++ {
		db.Add("rand", graph.Molecule(12, rng))
	}
	target := benzeneLike("C")
	id := db.Add("benzene", target)
	ms := db.Search(benzeneLike("C"), 2)
	if len(ms) != 2 {
		t.Fatalf("Search returned %d", len(ms))
	}
	if ms[0].ID != id || ms[0].Similarity < 0.999 {
		t.Fatalf("top hit = %+v, want benzene", ms[0])
	}
	if ms[1].Similarity > ms[0].Similarity {
		t.Fatal("results not sorted")
	}
}

func TestSearchEdgeCases(t *testing.T) {
	db := New(0) // default iterations
	if got := db.Search(benzeneLike("C"), 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := db.Search(benzeneLike("C"), 5); len(got) != 0 {
		t.Fatalf("empty DB returned %v", got)
	}
	db.Add("one", benzeneLike("C"))
	if got := db.Search(benzeneLike("C"), 5); len(got) != 1 {
		t.Fatalf("k>len returned %d", len(got))
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestGet(t *testing.T) {
	db := New(2)
	id := db.Add("mol", benzeneLike("C"))
	e, err := db.Get(id)
	if err != nil || e.Name != "mol" {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	if _, err := db.Get(99); err == nil {
		t.Fatal("Get(99) succeeded")
	}
	if _, err := db.Get(-1); err == nil {
		t.Fatal("Get(-1) succeeded")
	}
}

func TestDescribe(t *testing.T) {
	db := New(2)
	id := db.Add("benzene", benzeneLike("C"))
	e, _ := db.Get(id)
	d := Describe(e)
	if !strings.Contains(d, "benzene") || !strings.Contains(d, "6 atoms") {
		t.Fatalf("Describe = %q", d)
	}
}

// Property: similarity is symmetric and within [0, 1].
func TestQuickSimilaritySymmetricBounded(t *testing.T) {
	db := New(2)
	f := func(sa, sb int64) bool {
		a := graph.Molecule(8, rand.New(rand.NewSource(sa)))
		b := graph.Molecule(8, rand.New(rand.NewSource(sb)))
		s1, s2 := db.Similarity(a, b), db.Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
