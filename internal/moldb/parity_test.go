package moldb

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"chatgraph/internal/graph"
)

// parityGraphs returns n seeded query graphs of every shape the kernel
// sees: molecules of the daemon's sizes, the empty graph, a single atom,
// plain-labelled (no element attribute) undirected and directed graphs,
// and labels no stored molecule carries.
func parityGraphs(rng *rand.Rand, n int) []*graph.Graph {
	gs := []*graph.Graph{graph.New(), graph.Molecule(1, rng), benzeneLike("C"), benzeneLike("Xe")}
	for len(gs) < n {
		switch len(gs) % 4 {
		case 0, 1:
			gs = append(gs, graph.Molecule(8+rng.Intn(20), rng))
		case 2:
			gs = append(gs, labelledGraph(rng, false))
		default:
			gs = append(gs, labelledGraph(rng, true))
		}
	}
	return gs
}

// labelledGraph is a random graph whose node labels (not an element
// attribute) carry the WL seed labels.
func labelledGraph(rng *rand.Rand, directed bool) *graph.Graph {
	g := graph.New()
	if directed {
		g = graph.NewDirected()
	}
	n := 1 + rng.Intn(15)
	for i := 0; i < n; i++ {
		g.AddNode([]string{"C", "N", "O", "a", "b"}[rng.Intn(5)])
	}
	for j := rng.Intn(2 * n); j > 0; j-- {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))) //nolint:errcheck // a refused self-loop is fine
	}
	return g
}

// parityDB stores the same 200 molecules in a DB and in the map oracle:
// seeded like the daemon's database, plus one molecule stored twice (so
// searches meet exact ties) and one empty graph (norm 0).
func parityDB(t testing.TB) (*DB, *oracleDB, []*graph.Graph) {
	rng := rand.New(rand.NewSource(7))
	var mols []*graph.Graph
	for i := 0; i < 198; i++ {
		mols = append(mols, graph.Molecule(8+rng.Intn(20), rng))
	}
	mols = append(mols, mols[5].Clone(), graph.New())
	db, o := New(3), &oracleDB{iterations: 3}
	for i, g := range mols {
		name := string(rune('A'+i%26)) + "mol"
		db.Add(name, g)
		o.add(name, g)
	}
	if db.Len() != 200 {
		t.Fatalf("parity DB holds %d molecules", db.Len())
	}
	return db, o, mols
}

// sameMatches reports whether got equals want, similarities compared as
// bits.
func sameMatches(got, want []Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Name != want[i].Name ||
			math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
			return false
		}
	}
	return true
}

func TestFingerprintMatchesOracle(t *testing.T) {
	for i, g := range parityGraphs(rand.New(rand.NewSource(11)), 200) {
		for _, it := range []int{1, 3} {
			fp, want := newFingerprint(g, it), mapFingerprint(g, it)
			if len(fp.keys) != len(want) || len(fp.counts) != len(want) {
				t.Fatalf("graph %d, %d iterations: %d keys and %d counts, oracle has %d features", i, it, len(fp.keys), len(fp.counts), len(want))
			}
			for j, k := range fp.keys {
				if j > 0 && fp.keys[j-1] >= k {
					t.Fatalf("graph %d: keys not strictly ascending at %d", i, j)
				}
				if fp.counts[j] != want[k] {
					t.Fatalf("graph %d, %d iterations: feature %x counts %v, oracle %v", i, it, k, fp.counts[j], want[k])
				}
			}
			if math.Float64bits(fp.norm) != math.Float64bits(fpNorm(want)) {
				t.Fatalf("graph %d: norm %v, oracle %v", i, fp.norm, fpNorm(want))
			}
		}
	}
}

func TestSearchParity(t *testing.T) {
	db, o, mols := parityDB(t)
	queries := parityGraphs(rand.New(rand.NewSource(12)), 200)
	// Stored molecules as queries: exact hits, and the twice-stored one
	// ties with its copy.
	queries = append(queries, mols[5], mols[0], mols[199])
	ties := false
	for i, q := range queries {
		for _, k := range []int{1, 2, 3, 7, 200, 250} {
			got, want := db.Search(q, k), o.search(q, k)
			if !sameMatches(got, want) {
				t.Fatalf("query %d, k=%d:\n got %+v\nwant %+v", i, k, got, want)
			}
			ties = ties || len(got) > 1 && got[0].Similarity == got[1].Similarity
		}
	}
	if !ties {
		t.Fatal("no search met a tie at the top: the fixture lost its duplicate")
	}
}

func TestSimilarityParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gs := parityGraphs(rng, 200)
	db := New(3)
	for i, a := range gs {
		for _, b := range []*graph.Graph{gs[(i+1)%len(gs)], gs[rng.Intn(len(gs))], a} {
			got, want := db.Similarity(a, b), oracleSimilarity(a, b, 3)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %d: similarity %v, oracle %v", i, got, want)
			}
		}
	}
}

// TestSearchConcurrentAdd: similarity.store can Add while other sessions
// search. Run under -race; every search sees a consistent prefix of the
// database, and afterwards the grown database still matches the oracle.
func TestSearchConcurrentAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var mols []*graph.Graph
	for i := 0; i < 120; i++ {
		mols = append(mols, graph.Molecule(8+rng.Intn(20), rng))
	}
	q := graph.Molecule(16, rng)
	db, o := New(3), &oracleDB{iterations: 3}
	for _, g := range mols {
		o.add("m", g)
	}
	for _, g := range mols[:20] {
		db.Add("m", g)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ms := db.Search(q, 3)
				if len(ms) != 3 {
					errs <- "a search returned fewer than 3 matches"
					return
				}
				for i := 1; i < len(ms); i++ {
					if ms[i].Similarity > ms[i-1].Similarity {
						errs <- "a search returned unsorted matches"
						return
					}
				}
				if _, err := db.Get(ms[0].ID); err != nil {
					errs <- err.Error()
					return
				}
			}
		}()
	}
	for _, g := range mols[20:] {
		db.Add("m", g)
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, want := db.Search(q, len(mols)), o.search(q, len(mols)); !sameMatches(got, want) {
		t.Fatalf("after concurrent adds:\n got %+v\nwant %+v", got, want)
	}
}

// fuzzGraphs decodes fuzz bytes into graphs: per graph a header byte
// (node count, directedness), one byte per node (label, element attribute
// or not), an edge count and one byte pair per edge.
func fuzzGraphs(data []byte) []*graph.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var gs []*graph.Graph
	for len(data) > 0 && len(gs) < 12 {
		h := next()
		g := graph.New()
		if h&0x80 != 0 {
			g = graph.NewDirected()
		}
		n := h % 12
		for i := 0; i < n; i++ {
			b := next()
			id := g.AddNode([]string{"C", "N", "O", "S"}[b%4])
			if b&4 != 0 {
				g.SetNodeAttr(id, "element", []string{"C", "N", "Cl"}[b/8%3])
			}
		}
		for m := next() % 24; m > 0 && n > 0; m-- {
			g.AddEdge(graph.NodeID(next()%n), graph.NodeID(next()%n)) //nolint:errcheck // a refused self-loop is fine
		}
		gs = append(gs, g)
	}
	return gs
}

// FuzzSearchParity: molecules and a query drawn from the fuzz bytes (the
// last graph is the query) give every Match, and every pairwise
// similarity, equal to the map oracle's, to the bit.
func FuzzSearchParity(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 0, 1, 1, 2, 3, 0, 1, 2, 2, 0, 1, 1, 2})
	f.Add([]byte{0x86, 0, 4, 13, 1, 2, 3, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 6, 1, 1, 1, 1, 1, 1, 0})
	f.Add([]byte{0, 5, 7, 7, 7, 7, 7, 4, 0, 1, 1, 2, 2, 3, 3, 4, 5, 7, 7, 7, 7, 7, 4, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := fuzzGraphs(data)
		if len(gs) == 0 {
			return
		}
		q, mols := gs[len(gs)-1], gs[:len(gs)-1]
		db, o := New(2), &oracleDB{iterations: 2}
		for _, g := range mols {
			db.Add("m", g)
			o.add("m", g)
		}
		for _, k := range []int{1, 2, len(mols) + 1} {
			if got, want := db.Search(q, k), o.search(q, k); !sameMatches(got, want) {
				t.Fatalf("k=%d:\n got %+v\nwant %+v", k, got, want)
			}
		}
		for _, g := range mols {
			if got, want := db.Similarity(q, g), oracleSimilarity(q, g, 2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("similarity %v, oracle %v", got, want)
			}
		}
	})
}
