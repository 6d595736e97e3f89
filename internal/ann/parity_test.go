package ann

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"chatgraph/internal/vecmath"
)

// Search is SearchWithStats without the counters: the one-query form the
// tests compare across indexes.
func (g *graphIndex) Search(q []float32, k int) []Result {
	rs, _ := g.SearchWithStats(q, k)
	return rs
}

// naiveTopK is the pre-refactor brute-force baseline, reimplemented the way
// the seed did it: direct [][]float32 subtraction distances, a full n-sized
// result slice, and a complete (Dist, ID) sort. The matrix-backed indexes
// must reproduce its answers.
func naiveTopK(vecs [][]float32, q []float32, k int) []Result {
	rs := make([]Result, 0, len(vecs))
	for i, v := range vecs {
		var s float64
		for j := range q {
			d := float64(q[j] - v[j])
			s += d * d
		}
		rs = append(rs, Result{ID: i, Dist: float32(math.Sqrt(s))})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	})
	if k > len(rs) {
		k = len(rs)
	}
	return rs[:k]
}

// sameIDs reports whether two result lists rank the same vectors in the
// same order; distances are compared to a tolerance because the fused
// dot-trick kernel rounds differently than direct subtraction.
func sameIDs(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s: result %d ID = %d, want %d (got %+v want %+v)", label, i, got[i].ID, want[i].ID, got, want)
		}
		if d := float64(got[i].Dist - want[i].Dist); d > 1e-3 || d < -1e-3 {
			t.Fatalf("%s: result %d dist = %v, want %v", label, i, got[i].Dist, want[i].Dist)
		}
	}
}

// parityFixture is one deterministic dataset every parity test shares.
func parityFixture() (vecs, queries [][]float32) {
	rng := rand.New(rand.NewSource(99))
	return ClusteredVectors(300, 12, 6, 0.25, rng), ClusteredVectors(40, 12, 6, 0.25, rng)
}

// TestBruteForceParity: the tiled fused scan with a bounded heap must
// return exactly what the seed's sort-everything scan returned.
func TestBruteForceParity(t *testing.T) {
	vecs, queries := parityFixture()
	bf := NewBruteForce(vecs)
	for _, k := range []int{1, 5, 10, 300, 500} {
		for _, q := range queries {
			sameIDs(t, "bruteforce", bf.Search(q, k), naiveTopK(vecs, q, k))
		}
	}
}

// TestGraphIndexParity: with the beam opened to n, a connected proximity
// graph explores every node, so τ-MG and NSW must agree exactly with the
// brute-force baseline on every query — the recall-parity proof that the
// matrix/scratch rewrite changed no results.
func TestGraphIndexParity(t *testing.T) {
	vecs, queries := parityFixture()
	n := len(vecs)
	taumg, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05, Beam: n})
	if err != nil {
		t.Fatal(err)
	}
	nsw, err := NewNSW(vecs, NSWConfig{Beam: n, EFConstruction: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want := naiveTopK(vecs, q, 10)
		sameIDs(t, "taumg", taumg.Search(q, 10), want)
		sameIDs(t, "nsw", nsw.Search(q, 10), want)
	}
}

// TestConcurrentSearch hammers one shared τ-MG from many goroutines, each
// comparing against a serial pass: the scratch-pool concurrency contract
// that lets concurrent requests share an index, verified by CI's -race run.
func TestConcurrentSearch(t *testing.T) {
	vecs, queries := parityFixture()
	idx, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		want[i] = idx.Search(q, 5)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25*len(queries); i++ {
				qi := (w + i) % len(queries)
				if got := idx.Search(queries[qi], 5); !reflect.DeepEqual(got, want[qi]) {
					errs <- "concurrent Search diverged"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestGraphSearchAllocs: steady-state graph search must allocate only its
// result slice — the visited buffer, heaps, and distance tiles all come
// from the scratch pool.
func TestGraphSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	vecs, queries := parityFixture()
	taumg, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBruteForce(vecs)
	for name, fn := range map[string]func(){
		"taumg":      func() { taumg.Search(queries[0], 10) },
		"bruteforce": func() { bf.Search(queries[0], 10) },
		"greedy":     func() { taumg.GreedyRoute(queries[0]) },
	} {
		fn() // warm the pool
		allocs := testing.AllocsPerRun(100, fn)
		limit := 2.0 // the result slice (+ occasional pool refill)
		if name == "greedy" {
			limit = 0
		}
		if allocs > limit {
			t.Errorf("%s: %.1f allocs/op, want ≤ %.0f", name, allocs, limit)
		}
	}
}

// The oracle* functions below are the per-index search loops as they stood
// before they were merged into beamSearch, distSource and
// BruteForce.SearchWithStats — kept verbatim (renamed only) so the merged
// loops are held to DeepEqual results and SearchStats against the code they
// replaced.

func oracleBeamSearchAdj(mat *vecmath.Matrix, adj [][]int32, entry, ef, k int, q []float32, qn float32, sc *searchScratch, stats *SearchStats) []Result {
	if mat.Rows() == 0 || ef <= 0 || k <= 0 {
		return nil
	}
	sc.nextEpoch()
	start := Result{ID: entry, Dist: mat.L2SquaredTo(q, qn, entry)}
	stats.DistComps++
	sc.frontier = sc.frontier[:0]
	sc.best = sc.best[:0]
	minPush(&sc.frontier, start)
	maxPush(&sc.best, start)
	sc.mark(int32(entry))
	for len(sc.frontier) > 0 {
		cur := minPop(&sc.frontier)
		if len(sc.best) >= ef && cur.Dist > sc.best[0].Dist {
			break
		}
		stats.Hops++
		for _, nb := range adj[cur.ID] {
			if sc.seen(nb) {
				continue
			}
			sc.mark(nb)
			d := mat.L2SquaredTo(q, qn, int(nb))
			stats.DistComps++
			if len(sc.best) < ef || d < sc.best[0].Dist {
				minPush(&sc.frontier, Result{ID: int(nb), Dist: d})
				maxPush(&sc.best, Result{ID: int(nb), Dist: d})
				if len(sc.best) > ef {
					maxPop(&sc.best)
				}
			}
		}
	}
	return drainSorted(&sc.best, k)
}

// oracleGraphSearch is the old TauMG / NSW SearchWithStats.
func oracleGraphSearch(g *graphIndex, q []float32, k int) ([]Result, SearchStats) {
	var stats SearchStats
	ef := g.beam
	if ef < k {
		ef = k
	}
	n := g.mat.Rows()
	if n == 0 || ef <= 0 || k <= 0 {
		return nil, stats
	}
	sc := getScratch(n)
	defer putScratch(sc)
	qn := vecmath.SquaredNorm(q)
	return oracleBeamSearchAdj(g.mat, g.adj, g.entry, ef, k, q, qn, sc, &stats), stats
}

// oracleFlatSearch is the old BruteForce.SearchWithStats.
func oracleFlatSearch(b *BruteForce, q []float32, k int) ([]Result, SearchStats) {
	n := b.mat.Rows()
	if k <= 0 || n == 0 {
		return nil, SearchStats{}
	}
	if k > n {
		k = n
	}
	sc := getScratch(0)
	defer putScratch(sc)
	tile := sc.distTile(bruteTile)
	qn := vecmath.SquaredNorm(q)
	for base := 0; base < n; base += bruteTile {
		hi := base + bruteTile
		if hi > n {
			hi = n
		}
		b.mat.L2SquaredRange(q, qn, base, hi, tile)
		for j, d := range tile[:hi-base] {
			boundedInsert(&sc.best, Result{ID: base + j, Dist: d}, k)
		}
	}
	return drainSorted(&sc.best, k), SearchStats{DistComps: n, Hops: 1}
}

// shapeFixtures returns the two dataset shapes the merged loops are held to:
// isotropic random vectors and clustered vectors (the regime retrieval
// embeddings live in).
func shapeFixtures() map[string]struct{ vecs, queries [][]float32 } {
	rngR := rand.New(rand.NewSource(41))
	rngC := rand.New(rand.NewSource(42))
	return map[string]struct{ vecs, queries [][]float32 }{
		"random":    {RandomVectors(400, 32, rngR), RandomVectors(50, 32, rngR)},
		"clustered": {ClusteredVectors(400, 32, 8, 0.2, rngC), ClusteredVectors(50, 32, 8, 0.2, rngC)},
	}
}

// TestMergedLoopsMatchOracle: the single routing loop and the single tile
// loop must return exactly — results and work counters — what the loops
// they replaced returned, for every index that searches
// through them, on both fixture shapes and at k below, at and above the
// beam width.
func TestMergedLoopsMatchOracle(t *testing.T) {
	type searcher func(q []float32, k int) ([]Result, SearchStats)
	for shape, fx := range shapeFixtures() {
		vecs := fx.vecs
		taumg, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		nsw, err := NewNSW(vecs, NSWConfig{})
		if err != nil {
			t.Fatal(err)
		}
		flat := NewBruteForce(vecs)
		pairs := map[string][2]searcher{
			"taumg-f32": {taumg.SearchWithStats, func(q []float32, k int) ([]Result, SearchStats) { return oracleGraphSearch(&taumg.graphIndex, q, k) }},
			"nsw-f32":   {nsw.SearchWithStats, func(q []float32, k int) ([]Result, SearchStats) { return oracleGraphSearch(&nsw.graphIndex, q, k) }},
			"flat-f32":  {flat.SearchWithStats, func(q []float32, k int) ([]Result, SearchStats) { return oracleFlatSearch(flat, q, k) }},
		}
		for name, pair := range pairs {
			for _, k := range []int{1, 10, 64, 100, len(vecs) + 5} {
				for qi, q := range fx.queries {
					got, gotStats := pair[0](q, k)
					want, wantStats := pair[1](q, k)
					if !reflect.DeepEqual(got, want) || gotStats != wantStats {
						t.Fatalf("%s/%s k=%d query %d:\n got %+v %+v\nwant %+v %+v", shape, name, k, qi, got, gotStats, want, wantStats)
					}
				}
			}
		}
	}
}
