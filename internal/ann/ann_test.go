package ann

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chatgraph/internal/vecmath"
)

func testVectors(n, d int, seed int64) [][]float32 {
	return RandomVectors(n, d, rand.New(rand.NewSource(seed)))
}

func TestBruteForceExact(t *testing.T) {
	vecs := [][]float32{{0, 0}, {1, 0}, {0, 2}, {3, 3}}
	bf := NewBruteForce(vecs)
	rs := bf.Search([]float32{0.9, 0.1}, 2)
	if len(rs) != 2 || rs[0].ID != 1 || rs[1].ID != 0 {
		t.Fatalf("Search = %+v", rs)
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	bf := NewBruteForce(nil)
	if got := bf.Search([]float32{1}, 3); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
	bf = NewBruteForce([][]float32{{1, 1}})
	if got := bf.Search([]float32{0, 0}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := bf.Search([]float32{0, 0}, 10); len(got) != 1 {
		t.Fatalf("k>n returned %d results", len(got))
	}
}

func TestRecall(t *testing.T) {
	exact := []Result{{ID: 1}, {ID: 2}, {ID: 3}}
	approx := []Result{{ID: 2}, {ID: 9}, {ID: 1}}
	if got := Recall(approx, exact); got < 0.66 || got > 0.67 {
		t.Fatalf("Recall = %v, want 2/3", got)
	}
	if Recall(nil, nil) != 1 {
		t.Fatal("Recall with empty truth should be 1")
	}
}

func TestTauMGRejectsBadInput(t *testing.T) {
	if _, err := NewTauMG(nil, TauMGConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := NewTauMG([][]float32{{}}, TauMGConfig{}); err == nil {
		t.Fatal("zero-dim input accepted")
	}
	if _, err := NewTauMG([][]float32{{1, 2}, {1}}, TauMGConfig{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestTauMGHighRecall(t *testing.T) {
	vecs := testVectors(800, 16, 1)
	idx, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBruteForce(vecs)
	queries := testVectors(50, 16, 2)
	ev := Evaluate(idx, bf, queries, 10, 0.05)
	if ev.RecallAtK < 0.9 {
		t.Fatalf("recall@10 = %.3f, want ≥ 0.9 (%s)", ev.RecallAtK, ev)
	}
	if ev.AvgDistComps >= float64(len(vecs)) {
		t.Fatalf("beam search did %f dist comps, no better than brute force", ev.AvgDistComps)
	}
}

func TestTauMGLargerTauKeepsMoreEdges(t *testing.T) {
	vecs := testVectors(300, 8, 4)
	small, err := NewTauMG(vecs, TauMGConfig{Tau: 0})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewTauMG(vecs, TauMGConfig{Tau: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if big.AvgDegree() < small.AvgDegree() {
		t.Fatalf("tau=0.3 degree %.2f < tau=0 degree %.2f; occlusion should weaken with tau",
			big.AvgDegree(), small.AvgDegree())
	}
}

// GreedyRoute and AvgDegree are test instruments: no binary routes on a
// single greedy path or reports degree, but the τ-MG guarantee test and the
// E5 greedy-routing benchmark below measure exactly that.
//
// GreedyRoute performs the paper's single-path greedy routing: from the
// entry point repeatedly move to the neighbor closest to q; stop when no
// neighbor improves. It returns the final node and the routing stats. On a
// τ-monotonic graph this finds the exact nearest neighbor of queries whose
// nearest neighbor is within τ of the query (the τ-MG guarantee). The walk
// compares squared distances and allocates nothing.
func (g *graphIndex) GreedyRoute(q []float32) (Result, SearchStats) {
	var stats SearchStats
	if g.mat.Rows() == 0 {
		return Result{ID: -1, Dist: float32(math.Inf(1))}, stats
	}
	qn := vecmath.SquaredNorm(q)
	cur := g.entry
	curDist := g.mat.L2SquaredTo(q, qn, cur)
	stats.DistComps++
	for {
		stats.Hops++
		improved := false
		for _, nb := range g.adj[cur] {
			d := g.mat.L2SquaredTo(q, qn, int(nb))
			stats.DistComps++
			if d < curDist {
				cur, curDist = int(nb), d
				improved = true
			}
		}
		if !improved {
			return Result{ID: cur, Dist: sqrtf(curDist)}, stats
		}
	}
}

// AvgDegree returns the mean out-degree of the proximity graph.
func (g *graphIndex) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return float64(total) / float64(len(g.adj))
}

func TestGreedyRouteFindsNearOptimal(t *testing.T) {
	vecs := testVectors(500, 8, 5)
	idx, err := NewTauMG(vecs, TauMGConfig{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBruteForce(vecs)
	queries := testVectors(40, 8, 6)
	okCount := 0
	for _, q := range queries {
		got, stats := idx.GreedyRoute(q)
		truth := bf.Search(q, 1)[0]
		if got.ID == truth.ID || float64(got.Dist) <= 1.25*float64(truth.Dist) {
			okCount++
		}
		if stats.Hops == 0 {
			t.Fatal("greedy route took zero hops")
		}
	}
	if okCount < 30 {
		t.Fatalf("greedy routing acceptable on only %d/40 queries", okCount)
	}
}

func TestGreedyRouteEmpty(t *testing.T) {
	g := &graphIndex{}
	r, _ := g.GreedyRoute([]float32{1})
	if r.ID != -1 {
		t.Fatalf("empty route ID = %d", r.ID)
	}
}

func TestAllNodesReachable(t *testing.T) {
	// Duplicate points are the degenerate case occlusion struggles with.
	vecs := make([][]float32, 60)
	rng := rand.New(rand.NewSource(7))
	for i := range vecs {
		if i%3 == 0 {
			vecs[i] = []float32{1, 1, 1}
		} else {
			v := make([]float32, 3)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			vecs[i] = v
		}
	}
	idx, err := NewTauMG(vecs, TauMGConfig{Tau: 0.1, MaxDegree: 4, CandidatePool: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(vecs))
	stack := []int{idx.entry}
	seen[idx.entry] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range idx.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, int(v))
			}
		}
	}
	if count != len(vecs) {
		t.Fatalf("only %d/%d nodes reachable from entry", count, len(vecs))
	}
}

func TestNSWRecall(t *testing.T) {
	vecs := testVectors(600, 16, 8)
	idx, err := NewNSW(vecs, NSWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bf := NewBruteForce(vecs)
	ev := Evaluate(idx, bf, testVectors(40, 16, 9), 10, 0.05)
	if ev.RecallAtK < 0.8 {
		t.Fatalf("NSW recall@10 = %.3f (%s)", ev.RecallAtK, ev)
	}
}

func TestNSWRejectsBadInput(t *testing.T) {
	if _, err := NewNSW(nil, NSWConfig{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestEvaluateEmptyQueries(t *testing.T) {
	vecs := testVectors(10, 4, 10)
	bf := NewBruteForce(vecs)
	ev := Evaluate(bf, bf, nil, 5, 0.1)
	if ev.Queries != 0 {
		t.Fatalf("Queries = %d", ev.Queries)
	}
}

func TestEvaluateSelfIsPerfect(t *testing.T) {
	vecs := testVectors(100, 8, 11)
	bf := NewBruteForce(vecs)
	ev := Evaluate(bf, bf, testVectors(20, 8, 12), 5, 0.01)
	if ev.RecallAt1 != 1 || ev.RecallAtK != 1 || ev.EpsilonOK != 1 {
		t.Fatalf("self evaluation imperfect: %s", ev)
	}
	if ev.String() == "" {
		t.Fatal("empty String")
	}
}

func TestClusteredVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vs := ClusteredVectors(100, 8, 5, 0.05, rng)
	if len(vs) != 100 || len(vs[0]) != 8 {
		t.Fatalf("shape %dx%d", len(vs), len(vs[0]))
	}
	vs = ClusteredVectors(10, 4, 0, 0.1, rng) // c<1 clamps to 1
	if len(vs) != 10 {
		t.Fatal("c=0 not clamped")
	}
}

func TestSortResults(t *testing.T) {
	rs := []Result{{ID: 2, Dist: 1}, {ID: 1, Dist: 1}, {ID: 0, Dist: 0.5}}
	sortResults(rs)
	if rs[0].ID != 0 || rs[1].ID != 1 || rs[2].ID != 2 {
		t.Fatalf("sortResults = %+v", rs)
	}
}

// Property: beam search distances are consistent with direct L2 (up to the
// float rounding of the fused dot-trick kernel) and results arrive sorted.
func TestQuickTauMGResultsSorted(t *testing.T) {
	vecs := testVectors(150, 8, 20)
	idx, err := NewTauMG(vecs, TauMGConfig{Tau: 0.05, MaxDegree: 12, CandidatePool: 24})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		q := testVectors(1, 8, seed)[0]
		rs := idx.Search(q, 5)
		for i := range rs {
			if d := naiveTopK(vecs[rs[i].ID:rs[i].ID+1], q, 1)[0].Dist - rs[i].Dist; d > 1e-3 || d < -1e-3 {
				return false
			}
			if i > 0 && rs[i].Dist < rs[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: recall of an index against itself as truth is always 1.
func TestQuickRecallIdentity(t *testing.T) {
	f := func(ids []int) bool {
		rs := make([]Result, len(ids))
		for i, id := range ids {
			rs[i] = Result{ID: id}
		}
		return Recall(rs, rs) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// greedyPath replays GreedyRoute's walk and returns every node it stood on
// with its (linear) distance to q, entry point first.
func greedyPath(g *graphIndex, q []float32) []Result {
	qn := vecmath.SquaredNorm(q)
	cur := Result{ID: g.entry, Dist: g.mat.L2SquaredTo(q, qn, g.entry)}
	path := []Result{{ID: cur.ID, Dist: sqrtf(cur.Dist)}}
	for {
		next := cur
		for _, nb := range g.adj[cur.ID] {
			if d := g.mat.L2SquaredTo(q, qn, int(nb)); d < next.Dist {
				next = Result{ID: int(nb), Dist: d}
			}
		}
		if next.ID == cur.ID {
			return path
		}
		cur = next
		path = append(path, Result{ID: cur.ID, Dist: sqrtf(cur.Dist)})
	}
}

// TestTauMGGuaranteeWithinTau separates the paper's guarantee from the
// construction caps. On a τ-MG built from the occlusion rule alone — every
// other node a candidate, no degree cap, no random candidates — single-path
// greedy routing must return the exact nearest neighbour of every query
// that lies within τ of a data point (Definition 3's precondition), along a
// τ-monotonic path: every hop either lands on that neighbour or gets more
// than τ closer to the query. Exactness is what breaks when the occlusion
// margin drops below 2τ; the per-hop progress is what the third τ buys. The
// same queries against the default, capped build are only logged:
// MaxDegree and CandidatePool trade the guarantee for build time and
// degree, which is where benchann's recall shortfall comes from, not from
// the rule.
func TestTauMGGuaranteeWithinTau(t *testing.T) {
	const n, d, nq = 1000, 16, 500
	vecs := ClusteredVectors(n, d, 8, 0.3, newRng(31))
	exact := NewBruteForce(vecs)
	for _, tau := range []float32{0, 0.05, 0.2} {
		// Queries sit just inside the τ-ball of a random data point (on the
		// point when τ = 0), where the guarantee has the least slack.
		rng := newRng(32)
		queries := make([][]float32, nq)
		for i := range queries {
			q := RandomVectors(1, d, rng)[0]
			vecmath.Scale(vecmath.Normalize(q), 0.98*tau)
			vecmath.Add(q, vecs[rng.Intn(n)])
			queries[i] = q
		}
		uncapped, err := NewTauMG(vecs, TauMGConfig{Tau: tau, MaxDegree: n, CandidatePool: n - 1, RandomCandidates: -1})
		if err != nil {
			t.Fatal(err)
		}
		capped, err := NewTauMG(vecs, TauMGConfig{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		cappedExact := 0
		for i, q := range queries {
			truth := exact.Search(q, 1)[0]
			if truth.Dist > tau {
				t.Fatalf("tau=%g query %d: fixture broken, nearest neighbour at %g", tau, i, truth.Dist)
			}
			path := greedyPath(&uncapped.graphIndex, q)
			if got, _ := uncapped.GreedyRoute(q); got.ID != truth.ID || got.ID != path[len(path)-1].ID {
				t.Errorf("tau=%g query %d: uncapped greedy route ended at %d (dist %g), nearest is %d (dist %g)",
					tau, i, got.ID, got.Dist, truth.ID, truth.Dist)
			}
			for h := 1; h < len(path); h++ {
				if path[h].ID != truth.ID && path[h].Dist >= path[h-1].Dist-tau {
					t.Errorf("tau=%g query %d hop %d: %g -> %g is not more than tau closer", tau, i, h, path[h-1].Dist, path[h].Dist)
				}
			}
			if got, _ := capped.GreedyRoute(q); got.ID == truth.ID {
				cappedExact++
			}
		}
		t.Logf("tau=%g: uncapped build (avg degree %.1f) held to %d/%d exact; default caps (avg degree %.1f) exact on %d/%d",
			tau, uncapped.AvgDegree(), nq, nq, capped.AvgDegree(), cappedExact, nq)
	}
}

// BenchmarkANNGreedyRouting compares the paper's single-path greedy routing
// across proximity graphs — τ-MG's selling point is fewer routing hops at
// equal accuracy. The τ-MG monotonicity guarantee applies to queries whose
// nearest neighbor lies within τ, so queries are small perturbations of
// base vectors, and the degree budget is widened (truncating non-occluded
// edges would void the guarantee).
func BenchmarkANNGreedyRouting(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	vecs := RandomVectors(2000, 16, rng)
	exact := NewBruteForce(vecs)
	// τ is calibrated to a tenth of the mean nearest-neighbor distance.
	var meanNN float32
	for i := 0; i < 50; i++ {
		meanNN += exact.Search(vecs[i], 2)[1].Dist
	}
	meanNN /= 50
	tau := 0.1 * meanNN
	queries := make([][]float32, 200)
	for i := range queries {
		base := vecs[rng.Intn(len(vecs))]
		q := make([]float32, len(base))
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64())*tau/8
		}
		queries[i] = q
	}
	for _, cfg := range []struct {
		name string
		tau  float32
	}{{"mrng", 0}, {"tau-mg", tau}} {
		b.Run(cfg.name, func(b *testing.B) {
			idx, err := NewTauMG(vecs, TauMGConfig{Tau: cfg.tau, MaxDegree: 64, CandidatePool: 192})
			if err != nil {
				b.Fatal(err)
			}
			var hops, correct float64
			for _, q := range queries {
				r, st := idx.GreedyRoute(q)
				hops += float64(st.Hops)
				if truth := exact.Search(q, 1); len(truth) > 0 && truth[0].ID == r.ID {
					correct++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.GreedyRoute(queries[i%len(queries)])
			}
			b.ReportMetric(hops/float64(len(queries)), "hops")
			b.ReportMetric(correct/float64(len(queries)), "exact-nn-rate")
		})
	}
}
