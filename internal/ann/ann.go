// Package ann implements approximate nearest-neighbor search over dense
// vectors. Its centerpiece is the τ-monotonic graph (τ-MG) proximity-graph
// index from the paper's §II-D (Definitions 2–3), which ChatGraph uses to
// retrieve graph-analysis APIs whose description embeddings are closest to
// the user's prompt embedding.
//
// Besides τ-MG the package provides the baselines the paper's performance
// claim is made against: exact brute force, an MRNG-style monotonic graph
// (τ-MG with τ = 0), and an NSW-style incrementally built graph. All indexes
// share the Index interface so the retrieval module and the benchmark
// harness can swap them freely.
//
// Every index stores its vectors in a contiguous vecmath.Matrix and
// computes distances with fused dot-trick kernels against precomputed row
// norms. Per-search working state (visited stamps, heaps, distance tiles)
// recycles through a sync.Pool, so a search allocates only its result slice
// and concurrent requests search one shared index without locks or garbage.
// A search runs on its caller's goroutine: the only parallelism is between
// requests. Every proximity graph routes through one beam-search loop and
// the flat scan is one tile loop, both parameterised over a distSource that
// hides whether the query is dense or sparse.
package ann

import (
	"fmt"

	"chatgraph/internal/vecmath"
)

// Result is one search hit: the vector's ID (its position in the build slice)
// and its distance to the query.
type Result struct {
	ID   int
	Dist float32
}

// SearchStats reports the work a single search performed, used by the E5
// benchmark to compare routing efficiency across proximity graphs.
type SearchStats struct {
	// DistComps counts distance computations.
	DistComps int
	// Hops counts routing steps (nodes expanded).
	Hops int
}

// Index is a built ANN index over a fixed vector set. Implementations are
// immutable after construction, so all methods are safe for concurrent use.
type Index interface {
	// SearchWithStats returns the k nearest candidates to q, closest
	// first, and the work the search did.
	SearchWithStats(q []float32, k int) ([]Result, SearchStats)
}

// BruteForce is the exact baseline: a fused linear scan over the flat
// matrix with a k-bounded heap, O(n·d + n·log k) per query.
type BruteForce struct {
	mat *vecmath.Matrix
}

// NewBruteForce copies vecs into a contiguous matrix. It panics on ragged
// input; an empty input yields a searchable empty index.
func NewBruteForce(vecs [][]float32) *BruteForce {
	return &BruteForce{mat: mustMatrix(vecs)}
}

// newBruteForceMatrix shares an already-built matrix (used by index
// construction to avoid duplicating vector storage).
func newBruteForceMatrix(m *vecmath.Matrix) *BruteForce { return &BruteForce{mat: m} }

// Search returns the k nearest vectors to q, closest first.
func (b *BruteForce) Search(q []float32, k int) []Result {
	rs, _ := b.SearchWithStats(q, k)
	return rs
}

// bruteTile is the row-tile width of the fused brute-force scan: small
// enough for the distance buffer to stay cache-hot, large enough to
// amortize loop overhead.
const bruteTile = 256

// SearchWithStats implements Index. The scan computes squared distances a
// tile at a time with the fused kernel and feeds them into a bounded
// max-heap, so no n-sized buffer is ever materialized.
func (b *BruteForce) SearchWithStats(q []float32, k int) ([]Result, SearchStats) {
	n := b.mat.Rows()
	if k <= 0 || n == 0 {
		return nil, SearchStats{}
	}
	k = min(k, n)
	sc := getScratch(0)
	defer putScratch(sc)
	src := distSource{mat: b.mat, q: q, qn: vecmath.SquaredNorm(q)}
	b.scan(&src, k, sc)
	return drainSorted(&sc.best, k), SearchStats{DistComps: n, Hops: 1}
}

// scan is the flat scan's tile loop: the k nearest rows under src, by
// squared distance, left in sc.best.
func (b *BruteForce) scan(src *distSource, k int, sc *searchScratch) {
	n := b.mat.Rows()
	tile := sc.distTile(bruteTile)
	for base := 0; base < n; base += bruteTile {
		hi := min(base+bruteTile, n)
		src.distRange(base, hi, tile)
		for j, d := range tile[:hi-base] {
			boundedInsert(&sc.best, Result{ID: base + j, Dist: d}, k)
		}
	}
}

// SearchSparse is Search for a query given by its non-zero entries: the same
// scratch, bounded heap and (Dist, ID) order, and (see
// vecmath.L2SquaredRangeSparse) the same float32 bits as Search on the dense
// vector q scatters to.
func (b *BruteForce) SearchSparse(q vecmath.Sparse, k int) []Result {
	n := b.mat.Rows()
	if k <= 0 || n == 0 {
		return nil
	}
	sc := getScratch(0)
	defer putScratch(sc)
	src := distSource{mat: b.mat, sq: &q, qn: vecmath.SquaredNorm(q.Val)}
	b.scan(&src, min(k, n), sc)
	return drainSorted(&sc.best, k)
}

// Recall computes |approx ∩ exact| / |exact| treating the result lists as ID
// sets; it is the standard recall@k quality metric.
func Recall(approx, exact []Result) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int]bool, len(exact))
	for _, r := range exact {
		in[r.ID] = true
	}
	hit := 0
	for _, r := range approx {
		if in[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// graphIndex is the shared machinery of the single-layer proximity-graph
// indexes (τ-MG, NSW): the flat vector matrix, adjacency, an entry point,
// and the Index method over beam-search routing.
type graphIndex struct {
	mat   *vecmath.Matrix
	adj   [][]int32
	entry int
	beam  int // default ef for search, ≥ k
}

// SearchWithStats implements Index: route from the entry point toward q
// keeping max(beam, k) candidates and return the closest k. Scratch state
// comes from the shared pool, so concurrent searches over one index are
// race-free and allocation-free apart from the result slice.
func (g *graphIndex) SearchWithStats(q []float32, k int) ([]Result, SearchStats) {
	var stats SearchStats
	n := g.mat.Rows()
	if n == 0 || k <= 0 {
		return nil, stats
	}
	if k > n {
		k = n
	}
	sc := getScratch(n)
	defer putScratch(sc)
	src := distSource{mat: g.mat, q: q, qn: vecmath.SquaredNorm(q)}
	beamSearch(&src, g.adj, g.entry, max(g.beam, k), sc, &stats)
	return drainSorted(&sc.best, k), stats
}

// medoid returns the index of the row closest to the matrix mean; used as
// the routing entry point.
func medoid(m *vecmath.Matrix) int {
	n := m.Rows()
	if n == 0 {
		return -1
	}
	mean := m.Mean()
	qn := vecmath.SquaredNorm(mean)
	best, bestDist := -1, float32(0)
	for i := 0; i < n; i++ {
		if d := m.L2SquaredTo(mean, qn, i); best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func checkVectors(vecs [][]float32) error {
	if len(vecs) == 0 {
		return fmt.Errorf("ann: empty vector set")
	}
	d := len(vecs[0])
	if d == 0 {
		return fmt.Errorf("ann: zero-dimensional vectors")
	}
	for i, v := range vecs {
		if len(v) != d {
			return fmt.Errorf("ann: vector %d has dim %d, want %d", i, len(v), d)
		}
	}
	return nil
}

// mustMatrix copies validated rows into a Matrix; it panics on ragged
// input, which checkVectors-gated constructors have already excluded.
func mustMatrix(vecs [][]float32) *vecmath.Matrix {
	m, err := vecmath.FromRows(vecs)
	if err != nil {
		panic("ann: " + err.Error())
	}
	return m
}
