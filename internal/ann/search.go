package ann

import (
	"math"
	"sync"

	"chatgraph/internal/heap"
	"chatgraph/internal/vecmath"
)

// searchScratch is the per-search working set every index reuses: the
// epoch-stamped visited buffer, the two beam-search heaps, and the fused
// distance tile. Instances recycle through scratchPool, so a steady-state
// search allocates nothing but its result slice; concurrent searches each
// Get their own scratch, which keeps the shared indexes race-free.
type searchScratch struct {
	// visited[i] == epoch marks node i seen by the current search. Bumping
	// epoch invalidates the whole buffer in O(1) instead of clearing it.
	visited []uint32
	epoch   uint32
	// frontier (min-heap) and best (bounded max-heap) hold squared
	// distances during routing.
	frontier []Result
	best     []Result
	// dists is the tile buffer for fused distance kernels.
	dists []float32
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getScratch leases a scratch sized for an index of n nodes with a fresh
// visited epoch and empty heaps.
func getScratch(n int) *searchScratch {
	sc := scratchPool.Get().(*searchScratch)
	if cap(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.epoch = 0
	}
	sc.visited = sc.visited[:cap(sc.visited)]
	sc.nextEpoch()
	sc.frontier = sc.frontier[:0]
	sc.best = sc.best[:0]
	return sc
}

// nextEpoch invalidates the visited buffer in O(1). Called once per
// routing pass: NSW construction routes once per inserted vector over one
// scratch, and a pass must not see the previous one's stamps.
func (sc *searchScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		// Epoch wrapped: stale stamps could collide, so really clear once.
		clear(sc.visited)
		sc.epoch = 1
	}
}

func putScratch(sc *searchScratch) { scratchPool.Put(sc) }

// distTile returns sc.dists grown to at least n entries.
func (sc *searchScratch) distTile(n int) []float32 {
	if cap(sc.dists) < n {
		sc.dists = make([]float32, n)
	}
	return sc.dists[:n]
}

func (sc *searchScratch) seen(i int32) bool { return sc.visited[i] == sc.epoch }
func (sc *searchScratch) mark(i int32)      { sc.visited[i] = sc.epoch }

// worse reports whether a ranks strictly after b in the canonical
// (Dist, ID) result order — the single comparator both heaps and the
// bounded top-k share, so every index breaks distance ties identically.
func worse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// closer is worse reversed: the frontier heap's order, closest on top. The
// result heap runs on worse itself, worst on top.
func closer(a, b Result) bool { return worse(b, a) }

// boundedInsert offers r to the k-bounded max-heap h, evicting the current
// worst when full and r improves on it.
func boundedInsert(h *[]Result, r Result, k int) bool {
	if len(*h) < k {
		heap.Push(h, r, worse)
		return true
	}
	if worse(r, (*h)[0]) {
		return false
	}
	heap.Pop(h, worse)
	heap.Push(h, r, worse)
	return true
}

// drainSorted empties the bounded max-heap into a fresh slice of at most k
// results, closest first, converting the squared distances the heaps work
// in back to linear.
func drainSorted(h *[]Result, k int) []Result {
	for len(*h) > k {
		heap.Pop(h, worse)
	}
	out := make([]Result, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		r := heap.Pop(h, worse)
		r.Dist = sqrtf(r.Dist)
		out[i] = r
	}
	return out
}

func sqrtf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// distSource scores index rows against one query. It is the single thing
// the routing loop and the flat scan are parameterised over: (mat, q, ‖q‖²)
// for a dense query, or a non-nil sq for a query given by its non-zero
// entries (tile form only). A struct with a branch rather than an interface
// or closure, so building one allocates nothing and the tile form reaches
// the fused range kernels directly — the flat scan pays one predictable
// branch per tile, not an indirect call per row.
type distSource struct {
	mat *vecmath.Matrix
	q   []float32
	sq  *vecmath.Sparse
	qn  float32 // ‖q‖²
}

// dist returns the squared distance from the dense query to row i.
func (s *distSource) dist(i int) float32 {
	return s.mat.L2SquaredTo(s.q, s.qn, i)
}

// distRange is dist's tile form: squared distances to rows lo..hi−1 into
// dst[0:hi−lo].
func (s *distSource) distRange(lo, hi int, dst []float32) {
	if s.sq != nil {
		s.mat.L2SquaredRangeSparse(*s.sq, s.qn, lo, hi, dst)
		return
	}
	s.mat.L2SquaredRange(s.q, s.qn, lo, hi, dst)
}

// beamSearch is the one routing loop every proximity-graph index shares,
// at search and at construction time: best-first search over one adjacency
// table from entry toward the query behind src, keeping up to ef
// candidates. Distances are compared squared. The ef best candidates are
// left in sc.best, undrained, for the caller to trim or drain; the
// caller provides the scratch (heaps + visited epochs), so routing itself
// allocates nothing. ef must be positive and the index non-empty.
func beamSearch(src *distSource, adj [][]int32, entry, ef int, sc *searchScratch, stats *SearchStats) {
	sc.nextEpoch()
	start := Result{ID: entry, Dist: src.dist(entry)}
	stats.DistComps++
	sc.frontier = sc.frontier[:0]
	sc.best = sc.best[:0]
	heap.Push(&sc.frontier, start, closer)
	heap.Push(&sc.best, start, worse)
	sc.mark(int32(entry))
	for len(sc.frontier) > 0 {
		cur := heap.Pop(&sc.frontier, closer)
		if len(sc.best) >= ef && cur.Dist > sc.best[0].Dist {
			break
		}
		stats.Hops++
		for _, nb := range adj[cur.ID] {
			if sc.seen(nb) {
				continue
			}
			sc.mark(nb)
			d := src.dist(int(nb))
			stats.DistComps++
			if len(sc.best) < ef || d < sc.best[0].Dist {
				heap.Push(&sc.frontier, Result{ID: int(nb), Dist: d}, closer)
				heap.Push(&sc.best, Result{ID: int(nb), Dist: d}, worse)
				if len(sc.best) > ef {
					heap.Pop(&sc.best, worse)
				}
			}
		}
	}
}
