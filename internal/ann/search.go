package ann

import (
	"math"
	"sync"

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

// The heaps below are hand-rolled over []Result rather than container/heap
// because interface{} boxing on every Push/Pop is exactly the per-candidate
// allocation this package is built to avoid.

// minPush adds r to the min-heap h (closest on top).
func minPush(h *[]Result, r Result) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(s[p], s[i]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// minPop removes and returns the closest entry of h.
func minPop(h *[]Result) Result {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < n && worse(s[next], s[l]) {
			next = l
		}
		if r < n && worse(s[next], s[r]) {
			next = r
		}
		if next == i {
			return top
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
}

// maxPush adds r to the max-heap h (worst on top), the bounded result set.
func maxPush(h *[]Result, r Result) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// maxPop removes and returns the worst entry of h.
func maxPop(h *[]Result) Result {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		next := i
		if l < n && worse(s[l], s[next]) {
			next = l
		}
		if r < n && worse(s[r], s[next]) {
			next = r
		}
		if next == i {
			return top
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
}

// boundedInsert offers r to the k-bounded max-heap h, evicting the current
// worst when full and r improves on it.
func boundedInsert(h *[]Result, r Result, k int) bool {
	if len(*h) < k {
		maxPush(h, r)
		return true
	}
	if worse(r, (*h)[0]) {
		return false
	}
	maxPop(h)
	maxPush(h, r)
	return true
}

// drainSorted empties the bounded max-heap into a fresh slice of at most k
// results, closest first, converting the squared distances the heaps work
// in back to linear.
func drainSorted(h *[]Result, k int) []Result {
	for len(*h) > k {
		maxPop(h)
	}
	out := make([]Result, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		r := maxPop(h)
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
			d := src.dist(int(nb))
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
}
