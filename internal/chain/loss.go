package chain

import (
	"math"
	"sync"
)

// This file implements the training signals of the paper's §II-C.
//
// The graph edit distance X between two chains is the classic sequence edit
// distance with a graded substitution cost (same API + same args = 0, same
// API = argCost, different API = 1) and unit insert/delete cost — chains are
// linear graphs, so sequence edit distance IS their graph edit distance.
//
// The node-matching-based loss of Definition 1 is min_M X + αY where M is a
// one-to-one node matching between the chains and Y penalizes unmatched
// nodes: Y = Σ_{u∈C}(1−Σ_k M_{u,k})² + Σ_{v∈C′}(1−Σ_i M_{i,v})². The
// optimal matching is computed with the Hungarian algorithm over the
// pairwise substitution-cost matrix.

// argCost is the substitution cost between two steps that call the same API
// with different arguments — cheaper than a full API mismatch so the
// matching prefers aligning same-API steps.
const argCost = 0.25

// unmatched is the cost of leaving a node unmatched (the matching's dummy
// rows/columns), equal to an insert/delete in the edit distance.
const unmatched = 1.0

// stepCost is the substitution cost used by both the edit distance and the
// matching.
func stepCost(a, b Step) float64 {
	if a.API != b.API {
		return 1
	}
	if a.Equal(b) {
		return 0
	}
	return argCost
}

// scratch holds the work arrays of one loss evaluation. Rollout finetuning
// evaluates the loss a few hundred thousand times per boot on chains of at
// most eight steps, so the arrays are leased from a pool and resized, not
// allocated per call.
type scratch struct {
	// prev and cur are the edit distance's two DP rows.
	prev, cur []float64
	// cost is the padded size×size substitution matrix, row-major.
	cost []float64
	size int
	// u, v, minv, p, way and used are the Hungarian algorithm's potentials,
	// column assignment and per-row search state (1-based, length size+1).
	u, v, minv []float64
	p, way     []int
	used       []bool
	// assign[i] is the column the solver gave row i.
	assign []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns buf resliced to n elements, reallocating only when it is too
// small. The contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// EditDistance returns the graph edit distance between two chains: the
// minimum total cost of substitutions (stepCost), insertions, and deletions
// (cost 1 each) transforming a into b.
func EditDistance(a, b Chain) float64 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.editDistance(a, b)
}

func (s *scratch) editDistance(a, b Chain) float64 {
	n, m := len(a), len(b)
	s.prev, s.cur = sized(s.prev, m+1), sized(s.cur, m+1)
	prev, cur := s.prev, s.cur
	for j := 0; j <= m; j++ {
		prev[j] = float64(j)
	}
	for i := 1; i <= n; i++ {
		cur[0] = float64(i)
		for j := 1; j <= m; j++ {
			sub := prev[j-1] + stepCost(a[i-1], b[j-1])
			ins := cur[j-1] + 1
			del := prev[j] + 1
			cur[j] = min(sub, ins, del)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// match fills s.cost with the padded substitution matrix of a and b and
// solves the assignment into s.assign.
func (s *scratch) match(a, b Chain) {
	n, m := len(a), len(b)
	size := max(n, m)
	s.size = size
	s.cost = sized(s.cost, size*size)
	for i := 0; i < size; i++ {
		row := s.cost[i*size : (i+1)*size]
		for j := range row {
			if i < n && j < m {
				row[j] = stepCost(a[i], b[j])
			} else {
				row[j] = unmatched
			}
		}
	}
	s.hungarian()
}

// pair returns the column of the second chain (of m steps) that row i was
// matched to and the pair's cost, or -1 when i is unmatched. Matching to a
// dummy is never better than a real pair of cost < 1; but a real pair of
// cost 1 is equivalent to unmatched, so full-cost pairs count as unmatched
// for the regularizer.
func (s *scratch) pair(i, m int) (int, float64) {
	j := s.assign[i]
	if j < m {
		if c := s.cost[i*s.size+j]; c < unmatched {
			return j, c
		}
	}
	return -1, 0
}

// loss evaluates Definition 1 for the generated chain c against the ground
// truth truth: min_M X + αY with X the edit distance and Y the one-to-one
// regularizer under the optimal matching.
func (s *scratch) loss(c, truth Chain, alpha float64) float64 {
	x := s.editDistance(c, truth)
	matched := 0
	if len(c) > 0 {
		s.match(c, truth)
		for i := range c {
			if j, _ := s.pair(i, len(truth)); j >= 0 {
				matched++
			}
		}
	}
	// With a hard 0/1 matching the row/column sums are 0 or 1, so each
	// unmatched node contributes (1−0)² = 1; the matching is one-to-one, so
	// each matched pair covers one node on either side.
	y := float64(len(c) + len(truth) - 2*matched)
	return x + alpha*y
}

// MinLoss returns the smallest loss of c against any of the ground-truth
// chains — the paper's "there may be several API chains that are equivalent"
// property — plus the index of the closest truth. An empty truth set yields
// (+Inf, -1).
func MinLoss(c Chain, truths []Chain, alpha float64) (float64, int) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	best, bestIdx := math.Inf(1), -1
	for i, t := range truths {
		if l := s.loss(c, t, alpha); l < best {
			best, bestIdx = l, i
		}
	}
	return best, bestIdx
}

// hungarian solves the size×size assignment problem over s.cost, leaving in
// s.assign the column assigned to each row. This is the O(n³)
// potential-based formulation.
func (s *scratch) hungarian() {
	const inf = math.MaxFloat64
	n, cost := s.size, s.cost
	s.u, s.v, s.minv = sized(s.u, n+1), sized(s.v, n+1), sized(s.minv, n+1)
	s.p, s.way = sized(s.p, n+1), sized(s.way, n+1) // p[j] = row assigned to column j (1-based)
	s.used = sized(s.used, n+1)
	u, v, minv, p, way, used := s.u, s.v, s.minv, s.p, s.way, s.used
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		clear(used)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[(i0-1)*n+j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	s.assign = sized(s.assign, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			s.assign[p[j]-1] = j - 1
		}
	}
}
