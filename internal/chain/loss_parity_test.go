package chain

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Loss and OptimalMatching are the single-pair views of the loss kernels
// MinLoss runs: nothing but the tests asks for one pair's loss or for the
// matching itself, and the tests hold both to the references below.

// Loss evaluates Definition 1 for the generated chain c against one ground
// truth.
func Loss(c, truth Chain, alpha float64) float64 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.loss(c, truth, alpha)
}

// Matching is a one-to-one assignment between the steps of two chains.
// Pairs[i] = j means step i of the first chain matches step j of the second;
// -1 means unmatched.
type Matching struct {
	Pairs []int
	// Cost is the total substitution cost over matched pairs.
	Cost float64
}

// OptimalMatching computes the minimum-cost one-to-one matching between the
// steps of a and b using the Hungarian algorithm on a square matrix padded
// with dummy rows/columns of cost 1 (the cost of leaving a node unmatched,
// equal to an insert/delete in the edit distance).
func OptimalMatching(a, b Chain) Matching {
	if len(a) == 0 && len(b) == 0 {
		return Matching{}
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.match(a, b)
	mt := Matching{Pairs: make([]int, len(a))}
	for i := range a {
		mt.Pairs[i] = -1
		if j, c := s.pair(i, len(b)); j >= 0 {
			mt.Pairs[i] = j
			mt.Cost += c
		}
	}
	return mt
}

// refEditDistance, refOptimalMatching, refLoss and refHungarian are the
// implementations the pooled-scratch ones replaced, kept verbatim as the
// reference: fresh slices per call, a [][]float64 cost matrix, and Y counted
// from the Pairs on both sides.

func refEditDistance(a, b Chain) float64 {
	n, m := len(a), len(b)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = float64(j)
	}
	for i := 1; i <= n; i++ {
		cur[0] = float64(i)
		for j := 1; j <= m; j++ {
			sub := prev[j-1] + stepCost(a[i-1], b[j-1])
			ins := cur[j-1] + 1
			del := prev[j] + 1
			cur[j] = math.Min(sub, math.Min(ins, del))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func refOptimalMatching(a, b Chain) Matching {
	n, m := len(a), len(b)
	size := n
	if m > size {
		size = m
	}
	if size == 0 {
		return Matching{}
	}
	cost := make([][]float64, size)
	for i := range cost {
		cost[i] = make([]float64, size)
		for j := range cost[i] {
			switch {
			case i < n && j < m:
				cost[i][j] = stepCost(a[i], b[j])
			default:
				cost[i][j] = unmatched
			}
		}
	}
	assign := refHungarian(cost)
	mt := Matching{Pairs: make([]int, n)}
	for i := 0; i < n; i++ {
		j := assign[i]
		if j < m {
			// Matching to a dummy is never better than a real pair of cost
			// < 1; but a real pair of cost 1 is equivalent to unmatched, so
			// treat full-cost pairs as unmatched for the regularizer.
			if cost[i][j] < unmatched {
				mt.Pairs[i] = j
				mt.Cost += cost[i][j]
				continue
			}
		}
		mt.Pairs[i] = -1
	}
	return mt
}

func refLoss(c, truth Chain, alpha float64) float64 {
	x := refEditDistance(c, truth)
	m := refOptimalMatching(c, truth)
	matchedTruth := make([]bool, len(truth))
	unmatchedC := 0
	for _, j := range m.Pairs {
		if j >= 0 {
			matchedTruth[j] = true
		} else {
			unmatchedC++
		}
	}
	unmatchedT := 0
	for _, ok := range matchedTruth {
		if !ok {
			unmatchedT++
		}
	}
	// With a hard 0/1 matching the row/column sums are 0 or 1, so each
	// unmatched node contributes (1−0)² = 1.
	y := float64(unmatchedC + unmatchedT)
	return x + alpha*y
}

func refHungarian(cost [][]float64) []int {
	n := len(cost)
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row assigned to column j (1-based)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
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
				cur := cost[i0-1][j-1] - u[i0] - v[j]
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
	assign := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign
}

// TestLossMatchesReference: the scratch-reusing loss, edit distance and
// matching return exactly what the allocating ones did, on chains with and
// without arguments, with sizes interleaved so a leased scratch is always
// dirty from a differently-sized call.
func TestLossMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	apis := []string{"a", "b", "c", "d", "e"}
	gen := func() Chain {
		c := make(Chain, rng.Intn(11))
		for i := range c {
			c[i] = Step{API: apis[rng.Intn(len(apis))]}
			if rng.Intn(3) == 0 {
				c[i].Args = map[string]string{"k": apis[rng.Intn(2)]}
			}
		}
		return c
	}
	for i := 0; i < 5000; i++ {
		a, b := gen(), gen()
		if got, want := EditDistance(a, b), refEditDistance(a, b); got != want {
			t.Fatalf("EditDistance(%s, %s) = %v, reference %v", a, b, got, want)
		}
		got, want := OptimalMatching(a, b), refOptimalMatching(a, b)
		if got.Cost != want.Cost || !slices.Equal(got.Pairs, want.Pairs) {
			t.Fatalf("OptimalMatching(%s, %s) = %+v, reference %+v", a, b, got, want)
		}
		alpha := float64(rng.Intn(5)) / 4
		if got, want := Loss(a, b, alpha), refLoss(a, b, alpha); got != want {
			t.Fatalf("Loss(%s, %s, %v) = %v, reference %v", a, b, alpha, got, want)
		}
		truths := []Chain{b, gen(), gen()}
		wantLoss, wantIdx := math.Inf(1), -1
		for j, truth := range truths {
			if l := refLoss(a, truth, alpha); l < wantLoss {
				wantLoss, wantIdx = l, j
			}
		}
		if gotLoss, gotIdx := MinLoss(a, truths, alpha); gotLoss != wantLoss || gotIdx != wantIdx {
			t.Fatalf("MinLoss(%s, %v) = %v, %d, reference %v, %d", a, truths, gotLoss, gotIdx, wantLoss, wantIdx)
		}
	}
}
