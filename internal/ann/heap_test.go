package ann

import (
	"math/rand"
	"slices"
	"testing"

	"chatgraph/internal/heap"
)

// minPush, minPop, maxPush and maxPop are the hand-rolled mirror-image heaps
// beamSearch, boundedInsert and drainSorted ran on before internal/heap,
// kept verbatim as the oracle TestHeapParity holds heap.Push / heap.Pop
// under closer and worse to, slice for slice. oracleBeamSearchAdj runs on
// them too.

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

// TestHeapParity runs random push/pop sequences through the generic heap and
// the retained oracle under both of the package's orders, and requires the
// two slices to be equal after every operation. Distances come from three
// values and IDs from five, so most comparisons tie on Dist: a comparator
// that dropped or flipped the ID tie-break would diverge.
func TestHeapParity(t *testing.T) {
	orders := []struct {
		name   string
		before func(a, b Result) bool
		push   func(*[]Result, Result)
		pop    func(*[]Result) Result
	}{
		{"frontier/closer", closer, minPush, minPop},
		{"best/worse", worse, maxPush, maxPop},
	}
	for _, o := range orders {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 100; trial++ {
			var got, want []Result
			for op := 0; op < 300; op++ {
				if len(want) > 0 && rng.Intn(5) < 2 {
					g, w := heap.Pop(&got, o.before), o.pop(&want)
					if g != w {
						t.Fatalf("%s trial %d op %d: popped %v, oracle %v", o.name, trial, op, g, w)
					}
				} else {
					r := Result{ID: rng.Intn(5), Dist: float32(rng.Intn(3))}
					heap.Push(&got, r, o.before)
					o.push(&want, r)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s trial %d op %d: heap %v, oracle %v", o.name, trial, op, got, want)
				}
			}
		}
	}
}
