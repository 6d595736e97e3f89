package graph

import (
	"math/rand"
	"slices"
	"testing"

	"chatgraph/internal/heap"
)

// heapPush and heapPop are the hand-rolled Dijkstra heap WeightedShortestPath
// ran on before internal/heap, kept verbatim as the oracle
// TestDijkstraHeapParity holds heap.Push / heap.Pop under nearer to.

func heapPush(h *[]heapEntry, e heapEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func heapPop(h *[]heapEntry) heapEntry {
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
		if l < n && s[l].dist < s[next].dist {
			next = l
		}
		if r < n && s[r].dist < s[next].dist {
			next = r
		}
		if next == i {
			return top
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
}

// TestDijkstraHeapParity runs random push/pop sequences of Dijkstra entries
// through the generic heap and the retained oracle and requires the two
// slices to be equal after every operation. dist takes three values and the
// node IDs are unique, so equal-dist entries are told apart: a comparator
// off by <= would swap them and diverge.
func TestDijkstraHeapParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		var got, want []heapEntry
		for op := 0; op < 300; op++ {
			if len(want) > 0 && rng.Intn(5) < 2 {
				g, w := heap.Pop(&got, nearer), heapPop(&want)
				if g != w {
					t.Fatalf("trial %d op %d: popped %v, oracle %v", trial, op, g, w)
				}
			} else {
				e := heapEntry{node: int32(op), dist: float64(rng.Intn(3))}
				heap.Push(&got, e, nearer)
				heapPush(&want, e)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d op %d: heap %v, oracle %v", trial, op, got, want)
			}
		}
	}
}
