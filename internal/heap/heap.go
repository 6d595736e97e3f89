// Package heap is the module's one binary heap: a min-heap over a plain
// slice under a caller-supplied strict order. ann's bounded top-k and beam
// frontier and graph's Dijkstra queue all run on it.
//
// It is generic rather than container/heap because container/heap boxes
// every pushed element in an interface value, which allocates; Push and Pop
// allocate nothing once the slice has grown.
package heap

// Push adds x to the heap h, whose top h[0] is the element no other comes
// before. before must be a strict order, so equal elements are never
// swapped.
func Push[T any](h *[]T, x T, before func(a, b T) bool) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// Pop removes and returns the top of the non-empty heap h.
func Pop[T any](h *[]T, before func(a, b T) bool) T {
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
		if l < n && before(s[l], s[next]) {
			next = l
		}
		if r < n && before(s[r], s[next]) {
			next = r
		}
		if next == i {
			return top
		}
		s[i], s[next] = s[next], s[i]
		i = next
	}
}
