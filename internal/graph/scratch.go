package graph

import (
	"sort"
	"sync"
)

// travScratch is the per-traversal working set every CSR algorithm reuses:
// an epoch-stamped visited buffer, a frontier queue, integer and float
// distance arrays, and a hand-rolled Dijkstra heap. Instances recycle
// through travPool (mirroring ann.searchScratch), so a steady-state BFS or
// Dijkstra allocates nothing per visited node, and concurrent requests
// traversing one shared frozen graph each lease their own scratch. An
// all-source kernel keeps one lease for all its sweeps.
type travScratch struct {
	// visited[i] == epoch marks node i seen by the current traversal.
	// Bumping epoch invalidates the whole buffer in O(1).
	visited []uint32
	epoch   uint32
	// queue doubles as BFS frontier and DFS stack.
	queue []int32
	// depths holds per-node hop counts (valid only for visited nodes).
	depths []int32
	// marks is a second stamped buffer (coloring palettes, peeling state).
	marks []int32
	// fdist and parent back Dijkstra.
	fdist  []float64
	parent []int32
	// heap is the Dijkstra priority queue.
	heap []heapEntry
	// curBits/nextBits/visBits are the word-packed frontier and visited
	// bitsets of the hybrid BFS's dense (bottom-up) mode; see CSR.bfsFrom.
	curBits  []uint64
	nextBits []uint64
	visBits  []uint64
	// rows holds adjacency bit rows for the duration of one kernel; see
	// bitrows.go.
	rows []uint64
}

// heapEntry is one Dijkstra priority-queue item.
type heapEntry struct {
	node int32
	dist float64
}

var travPool = sync.Pool{New: func() any { return new(travScratch) }}

// getTrav leases a scratch sized for n nodes with a fresh visited epoch and
// an empty queue.
func getTrav(n int) *travScratch {
	sc := travPool.Get().(*travScratch)
	if cap(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.epoch = 0
	}
	sc.visited = sc.visited[:cap(sc.visited)]
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	sc.heap = sc.heap[:0]
	return sc
}

func putTrav(sc *travScratch) { travPool.Put(sc) }

// nextEpoch invalidates the visited buffer in O(1); a wrap-around triggers
// one real clear so stale stamps can never collide.
func (sc *travScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
}

func (sc *travScratch) seen(i int32) bool { return sc.visited[i] == sc.epoch }
func (sc *travScratch) mark(i int32)      { sc.visited[i] = sc.epoch }

// ints returns sc.depths grown to at least n entries (contents undefined).
func (sc *travScratch) ints(n int) []int32 {
	if cap(sc.depths) < n {
		sc.depths = make([]int32, n)
	}
	return sc.depths[:n]
}

// intMarks returns sc.marks grown to at least n entries (contents undefined).
func (sc *travScratch) intMarks(n int) []int32 {
	if cap(sc.marks) < n {
		sc.marks = make([]int32, n)
	}
	return sc.marks[:n]
}

// floats returns sc.fdist grown to at least n entries (contents undefined).
func (sc *travScratch) floats(n int) []float64 {
	if cap(sc.fdist) < n {
		sc.fdist = make([]float64, n)
	}
	return sc.fdist[:n]
}

// bitsets returns the three word-packed bitsets backing the hybrid BFS's
// dense mode — current frontier, next frontier, visited — each sized for n
// nodes. Contents are undefined; the promotion path rebuilds all three.
func (sc *travScratch) bitsets(n int) (cur, next, vis []uint64) {
	words := (n + 63) >> 6
	if cap(sc.curBits) < words {
		sc.curBits = make([]uint64, words)
		sc.nextBits = make([]uint64, words)
		sc.visBits = make([]uint64, words)
	}
	return sc.curBits[:words], sc.nextBits[:words], sc.visBits[:words]
}

// parents returns sc.parent grown to at least n entries (contents undefined).
func (sc *travScratch) parents(n int) []int32 {
	if cap(sc.parent) < n {
		sc.parent = make([]int32, n)
	}
	return sc.parent[:n]
}

// The Dijkstra heap is hand-rolled over []heapEntry for the same reason the
// ANN heaps are: container/heap boxes every Push/Pop through interface{},
// which is precisely the per-relaxation allocation this package avoids.

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

// nodeIDSlice sorts []NodeID without the closure allocation of sort.Slice.
type nodeIDSlice []NodeID

func (s nodeIDSlice) Len() int           { return len(s) }
func (s nodeIDSlice) Less(i, j int) bool { return s[i] < s[j] }
func (s nodeIDSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func sortNodeIDs(s []NodeID) { sort.Sort(nodeIDSlice(s)) }
