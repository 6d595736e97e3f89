package graph

import "sync"

// travScratch is the per-traversal working set every CSR algorithm reuses:
// an epoch-stamped visited buffer, a frontier queue, per-node integer and
// float arrays, and the Dijkstra heap's slice. Instances recycle through
// travPool, so a steady-state BFS or Dijkstra allocates nothing per visited
// node, and concurrent requests traversing one shared frozen graph each
// lease their own scratch. An all-source kernel keeps one lease for all its
// sweeps.
type travScratch struct {
	// visited[i] == epoch marks node i seen by the current traversal.
	// Bumping epoch invalidates the whole buffer in O(1).
	visited []uint32
	epoch   uint32
	// queue is the BFS frontier; after a walk it holds the reached nodes
	// in visit order (see CSR.bfs).
	queue []int32
	// depths and parent hold each reached node's hop count and first
	// discoverer after a walk; Dijkstra reuses parent.
	depths []int32
	parent []int32
	// marks is a second stamped buffer (coloring palettes, Brandes'
	// predecessor runs).
	marks []int32
	// fdist backs Dijkstra's distances and Brandes' σ, delta Brandes' δ,
	// and preds Brandes' predecessors, flat.
	fdist []float64
	delta []float64
	preds []int32
	// heap is the Dijkstra priority queue.
	heap []heapEntry
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

// grow returns *s resliced to n entries, reallocated first if it is too
// short (contents undefined).
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// nearer is the Dijkstra queue's order for internal/heap: least distance on
// top.
func nearer(a, b heapEntry) bool { return a.dist < b.dist }
