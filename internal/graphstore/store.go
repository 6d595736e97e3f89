// Package graphstore interns uploaded graphs by content hash, so identical
// payloads arriving in different requests, sessions, or conversations
// resolve to one shared *graph.Graph instance — one frozen CSR, one stats
// memo, one pool of content-keyed invocation-cache entries — instead of N
// private copies that never share anything.
//
// The store is the serving layer's answer to the E12c finding: a loadgen
// workload that re-uploads the same graph on every chat request scored zero
// invocation-cache hits, because cache identity was the graph pointer and
// every upload parsed to a fresh pointer. Content identity
// (graph.ContentHash) makes the dedup possible; the store makes it cheap —
// one hash plus one mutex hop per upload.
//
// Interned graphs are marked Shared and must never mutate. The executor
// honors that contract by cloning a shared graph before running any chain
// that contains a mutating API; race-enabled builds panic if a mutation
// slips through anyway.
package graphstore

import (
	"container/list"
	"sync"
	"unsafe"

	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
)

// Process-wide intern instruments, aggregated across every Store (the
// per-instance accessors stay for tests and introspection).
var (
	mHits = metrics.Default().Counter("chatgraph_graphstore_hits_total",
		"Uploads deduplicated onto an already-interned graph.", nil)
	mMisses = metrics.Default().Counter("chatgraph_graphstore_misses_total",
		"Uploads interned as new graphs.", nil)
	mEvictions = metrics.Default().Counter("chatgraph_graphstore_evictions_total",
		"Interned graphs evicted for capacity.", nil)
)

// DefaultCapacity bounds the store an Engine installs when the caller does
// not say otherwise. Entries are whole graphs, so the bound is deliberately
// modest; the LRU keeps whatever the traffic actually re-uploads.
const DefaultCapacity = 1024

// DefaultMaxBytes bounds the store's estimated retained graph memory. The
// entry count alone is not a memory bound — the chat endpoint accepts
// multi-megabyte graph bodies, so capacity × max-body would let varied
// traffic pin gigabytes. Whichever bound trips first evicts.
const DefaultMaxBytes = 256 << 20

// Store is a bounded, concurrency-safe LRU of interned graphs keyed by
// content identity, limited by both entry count and estimated retained
// bytes. Intern is the only write path; everything it returns is shared
// and read-only by contract.
type Store struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64
	ll       *list.List // most-recent first; values are *entry
	entries  map[graph.ContentHash]*list.Element
	bytes    int64 // estimated retained bytes across entries

	hits      uint64
	misses    uint64
	evictions uint64
}

type entry struct {
	key   graph.ContentHash
	g     *graph.Graph
	bytes int64
}

// New returns a store holding at most capacity interned graphs
// (capacity <= 0 gets DefaultCapacity) within DefaultMaxBytes of estimated
// graph memory. The store's size is exported as the
// chatgraph_graphstore_size / chatgraph_graphstore_bytes gauges; with
// several stores in one process (tests), the most recently constructed one
// wins the gauges.
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Store{
		capacity: capacity,
		maxBytes: DefaultMaxBytes,
		ll:       list.New(),
		entries:  make(map[graph.ContentHash]*list.Element, capacity),
	}
	metrics.Default().GaugeFunc("chatgraph_graphstore_size",
		"Graphs currently interned.", nil,
		func() float64 { return float64(s.Len()) })
	metrics.Default().GaugeFunc("chatgraph_graphstore_bytes",
		"Estimated bytes retained by interned graphs.", nil,
		func() float64 { return float64(s.Bytes()) })
	return s
}

// approxBytes estimates what keeping g resident costs once a chat has read
// its adjacency: the Graph and its two exact-size slabs (nodes, edges);
// each distinct label string and attribute map once, however many nodes or
// edges hold it (a parse shares them: graph.Node.Attrs); the frozen CSR —
// offsets, targets and weights per direction, plus its label table; and the
// memoized Stats, whose label histogram holds an entry per distinct label.
// A graph whose chats never read adjacency (one that is only classified and
// cleaned) carries no CSR and no Stats, so for it the estimate is an upper
// bound. It is an estimate the byte budget evicts by, held to within 25 % of
// the measured heap of graphs that carry both (TestBytesTracksRetention),
// not an account.
func approxBytes(g *graph.Graph) int64 {
	const (
		nodeSize  = int64(unsafe.Sizeof(graph.Node{}))
		edgeSize  = int64(unsafe.Sizeof(graph.Edge{}))
		fixed     = 1024    // the Graph, the CSR and Stats headers, the fingerprint
		perLabel  = 16 + 40 // the CSR label table's header + a histogram entry
		mapHeader = 48
		mapSlot   = 40 // a string → string slot with its share of control bytes
	)
	n, m := int64(g.NumNodes()), int64(g.NumEdges())
	b := fixed + n*(nodeSize+perLabel) + m*edgeSize
	if g.Directed() {
		// Forward, reverse and undirected offsets; forward targets and
		// weights, reverse targets, and both directions of the undirected
		// view.
		b += n*3*4 + m*(8+8+8+2*8)
	} else {
		// One offsets array; each edge seen from both ends.
		b += n*4 + m*2*(8+8)
	}
	var seen recent
	for i := range g.Nodes() {
		nd := &g.Nodes()[i]
		b += seen.stringBytes(nd.Label)
		if len(nd.Attrs) > 0 && seen.first(*(*unsafe.Pointer)(unsafe.Pointer(&nd.Attrs))) {
			b += mapHeader + mapSlot*int64(max(len(nd.Attrs), 8))
			for k, v := range nd.Attrs {
				b += seen.stringBytes(k) + seen.stringBytes(v)
			}
		}
	}
	for i := range g.Edges() {
		b += seen.stringBytes(g.Edges()[i].Label)
	}
	return b
}

// recent is a small direct-mapped table of the string data and maps
// approxBytes has counted, so a label or attribute map a parse shared among
// many nodes or edges is counted about once. A collision only counts a
// shared value again.
type recent [64]unsafe.Pointer

// first reports whether p is new to the table, and remembers it.
func (r *recent) first(p unsafe.Pointer) bool {
	slot := &r[uintptr(p)>>4%uintptr(len(r))]
	if *slot == p {
		return false
	}
	*slot = p
	return true
}

// stringBytes is what s's data costs the heap (its allocation size class,
// roughly), or 0 if s is empty or was counted already.
func (r *recent) stringBytes(s string) int64 {
	if len(s) == 0 || !r.first(unsafe.Pointer(unsafe.StringData(s))) {
		return 0
	}
	return int64(len(s)+7) &^ 7
}

// Intern resolves g to the one shared instance for its content: the first
// graph interned with this content hash wins and is returned for every
// subsequent upload of equal content; g itself is returned (and becomes the
// shared instance) on first sight. Equal content means equal in index order
// — the same nodes listed in another order are another graph (node IDs are
// observable through the APIs) and intern separately. The returned graph is
// marked Shared — callers must treat it as immutable and clone before any
// mutation. A nil store or nil graph passes through untouched.
func (s *Store) Intern(g *graph.Graph) *graph.Graph {
	if s == nil || g == nil {
		return g
	}
	k := g.ContentHash()
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		shared := el.Value.(*entry).g
		s.mu.Unlock()
		mHits.Inc()
		return shared
	}
	g.MarkShared()
	e := &entry{key: k, g: g, bytes: approxBytes(g)}
	s.entries[k] = s.ll.PushFront(e)
	s.bytes += e.bytes
	// Evict from the cold end until both bounds hold again, always keeping
	// the entry just inserted (an oversized upload is still shared with
	// concurrent identical uploads until the next insert ages it out).
	for s.ll.Len() > 1 && (s.ll.Len() > s.capacity || s.bytes > s.maxBytes) {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		old := oldest.Value.(*entry)
		delete(s.entries, old.key)
		s.bytes -= old.bytes
		s.evictions++
		mEvictions.Inc()
	}
	s.misses++
	s.mu.Unlock()
	mMisses.Inc()
	return g
}

// Bytes reports the estimated bytes retained by interned graphs.
func (s *Store) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len reports the number of interned graphs.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Counters returns the lifetime intern hit and miss counts.
func (s *Store) Counters() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Evictions returns the lifetime capacity-eviction count.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
