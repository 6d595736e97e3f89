package apis

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
)

// Process-wide invocation-cache instruments, aggregated across every
// InvokeCache instance (the per-instance Counters/Evictions accessors stay
// for tests and in-process introspection).
var (
	mCacheHits = metrics.Default().Counter("chatgraph_invoke_cache_hits_total",
		"Memoized API invocations served from the cache.", nil)
	mCacheMisses = metrics.Default().Counter("chatgraph_invoke_cache_misses_total",
		"Memoizable API invocations that had to run.", nil)
	mCacheEvictions = metrics.Default().Counter("chatgraph_invoke_cache_evictions_total",
		"Entries evicted for capacity.", nil)
)

// cacheKey identifies one memoizable invocation by graph *content*, not
// graph pointer: the content hash, the API, and the canonicalized arguments.
// Content keying is what lets two sessions that upload the same graph share
// one entry pool, and it removes the pointer-keying hazard entirely: the
// cache holds no graph references, so a freed graph's recycled address can
// never alias a stale entry — an old entry is reachable only by presenting
// the same content again, in which case it is not stale. The hash covers
// node and edge order (node IDs are observable through args and outputs),
// so permuted uploads do not share entries. The graph's mutation version is
// not part of the key — the hash is recomputed whenever it moves —
// Registry.Invoke checks it around the call instead.
type cacheKey struct {
	hash graph.ContentHash
	api  string
	args string
}

// InvokeCache is a bounded, concurrency-safe LRU over API invocation
// outputs. The executor consults it through Registry.Invoke: a repeated
// memoizable step on an unmutated graph returns the stored Output without
// re-running the API. Cached Outputs are shared — callers must treat the
// Data payload as read-only (every built-in API does).
type InvokeCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // most-recent first; values are *cacheEntry
	entries  map[cacheKey]*list.Element
	hits     uint64
	misses   uint64
	// evictions counts capacity evictions. Content-keyed entries are never
	// "stale" (the hash is the content), so capacity is the only reason an
	// entry leaves.
	evictions uint64
}

type cacheEntry struct {
	key cacheKey
	out Output
}

// DefaultInvokeCacheSize bounds the Env cache Default installs.
const DefaultInvokeCacheSize = 256

// NewInvokeCache returns an LRU holding at most capacity entries
// (capacity <= 0 gets DefaultInvokeCacheSize).
func NewInvokeCache(capacity int) *InvokeCache {
	if capacity <= 0 {
		capacity = DefaultInvokeCacheSize
	}
	return &InvokeCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element, capacity),
	}
}

func (c *InvokeCache) get(k cacheKey) (Output, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		mCacheMisses.Inc()
		return Output{}, false
	}
	c.hits++
	mCacheHits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

func (c *InvokeCache) put(k cacheKey, out Output) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	// No stale-version sweep: the content hash in the key means an entry
	// for an older version of some graph is still a correct answer for any
	// graph presenting that older content; unreferenced old content simply
	// ages out of the LRU.
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, out: out})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
		mCacheEvictions.Inc()
	}
}

// Counters returns the lifetime hit and miss counts.
func (c *InvokeCache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns the lifetime capacity-eviction count.
func (c *InvokeCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// canonicalArgs renders args as a deterministic key-sorted list, so two
// invocations with the same argument map hash to the same cache key. Every
// token is length-prefixed: separator bytes appearing inside keys or values
// (chain args arrive from JSON, which permits any byte) can never make two
// different maps collide.
func canonicalArgs(args map[string]string) string {
	if len(args) == 0 {
		return ""
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(len(args[k])))
		b.WriteByte(':')
		b.WriteString(args[k])
		b.WriteByte(';')
	}
	return b.String()
}
