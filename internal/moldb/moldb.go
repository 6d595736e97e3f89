// Package moldb is the molecule graph database behind the paper's
// chat-based graph comparison scenario (Fig. 5): it stores molecule graphs
// and answers "what molecules are similar to G" via a Weisfeiler–Lehman
// subtree kernel, the standard label-refinement similarity for labeled
// graphs. Stored fingerprints live in an inverted index (feature → the
// molecules holding it), so a search touches only the molecules that share
// a feature with the query.
package moldb

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"chatgraph/internal/graph"
)

// Entry is one stored molecule.
type Entry struct {
	ID    int
	Name  string
	Graph *graph.Graph
}

// posting is one molecule's count of one WL feature.
type posting struct {
	id    int32
	count float64
}

// DB is an in-memory molecule database; Add may run concurrently with
// Search, Similarity and Get.
type DB struct {
	mu      sync.RWMutex
	entries []Entry
	// postings maps each WL feature to the molecules holding it, in id
	// order (ids only grow); norms[id] is molecule id's fingerprint norm.
	postings   map[uint64][]posting
	norms      []float64
	iterations int
}

// New returns an empty DB whose similarity uses the given number of WL
// refinement iterations (≤ 0 means the default 3).
func New(wlIterations int) *DB {
	if wlIterations <= 0 {
		wlIterations = 3
	}
	return &DB{iterations: wlIterations, postings: make(map[uint64][]posting)}
}

// Len reports how many molecules are stored.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.entries)
}

// Add stores g under name and returns its ID.
func (db *DB) Add(name string, g *graph.Graph) int {
	fp := newFingerprint(g, db.iterations)
	db.mu.Lock()
	defer db.mu.Unlock()
	id := len(db.entries)
	db.entries = append(db.entries, Entry{ID: id, Name: name, Graph: g})
	db.norms = append(db.norms, fp.norm)
	for i, key := range fp.keys {
		db.postings[key] = append(db.postings[key], posting{int32(id), fp.counts[i]})
	}
	return id
}

// Get returns the entry with the given ID.
func (db *DB) Get(id int) (Entry, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if id < 0 || id >= len(db.entries) {
		return Entry{}, fmt.Errorf("moldb: no molecule with id %d", id)
	}
	return db.entries[id], nil
}

// Match is one similarity-search hit.
type Match struct {
	ID         int
	Name       string
	Similarity float64 // normalized WL kernel in [0, 1]
}

// Search returns the k stored molecules most similar to q, best first.
// Ties break by ID for determinism.
func (db *DB) Search(q *graph.Graph, k int) []Match {
	if k <= 0 {
		return nil
	}
	fq := newFingerprint(q, db.iterations)
	db.mu.RLock()
	defer db.mu.RUnlock()
	dots := make([]float64, len(db.entries))
	for i, key := range fq.keys {
		for _, p := range db.postings[key] {
			dots[p.id] += fq.counts[i] * p.count
		}
	}
	// Keep the best k in order by insertion: k is small (the API's default
	// is 2), so this beats sorting every molecule.
	top := make([]Match, 0, min(k, len(dots)))
	for id, dot := range dots {
		s := cosine(dot, fq.norm, db.norms[id])
		if len(top) == k && s <= top[k-1].Similarity {
			continue // ties keep the lower ID, which came first
		}
		if len(top) < k {
			top = append(top, Match{})
		}
		j := len(top) - 1
		for ; j > 0 && top[j-1].Similarity < s; j-- {
			top[j] = top[j-1]
		}
		top[j] = Match{ID: id, Name: db.entries[id].Name, Similarity: s}
	}
	return top
}

// Similarity returns the normalized WL kernel between two graphs, using the
// DB's iteration count.
func (db *DB) Similarity(a, b *graph.Graph) float64 {
	fa, fb := newFingerprint(a, db.iterations), newFingerprint(b, db.iterations)
	var dot float64
	for i, j := 0, 0; i < len(fa.keys) && j < len(fb.keys); {
		switch {
		case fa.keys[i] < fb.keys[j]:
			i++
		case fa.keys[i] > fb.keys[j]:
			j++
		default:
			dot += fa.counts[i] * fb.counts[j]
			i, j = i+1, j+1
		}
	}
	return cosine(dot, fa.norm, fb.norm)
}

// cosine normalizes a dot product of two feature multisets, 1 for
// identical structures and 0 when either is empty. Counts are small
// integers, so every product and partial sum is exact and the result does
// not depend on the order the dot product was summed in.
func cosine(dot, an, bn float64) float64 {
	if an == 0 || bn == 0 {
		return 0
	}
	return dot / (an * bn)
}

// fingerprint is a graph's WL subtree feature multiset: the distinct
// feature hashes in ascending order, the count of each, and the norm of
// the count vector.
type fingerprint struct {
	keys   []uint64
	counts []float64
	norm   float64
}

// FNV-1a (hash/fnv's New64a), inlined so hashing allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvU64 feeds v to the running FNV-1a hash h as 8 little-endian bytes.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

// fnvString feeds the bytes of s to the running FNV-1a hash h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// newFingerprint computes g's WL subtree features: labels are iteratively
// refined by hashing each node's label with the sorted labels of its
// neighbors, and every (iteration, label) occurrence is one feature.
func newFingerprint(g *graph.Graph, iterations int) fingerprint {
	n := g.NumNodes()
	if n == 0 {
		return fingerprint{}
	}
	feats := make([]uint64, 0, n*(iterations+1))
	labels, next := make([]uint64, n), make([]uint64, n)
	for i, nd := range g.Nodes() {
		l := nd.Label
		if e := nd.Attrs["element"]; e != "" {
			l = e
		}
		labels[i] = fnvString(fnvString(fnvOffset, "L0:"), l)
	}
	feats = append(feats, labels...)
	c := g.Freeze()
	var nbLabels []uint64
	for it := 1; it <= iterations; it++ {
		for i := range next {
			nbLabels = nbLabels[:0]
			for _, nb := range c.OutNeighbors(graph.NodeID(i)) {
				nbLabels = append(nbLabels, labels[nb])
			}
			slices.Sort(nbLabels)
			h := fnvU64(fnvU64(fnvOffset, uint64(it)), labels[i])
			for _, nl := range nbLabels {
				h = fnvU64(h, nl)
			}
			next[i] = h
		}
		feats = append(feats, next...)
		labels, next = next, labels
	}
	// Run-length encode the sorted features, reusing feats for the keys.
	slices.Sort(feats)
	fp := fingerprint{keys: feats[:0], counts: make([]float64, 0, len(feats))}
	var sq float64
	for i := 0; i < len(feats); {
		j := i + 1
		for j < len(feats) && feats[j] == feats[i] {
			j++
		}
		cnt := float64(j - i)
		fp.keys = append(fp.keys, feats[i])
		fp.counts = append(fp.counts, cnt)
		sq += cnt * cnt
		i = j
	}
	fp.norm = math.Sqrt(sq)
	return fp
}

// Describe renders a stored molecule as a one-line summary for chat output.
func Describe(e Entry) string {
	stats := graph.ComputeStats(e.Graph)
	return fmt.Sprintf("%s (id %s): %d atoms, %d bonds, %d rings",
		e.Name, strconv.Itoa(e.ID), stats.Nodes, stats.Edges, stats.Edges-stats.Nodes+stats.Components)
}
