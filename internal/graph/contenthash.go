package graph

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Content-addressed graph identity. ContentHash fingerprints what a graph
// *says* — labels, attributes, edges, weights, directedness, name — rather
// than where it lives in memory or how it was built. Two graphs constructed
// by different code paths (JSON uploads in different sessions, generators
// run twice, permuted insertion orders) hash equal exactly when their
// canonical content is equal, which is what lets the graphstore interning
// layer and the content-keyed invocation cache recognize "the same graph"
// across requests, sessions, and process lifetime of the original pointer.
//
// The fingerprint is a Weisfeiler-Leman style canonical hash:
//
//  1. every node gets a signature from its label and sorted attributes;
//  2. a few rounds of neighborhood refinement fold the multiset of each
//     node's incident-edge contributions (direction flag, neighbor
//     signature, edge label, weight) back into its signature, so structure
//     — not just label multisets — reaches the hash;
//  3. the final digest covers the directedness flag, the name, the node and
//     edge counts, the multiset of node signatures, and the multiset of
//     edge signatures (endpoint signatures normalized for undirected
//     edges).
//
// A multiset enters as its size and the lane-wise sum of its members'
// signatures (sig128.add): addition is what makes the hash invariant under
// node and edge insertion order without sorting anything — once words were
// absorbed whole, sorting 128-bit keys was most of what the hash cost — and
// every member is itself the output of the keyed mixing below, so which
// multisets share a sum is as unpredictable to a client as the lanes are.
// Attribute maps are the one sorted piece (by key, a handful per node).
// Folding the refined signatures in makes any single mutation (node/edge
// added or removed, weight, label, or attribute changed) flip the hash with
// overwhelming probability. Like any structural canonicalization short of
// full graph canonization, WL-equivalent non-isomorphic graphs can collide;
// for the upload-dedup workload (byte-identical or trivially reordered
// payloads) that boundary is never reached.

// ContentHash is a 128-bit canonical content fingerprint of one graph.
type ContentHash [16]byte

// String renders the hash as 32 hex characters.
func (h ContentHash) String() string { return hex.EncodeToString(h[:]) }

// ExactHash is a 128-bit fingerprint of one graph's representation in
// index order: the same fields ContentHash covers, but with nodes and
// edges hashed at their dense IDs instead of as sorted multisets. It is
// the cheap equality witness that pairs with the canonical hash: two
// graphs with equal ExactHash agree on everything the API surface can
// observe — including which node is ID k — while ContentHash deliberately
// erases ordering. Consumers that key shared state by content (the intern
// store, the invocation cache) bucket by ContentHash and discriminate by
// ExactHash, the usual hash-for-grouping / equality-for-truth split, so a
// canonical-hash coincidence (WL-equivalent graphs, permuted insertions)
// can never alias observably different graphs.
type ExactHash [16]byte

// String renders the hash as 32 hex characters.
func (h ExactHash) String() string { return hex.EncodeToString(h[:]) }

// ContentHash returns the canonical content fingerprint of g's current
// version. Like Freeze, the computation is cached until the next mutation,
// so repeated identity checks on an unmutated graph cost a mutex hop —
// cheap enough to sit on the per-request intern and invoke-cache paths.
func (g *Graph) ContentHash() ContentHash {
	c, _ := g.hashes()
	return c
}

// ExactHash returns the index-order fingerprint of g's current version,
// cached like ContentHash.
func (g *Graph) ExactHash() ExactHash {
	_, e := g.hashes()
	return e
}

// hashes computes and caches both fingerprints together: every consumer that
// keys on identity (the intern store, the invocation cache) asks for the
// pair, and the two share the per-node signature pass.
func (g *Graph) hashes() (ContentHash, ExactHash) {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if !g.hashValid || g.hashVersion != g.version {
		base := nodeSigs(g)
		// Exact first: the canonical hash refines and sorts base in place.
		g.exact = computeExactHash(g, base)
		g.hash = computeContentHash(g, base)
		g.hashVersion = g.version
		g.hashValid = true
	}
	return g.hash, g.exact
}

// sig128 is one 128-bit running signature: two 64-bit lanes fed identical
// words, each with its own per-process initial state and its own per-process
// odd multiplier. A lane absorbs a whole word per step with one folded
// 64×64→128 multiply, state' = hi ⊕ lo of (state ⊕ word) · key — the mixing
// step of wyhash and of the Go runtime's portable map hash. Folding the
// high half back in is what lets a flipped top bit of the word reach every
// bit of the state; a plain 64-bit multiply only ever carries differences
// upward, which a second crafted word could cancel without knowing the key.
// Not cryptographic — a keyed fingerprint with enough width that
// independent contents never collide in practice.
type sig128 struct{ a, b uint64 }

// hashKey is the per-process entropy behind every signature: the lanes'
// initial states and multipliers. ContentHash values are only ever compared
// within one process (the intern store and the invocation cache live and
// die with it), so nothing needs the hash to be stable across runs — and
// with both the starting state and the multiplier unpredictable, how a
// difference in one word spreads through a lane is unknown to a client, who
// therefore cannot offline-craft two different payloads that collide and
// poison the shared caches of other sessions.
var hashKey = func() (k struct{ initA, initB, mulA, mulB uint64 }) {
	var b [32]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed key
		// would silently weaken the collision story, so fail loudly.
		panic(fmt.Sprintf("graph: content-hash key entropy: %v", err))
	}
	k.initA = binary.LittleEndian.Uint64(b[0:])
	k.initB = binary.LittleEndian.Uint64(b[8:])
	// Odd multipliers with the top bit set: the low half of the product is
	// then a bijection of the word and the high half is never trivially 0.
	k.mulA = binary.LittleEndian.Uint64(b[16:]) | 1<<63 | 1
	k.mulB = binary.LittleEndian.Uint64(b[24:]) | 1<<63 | 1
	return k
}()

func newSig() sig128 { return sig128{hashKey.initA, hashKey.initB} }

func foldMul(x, k uint64) uint64 {
	hi, lo := bits.Mul64(x, k)
	return hi ^ lo
}

func (s *sig128) writeUint64(v uint64) {
	s.a = foldMul(s.a^v, hashKey.mulA)
	s.b = foldMul(s.b^v, hashKey.mulB)
}

func (s *sig128) writeBool(v bool) {
	if v {
		s.writeUint64(1)
	} else {
		s.writeUint64(0)
	}
}

// writeString length-prefixes the bytes so concatenated fields can never
// alias each other ("ab"+"c" vs "a"+"bc"), then absorbs them eight at a
// time; the zero padding of the last word is unambiguous under the prefix.
func (s *sig128) writeString(v string) {
	s.writeUint64(uint64(len(v)))
	for ; len(v) >= 8; v = v[8:] {
		s.writeUint64(uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
			uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56)
	}
	if len(v) > 0 {
		var w uint64
		for i := 0; i < len(v); i++ {
			w |= uint64(v[i]) << (8 * i)
		}
		s.writeUint64(w)
	}
}

func (s *sig128) writeSig(o sig128) {
	s.writeUint64(o.a)
	s.writeUint64(o.b)
}

// bytes renders the signature as the 16 bytes both hash types are.
func (s sig128) bytes() (out [16]byte) {
	binary.LittleEndian.PutUint64(out[:8], s.a)
	binary.LittleEndian.PutUint64(out[8:], s.b)
	return out
}

// add folds o into a multiset accumulator: lane-wise, wrapping, so the
// order members arrive in cannot matter and a repeated member counts twice.
func (s *sig128) add(o sig128) {
	s.a += o.a
	s.b += o.b
}

// less orders the two endpoint signatures of an undirected edge.
func (s sig128) less(o sig128) bool {
	if s.a != o.a {
		return s.a < o.a
	}
	return s.b < o.b
}

// wlRounds is how many neighborhood-refinement sweeps the hash runs. Two
// rounds fold every node's 2-hop structure in — enough to separate graphs
// with equal label and edge multisets but different wiring, while keeping
// the hash O(rounds · (V + E)).
const wlRounds = 2

// nodeSigs hashes every node's intrinsic content — label plus sorted
// attrs — once; it is the starting point of the canonical refinement and, in
// index order, the node half of the exact hash.
func nodeSigs(g *Graph) []sig128 {
	sigs := make([]sig128, len(g.nodes))
	keys := make([]string, 0, 8)
	for i := range g.nodes {
		n := &g.nodes[i]
		s := newSig()
		s.writeString(n.Label)
		keys = keys[:0]
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		if len(keys) > 1 {
			sort.Strings(keys)
		}
		s.writeUint64(uint64(len(keys)))
		for _, k := range keys {
			s.writeString(k)
			s.writeString(n.Attrs[k])
		}
		sigs[i] = s
	}
	return sigs
}

// edgeContrib hashes one incident edge as seen from a node: a direction
// flag (0 undirected, 1 outgoing, 2 incoming), the far endpoint's current
// signature, and the edge's label and weight.
func edgeContrib(dir uint64, far sig128, label string, weight float64) sig128 {
	s := newSig()
	s.writeUint64(dir)
	s.writeSig(far)
	s.writeString(label)
	s.writeUint64(weightBits(weight))
	return s
}

// weightBits canonicalizes the float so 0.0 and -0.0 (which the JSON wire
// format conflates) hash equal.
func weightBits(w float64) uint64 {
	if w == 0 {
		w = 0
	}
	return math.Float64bits(w)
}

// computeContentHash runs the refinement from the per-node signatures in
// sigs, which it consumes.
func computeContentHash(g *Graph, sigs []sig128) ContentHash {
	n := len(g.nodes)

	// Neighborhood refinement: fold the multiset of each node's
	// incident-edge contributions into its signature, wlRounds times.
	next := make([]sig128, n)
	for round := 0; round < wlRounds; round++ {
		for u := 0; u < n; u++ {
			var contribs sig128
			for _, ei := range g.adj[u] {
				e := &g.edges[ei]
				if g.directed {
					contribs.add(edgeContrib(1, sigs[e.To], e.Label, e.Weight))
				} else {
					far := e.To
					if int(e.To) == u {
						far = e.From
					}
					contribs.add(edgeContrib(0, sigs[far], e.Label, e.Weight))
				}
			}
			degree := len(g.adj[u])
			if g.directed {
				for _, ei := range g.radj[u] {
					e := &g.edges[ei]
					contribs.add(edgeContrib(2, sigs[e.From], e.Label, e.Weight))
				}
				degree += len(g.radj[u])
			}
			s := newSig()
			s.writeSig(sigs[u])
			s.writeUint64(uint64(degree))
			s.writeSig(contribs)
			next[u] = s
		}
		sigs, next = next, sigs
	}

	// Edge signatures over the refined endpoint signatures; undirected
	// endpoints are normalized so (u,v) and (v,u) insertions agree.
	var nodeSet, edgeSet sig128
	for _, s := range sigs {
		nodeSet.add(s)
	}
	for i := range g.edges {
		e := &g.edges[i]
		from, to := sigs[e.From], sigs[e.To]
		if !g.directed && to.less(from) {
			from, to = to, from
		}
		s := newSig()
		s.writeSig(from)
		s.writeSig(to)
		s.writeString(e.Label)
		s.writeUint64(weightBits(e.Weight))
		edgeSet.add(s)
	}

	final := newSig()
	final.writeString("chatgraph.contenthash/2")
	final.writeBool(g.directed)
	final.writeString(g.Name)
	final.writeUint64(uint64(n))
	final.writeUint64(uint64(len(g.edges)))
	final.writeSig(nodeSet)
	final.writeSig(edgeSet)
	return final.bytes()
}

// computeExactHash walks the representation in index order: every field an
// API can observe, at the position it observes it. A node enters as its
// signature from nodes (attribute maps are the one sorted piece there — map
// iteration order is not observable).
func computeExactHash(g *Graph, nodes []sig128) ExactHash {
	s := newSig()
	s.writeString("chatgraph.exacthash/2")
	s.writeBool(g.directed)
	s.writeString(g.Name)
	s.writeUint64(uint64(len(nodes)))
	for _, n := range nodes {
		s.writeSig(n)
	}
	s.writeUint64(uint64(len(g.edges)))
	for i := range g.edges {
		e := &g.edges[i]
		s.writeUint64(uint64(e.From))
		s.writeUint64(uint64(e.To))
		s.writeString(e.Label)
		s.writeUint64(weightBits(e.Weight))
	}
	return s.bytes()
}
