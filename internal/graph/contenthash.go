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
// *says*, as presented — directedness, name, every node's label and
// attributes at its dense ID, every edge's endpoints, label and weight at its
// index — rather than where it lives in memory or which code path built it.
// Two graphs hash equal exactly when they agree on everything the API surface
// can observe, which is what lets the graphstore interning layer and the
// content-keyed invocation cache recognize "the same graph" across requests,
// sessions, and the lifetime of the original pointer.
//
// Order is deliberately *not* erased: node IDs are observable through API
// arguments and outputs ("the neighbours of node 3"), so two uploads that
// list the same nodes in another order are different graphs to every
// consumer and must not share an instance or a cache entry. What the hash
// does erase is spelling — JSON whitespace, member order, sparse wire IDs,
// an explicit default weight, an empty attribute map, attribute-map fill
// order — because none of it survives into the representation.

// ContentHash is the 128-bit keyed fingerprint of one graph's content in
// index order. It is the whole key wherever shared state is keyed by graph
// identity (the intern store, the invocation cache, the durable blob index):
// nothing compares graphs field by field behind it. That leans on the width
// and on the key, so for the record: keys used to pair this hash with an
// order-invariant one and were nominally 256 bits wide, but the second half
// was a function of less information and never decided anything this half
// did not; what keys now is these 128 bits alone. An accidental collision
// among 10⁹ distinct graphs has probability ≈ 10⁻²¹, and a crafted one needs
// the per-process hashKey, which never leaves the process.
type ContentHash [16]byte

// String renders the hash as 32 hex characters.
func (h ContentHash) String() string { return hex.EncodeToString(h[:]) }

// ContentHash returns the fingerprint of g's current version. Like Freeze,
// the computation is cached until the next mutation, so repeated identity
// checks on an unmutated graph cost a mutex hop — cheap enough to sit on the
// per-request intern and invoke-cache paths.
func (g *Graph) ContentHash() ContentHash {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if !g.hashValid || g.hashVersion != g.version {
		g.hash = hashIndexOrder(g)
		g.hashVersion = g.version
		g.hashValid = true
	}
	return g.hash
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

// bytes renders the signature as the 16 bytes a ContentHash is.
func (s sig128) bytes() (out [16]byte) {
	binary.LittleEndian.PutUint64(out[:8], s.a)
	binary.LittleEndian.PutUint64(out[8:], s.b)
	return out
}

// weightBits canonicalizes the float so 0.0 and -0.0 (which the JSON wire
// format conflates) hash equal.
func weightBits(w float64) uint64 {
	if w == 0 {
		w = 0
	}
	return math.Float64bits(w)
}

// hashIndexOrder walks the representation in index order: every field an
// API can observe, at the position it observes it. Strings are
// length-prefixed and every list is preceded by its count, so no byte can
// pass for its neighbour's; attribute maps are the one sorted piece — map
// iteration order is not observable.
func hashIndexOrder(g *Graph) ContentHash {
	s := newSig()
	s.writeString("chatgraph.contenthash/3")
	s.writeBool(g.directed)
	s.writeString(g.Name)
	s.writeUint64(uint64(len(g.nodes)))
	keys := make([]string, 0, 8)
	for i := range g.nodes {
		n := &g.nodes[i]
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
