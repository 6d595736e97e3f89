package graph

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// denseFixtures are graphs whose BFS frontiers cross the hybrid oracle's
// promotion threshold (max(n/16, 64) nodes), so the oracle's bottom-up
// bitset mode — which the small parity fixtures never reach — is what the
// production queue loop is held to: dense Erdős–Rényi, a planted-community
// graph, a directed dense graph (probing the oracle's reverse rows bottom-up),
// a star (instant promotion), and a dense core with a long path tail
// (promotion followed by demotion back to the queue).
func denseFixtures(t testing.TB) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	fixtures := map[string]*Graph{
		"er_dense": ErdosRenyi(400, 0.12, rng),
		"planted":  PlantedCommunities(4, 100, 0.4, 0.01, rng),
	}

	// Directed dense: each ordered pair independently with probability p.
	dd := NewDirected()
	const dn = 300
	for i := 0; i < dn; i++ {
		dd.AddNode("")
	}
	for i := 0; i < dn; i++ {
		for j := 0; j < dn; j++ {
			if i != j && rng.Float64() < 0.08 {
				dd.AddEdge(NodeID(i), NodeID(j)) //nolint:errcheck // endpoints valid by construction
			}
		}
	}
	fixtures["directed_dense"] = dd

	// Star: the hub's first frontier is every leaf, promoting immediately;
	// from a leaf, level two is every other leaf.
	star := New()
	hub := star.AddNode("hub")
	for i := 0; i < 200; i++ {
		leaf := star.AddNode("leaf")
		star.AddEdge(hub, leaf) //nolint:errcheck
	}
	fixtures["star"] = star

	// Dense core with a 150-node path tail: the oracle promotes inside the
	// core, then the frontier collapses to one node per level along the
	// tail — forcing a demotion back to its top-down queue.
	core := ErdosRenyi(300, 0.2, rng)
	prev := NodeID(0)
	for i := 0; i < 150; i++ {
		nxt := core.AddNode("tail")
		core.AddEdge(prev, nxt) //nolint:errcheck
		prev = nxt
	}
	fixtures["core_tail"] = core
	return fixtures
}

// frontierFixtures is every parity and dense fixture: the set the production
// queue loop is held to the hybrid oracle on.
func frontierFixtures(t *testing.T) map[string]*Graph {
	fixtures := parityFixtures(t)
	for name, g := range denseFixtures(t) {
		fixtures[name] = g
	}
	return fixtures
}

// Hybrid oracle tuning. A frontier holding at least
// max(n/denseFrontierDivisor, minDenseFrontier) nodes promotes to the dense
// (bitset, bottom-up) mode; it demotes back to the queue when a level
// shrinks below half that threshold. The floor keeps tiny graphs — where a
// whole traversal costs less than one bitset rebuild — on the queue path.
const (
	denseFrontierDivisor = 16
	minDenseFrontier     = 64
)

// mark stamps node i seen under the current epoch: what the oracle's loops
// write where production's one queue loop writes the stamp inline.
func (sc *travScratch) mark(i int32) { sc.visited[i] = sc.epoch }

// hybridBFS is the direction-optimizing BFS (Beamer et al., SC'12) that
// production carried until the one queue loop (CSR.bfs) replaced it, kept as
// that loop's parity oracle and benchmark baseline. It holds its own reverse
// rows, built from the CSR's forward rows (production builds none), and its
// own frontier and visited bitsets.
type hybridBFS struct {
	c *CSR
	// roff/rtgt are the reverse of the forward rows: in-edges per node on a
	// directed graph, the forward rows themselves on an undirected one.
	roff           []int32
	rtgt           []NodeID
	cur, next, vis []uint64
}

func newHybridBFS(c *CSR) *hybridBFS {
	h := &hybridBFS{c: c, roff: c.offsets, rtgt: c.targets}
	if c.directed {
		h.roff = make([]int32, c.n+1)
		h.rtgt = make([]NodeID, c.m)
		for _, v := range c.targets {
			h.roff[v+1]++
		}
		for i := 0; i < c.n; i++ {
			h.roff[i+1] += h.roff[i]
		}
		pos := append([]int32(nil), h.roff[:c.n]...)
		// Sources ascending, so every reverse row comes out sorted.
		for u := 0; u < c.n; u++ {
			for _, v := range c.OutNeighbors(NodeID(u)) {
				h.rtgt[pos[v]] = NodeID(u)
				pos[v]++
			}
		}
	}
	words := (c.n + 63) >> 6
	h.cur, h.next, h.vis = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	return h
}

// from is the level-synchronous hybrid traversal. Sparse frontiers expand
// top-down through the queue. When a level grows past the density threshold
// the traversal promotes to bottom-up: the visited bitset is rebuilt from the
// epoch marks, and each subsequent level is found by sweeping the complement
// words and probing reverse rows for a frontier member, breaking at the
// first hit. Epoch marks stay in sync in dense mode, so demotion (and any
// later caller using sc.seen) just works.
//
// off/tgt is the adjacency to traverse; roff/rtgt must be its reverse (the
// same slices for symmetric views). depth[v] is set for every reached node.
// members, when non-nil, collects every reached node, in no particular
// order. The caller owns the epoch. Returns the maximum depth reached.
func (h *hybridBFS) from(src int32, sc *travScratch, off []int32, tgt []NodeID, roff []int32, rtgt []NodeID, depth []int32, members *[]NodeID) int32 {
	n := h.c.n
	threshold := n / denseFrontierDivisor
	if threshold < minDenseFrontier {
		threshold = minDenseFrontier
	}
	q := sc.queue[:0]
	defer func() { sc.queue = q[:0] }()
	q = append(q, src)
	sc.mark(src)
	depth[src] = 0
	if members != nil {
		*members = append(*members, NodeID(src))
	}
	var (
		d, maxD        int32 // current frontier depth, deepest level seen
		dense          bool
		cur, next, vis = h.cur, h.next, h.vis
	)
	lo, hi := 0, 1 // current level occupies q[lo:hi]
	for {
		if !dense && hi-lo >= threshold {
			// Promote: visited from the epoch marks, the frontier from the
			// current queue level.
			clear(cur)
			clear(vis)
			for i := 0; i < n; i++ {
				if sc.visited[i] == sc.epoch {
					vis[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			for _, u := range q[lo:hi] {
				cur[u>>6] |= 1 << (uint(u) & 63)
			}
			q = q[:0]
			lo, hi = 0, 0
			dense = true
		}
		if dense {
			clear(next)
			count := 0
			for w, free := range vis {
				free = ^free
				if base := w << 6; base+64 > n {
					free &= 1<<(uint(n-base)) - 1
				}
				for free != 0 {
					b := bits.TrailingZeros64(free)
					free &^= 1 << uint(b)
					v := int32(w<<6 + b)
					for _, u := range rtgt[roff[v]:roff[v+1]] {
						if cur[u>>6]&(1<<(uint(u)&63)) != 0 {
							depth[v] = d + 1
							sc.mark(v)
							vis[w] |= 1 << uint(b)
							next[v>>6] |= 1 << (uint(v) & 63)
							count++
							if members != nil {
								*members = append(*members, NodeID(v))
							}
							break
						}
					}
				}
			}
			if count == 0 {
				return maxD
			}
			d++
			maxD = d
			cur, next = next, cur
			if count < threshold/2 {
				// Demote: extract the again-sparse frontier into the queue.
				dense = false
				for w, bw := range cur {
					for bw != 0 {
						b := bits.TrailingZeros64(bw)
						bw &^= 1 << uint(b)
						q = append(q, int32(w<<6+b))
					}
				}
				lo, hi = 0, len(q)
			}
			continue
		}
		if lo == hi {
			return maxD
		}
		for i := lo; i < hi; i++ {
			u := q[i]
			for _, v := range tgt[off[u]:off[u+1]] {
				if !sc.seen(int32(v)) {
					sc.mark(int32(v))
					depth[v] = d + 1
					q = append(q, int32(v))
					if members != nil {
						*members = append(*members, NodeID(v))
					}
				}
			}
		}
		lo, hi = hi, len(q)
		if lo < hi {
			d++
			maxD = d
		}
	}
}

// ecc is the oracle's eccFrom: the maximum depth reachable from src over the
// forward rows, with a fresh epoch.
func (h *hybridBFS) ecc(src int32, sc *travScratch) int32 {
	sc.nextEpoch()
	return h.from(src, sc, h.c.offsets, h.c.targets, h.roff, h.rtgt, grow(&sc.depths, h.c.n), nil)
}

// eccentricities is the oracle's Eccentricities.
func (h *hybridBFS) eccentricities() (ecc []int, radius, diameter int) {
	sc := getTrav(h.c.n)
	defer putTrav(sc)
	ecc = make([]int, h.c.n)
	radius = math.MaxInt
	for u := range ecc {
		ecc[u] = int(h.ecc(int32(u), sc))
		diameter = max(diameter, ecc[u])
		if ecc[u] > 0 {
			radius = min(radius, ecc[u])
		}
	}
	if radius == math.MaxInt {
		radius = 0
	}
	return ecc, radius, diameter
}

// pathLengths is the oracle's ShortestPathLengths.
func (h *hybridBFS) pathLengths(src NodeID) []int {
	sc := getTrav(h.c.n)
	defer putTrav(sc)
	h.ecc(int32(src), sc)
	dist := make([]int, h.c.n)
	for i := range dist {
		dist[i] = -1
		if sc.seen(int32(i)) {
			dist[i] = int(sc.depths[i])
		}
	}
	return dist
}

// components is the oracle's components: one hybrid walk per component over
// the symmetric undirected view, one epoch shared by all of them, so the
// dense mode's visited bitset excludes nodes claimed by earlier components.
func (h *hybridBFS) components() [][]NodeID {
	c := h.c
	sc := getTrav(c.n)
	defer putTrav(sc)
	depth := grow(&sc.depths, c.n)
	var comps [][]NodeID
	for s := 0; s < c.n; s++ {
		if sc.seen(int32(s)) {
			continue
		}
		members := make([]NodeID, 0, 8)
		h.from(int32(s), sc, c.uoffsets, c.utargets, c.uoffsets, c.utargets, depth, &members)
		slices.Sort(members)
		comps = append(comps, members)
	}
	return comps
}

// bfsSnapshot runs one eccentricity BFS variant and captures its full
// observable state: the returned eccentricity plus per-node (reached, depth).
func bfsSnapshot(c *CSR, src int32, sc *travScratch, ecc func(int32, *travScratch) int32) (int32, []int32) {
	e := ecc(src, sc)
	depth := make([]int32, c.n)
	for i := 0; i < c.n; i++ {
		if sc.seen(int32(i)) {
			depth[i] = sc.depths[i]
		} else {
			depth[i] = -1
		}
	}
	return e, depth
}

// TestHybridBFSMatchesQueue pins the production queue loop to the hybrid
// (queue/bitset) oracle it replaced: identical eccentricity, reached set,
// and per-node depths from every source, on both the small parity fixtures
// and the dense fixtures that trip the oracle's promotion (and demotion).
func TestHybridBFSMatchesQueue(t *testing.T) {
	for name, g := range frontierFixtures(t) {
		c := g.Freeze()
		h := newHybridBFS(c)
		sc := getTrav(c.n)
		for src := 0; src < c.n; src++ {
			wantE, wantD := bfsSnapshot(c, int32(src), sc, h.ecc)
			gotE, gotD := bfsSnapshot(c, int32(src), sc, c.eccFrom)
			if gotE != wantE {
				t.Fatalf("%s: eccFrom(%d) = %d, hybrid oracle %d", name, src, gotE, wantE)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("%s: queue BFS depths from %d diverge from hybrid oracle", name, src)
			}
		}
		putTrav(sc)
	}
}

// TestShortestPathLengthsDense checks the queue walk's hop counts on every
// parity and dense fixture against the hybrid oracle and the naive
// slice-based BFS.
func TestShortestPathLengthsDense(t *testing.T) {
	for name, g := range frontierFixtures(t) {
		n := len(g.Nodes())
		if n == 0 {
			continue
		}
		h := newHybridBFS(g.Freeze())
		for _, src := range []NodeID{0, NodeID(n / 2), NodeID(n - 1)} {
			want := make([]int, n)
			for i := range want {
				want[i] = -1
			}
			naiveBFS(g, src, func(id NodeID, d int) bool { want[id] = d; return true })
			got := g.ShortestPathLengths(src)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ShortestPathLengths(%d) diverges from naive BFS", name, src)
			}
			if hyb := h.pathLengths(src); !reflect.DeepEqual(got, hyb) {
				t.Fatalf("%s: ShortestPathLengths(%d) diverges from hybrid oracle", name, src)
			}
		}
	}
}

// TestConnectedComponentsDense checks component extraction on every parity
// and dense fixture against the hybrid oracle and the naive one — including
// a disjoint union of two dense blobs, where the shared traversal epoch must
// keep the second component's walk from rediscovering the first.
func TestConnectedComponentsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fixtures := frontierFixtures(t)
	u, err := DisjointUnion(ErdosRenyi(200, 0.2, rng), ErdosRenyi(150, 0.25, rng))
	if err != nil {
		t.Fatal(err)
	}
	u.AddNode("iso")
	fixtures["dense_union"] = u
	for name, g := range fixtures {
		got := g.ConnectedComponents()
		if want := naiveConnectedComponents(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ConnectedComponents diverges from naive (got %d comps, want %d)", name, len(got), len(want))
		}
		if want := newHybridBFS(g.Freeze()).components(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ConnectedComponents diverges from hybrid oracle (got %d comps, want %d)", name, len(got), len(want))
		}
	}
}

// TestEccentricitiesDense runs the public all-source API on every parity and
// dense fixture against the hybrid oracle, and on er_dense against the naive
// one too.
func TestEccentricitiesDense(t *testing.T) {
	for name, g := range frontierFixtures(t) {
		ecc, radius, diameter := Eccentricities(g)
		wantEcc, wantR, wantD := newHybridBFS(g.Freeze()).eccentricities()
		if !reflect.DeepEqual(ecc, wantEcc) || radius != wantR || diameter != wantD {
			t.Fatalf("%s: Eccentricities diverges from hybrid oracle: r=%d/%d d=%d/%d", name, radius, wantR, diameter, wantD)
		}
	}
	g := denseFixtures(t)["er_dense"]
	ecc, radius, diameter := Eccentricities(g)
	wantEcc, wantR, wantD := naiveEccentricities(g)
	if !reflect.DeepEqual(ecc, wantEcc) || radius != wantR || diameter != wantD {
		t.Fatalf("Eccentricities diverges from naive: r=%d/%d d=%d/%d", radius, wantR, diameter, wantD)
	}
}
