package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// denseFixtures are graphs whose BFS frontiers actually cross the hybrid
// traversal's promotion threshold (max(n/16, 64) nodes), so the bottom-up
// bitset mode — which the small parity fixtures never reach — is exercised
// for real: dense Erdős–Rényi, a planted-community graph, a directed dense
// graph (probing the reverse adjacency bottom-up), a star (instant
// promotion), and a dense core with a long path tail (promotion followed by
// demotion back to the queue).
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

	// Dense core with a 150-node path tail: the traversal promotes inside
	// the core, then the frontier collapses to one node per level along the
	// tail — forcing a demotion back to the top-down queue.
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

// TestHybridBFSMatchesQueue pins the hybrid (queue/bitset) BFS to the pure
// queue implementation it replaced: identical eccentricity, reached set, and
// per-node depths from every source, on both the small parity fixtures and
// the dense fixtures that actually trip promotion (and demotion).
func TestHybridBFSMatchesQueue(t *testing.T) {
	fixtures := parityFixtures(t)
	for name, g := range denseFixtures(t) {
		fixtures[name] = g
	}
	for name, g := range fixtures {
		c := g.Freeze()
		sc := getTrav(c.n)
		for src := 0; src < c.n; src++ {
			wantE, wantD := bfsSnapshot(c, int32(src), sc, c.eccFromQueue)
			gotE, gotD := bfsSnapshot(c, int32(src), sc, c.eccFrom)
			if gotE != wantE {
				t.Fatalf("%s: eccFrom(%d) = %d, queue oracle %d", name, src, gotE, wantE)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("%s: hybrid BFS depths from %d diverge from queue oracle", name, src)
			}
		}
		putTrav(sc)
	}
}

// TestShortestPathLengthsDense checks the public hop-count API on graphs that
// reach dense mode, against the naive slice-based BFS.
func TestShortestPathLengthsDense(t *testing.T) {
	for name, g := range denseFixtures(t) {
		n := len(g.Nodes())
		for _, src := range []NodeID{0, NodeID(n / 2), NodeID(n - 1)} {
			want := make([]int, n)
			for i := range want {
				want[i] = -1
			}
			naiveBFS(g, src, func(id NodeID, d int) bool { want[id] = d; return true })
			if got := g.ShortestPathLengths(src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ShortestPathLengths(%d) diverges from naive BFS", name, src)
			}
		}
	}
}

// TestConnectedComponentsDense checks component extraction on dense graphs —
// including a disjoint union of two dense blobs, where the shared traversal
// epoch must keep the second component's bottom-up sweep from rediscovering
// the first.
func TestConnectedComponentsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fixtures := denseFixtures(t)
	u, err := DisjointUnion(ErdosRenyi(200, 0.2, rng), ErdosRenyi(150, 0.25, rng))
	if err != nil {
		t.Fatal(err)
	}
	u.AddNode("iso")
	fixtures["dense_union"] = u
	for name, g := range fixtures {
		if got, want := g.ConnectedComponents(), naiveConnectedComponents(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ConnectedComponents diverges from naive (got %d comps, want %d)", name, len(got), len(want))
		}
	}
}

// TestEccentricitiesDense runs the public all-source API (eccFrom from
// every source) on a dense fixture against the naive oracle.
func TestEccentricitiesDense(t *testing.T) {
	g := denseFixtures(t)["er_dense"]
	ecc, radius, diameter := Eccentricities(g)
	wantEcc, wantR, wantD := naiveEccentricities(g)
	if !reflect.DeepEqual(ecc, wantEcc) || radius != wantR || diameter != wantD {
		t.Fatalf("Eccentricities diverges from naive: r=%d/%d d=%d/%d", radius, wantR, diameter, wantD)
	}
}

// eccFromQueue is the pure queue-frontier eccentricity BFS the hybrid
// replaced, kept as the parity oracle and benchmark baseline for bfsFrom.
func (c *CSR) eccFromQueue(src int32, sc *travScratch) int32 {
	sc.nextEpoch()
	depth := sc.ints(c.n)
	q := sc.queue[:0]
	defer func() { sc.queue = q[:0] }()
	q = append(q, src)
	sc.mark(src)
	depth[src] = 0
	var max int32
	for head := 0; head < len(q); head++ {
		u := q[head]
		d := depth[u]
		if d > max {
			max = d
		}
		for _, v := range c.targets[c.offsets[u]:c.offsets[u+1]] {
			if !sc.seen(int32(v)) {
				sc.mark(int32(v))
				depth[v] = d + 1
				q = append(q, int32(v))
			}
		}
	}
	return max
}
