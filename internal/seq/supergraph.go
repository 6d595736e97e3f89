package seq

import (
	"slices"
	"strconv"

	"chatgraph/internal/graph"
)

// SuperGraph computes the motif super-graph of g in the style of RUM:
// triangle motifs that share an edge are merged into one super-node, every
// remaining node becomes a singleton super-node, and super-nodes are joined
// when any original edge crosses between their member sets. The returned
// members slice maps each super-node to its original nodes.
//
// Triangles are the motif family used here because they are the smallest
// non-trivial motif, cheap to enumerate, and dense regions (communities,
// rings) collapse into single super-nodes — exactly the multi-level signal
// the sequentializer wants to expose.
func SuperGraph(g *graph.Graph) (*graph.Graph, [][]graph.NodeID) {
	c := g.Freeze()
	t := treePool.Get().(*bfsTree) // for its bit-row buffer, as cover uses it
	var words int
	t.rows, words = c.UndirectedBitRows(t.rows)
	members, superOf := motifSets(c, t.rows, words)
	treePool.Put(t)
	// Cross edges between distinct super-nodes, one per pair: packed
	// (low, high) keys, sorted so duplicates are adjacent.
	var cross []uint64
	for _, e := range g.Edges() {
		a, b := superOf[e.From], superOf[e.To]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		cross = append(cross, uint64(a)<<32|uint64(b))
	}
	slices.Sort(cross)
	cross = slices.Compact(cross)
	super := graph.New()
	super.Name = g.Name + "_super"
	super.Grow(len(members), len(cross))
	for _, ms := range members {
		super.AddNode(superLabel(g, ms))
	}
	for _, k := range cross {
		super.AddEdge(graph.NodeID(k>>32), graph.NodeID(uint32(k))) //nolint:errcheck // endpoints valid by construction
	}
	return super, members
}

// motifSets partitions the nodes into motif sets — the connected components
// of the edges that lie on a triangle — and returns each set's members and
// each node's set. Given the undirected adjacency bit rows (words > 0) an
// edge {u, v} lies on a triangle iff row[u] & row[v] ≠ 0; without them the
// sorted neighbour lists of u and v are merge-intersected for a w > v, which
// finds every triangle u < v < w once. Either way all three corners of every
// triangle end up in one set.
func motifSets(c *graph.CSR, rows []uint64, words int) (members [][]graph.NodeID, setOf []graph.NodeID) {
	n := c.NumNodes()
	uf := newUnionFind(n)
	for u := 0; u < n; u++ {
		row := c.UndirectedNeighbors(graph.NodeID(u))
		for i, v := range row {
			if int(v) <= u || i > 0 && row[i-1] == v {
				continue
			}
			if words > 0 {
				ru, rv := rows[u*words:][:words], rows[int(v)*words:][:words]
				for w, x := range ru {
					if x&rv[w] != 0 {
						uf.union(u, int(v))
						break
					}
				}
				continue
			}
			a, b := row[i+1:], c.UndirectedNeighbors(v)
			for len(a) > 0 && len(b) > 0 {
				switch {
				case a[0] < b[0]:
					a = a[1:]
				case a[0] > b[0]:
					b = b[1:]
				default:
					if a[0] > v {
						uf.union(u, int(v))
						uf.union(u, int(a[0]))
					}
					a, b = a[1:], b[1:]
				}
			}
		}
	}
	// One set per union-find root, numbered by smallest member so output is
	// deterministic; the ascending scan keeps member lists sorted. setOf[r]
	// is set for a root r as soon as its first member is seen.
	setOf = make([]graph.NodeID, n)
	for i := range setOf {
		setOf[i] = -1
	}
	for i := 0; i < n; i++ {
		r := uf.find(i)
		if setOf[r] < 0 {
			setOf[r] = graph.NodeID(len(members))
			members = append(members, nil)
		}
		setOf[i] = setOf[r]
		members[setOf[i]] = append(members[setOf[i]], graph.NodeID(i))
	}
	return members, setOf
}

// superLabel names a super-node after its dominant member label, prefixed
// with "motif:" when it merges several nodes.
func superLabel(g *graph.Graph, ms []graph.NodeID) string {
	if len(ms) == 1 {
		return g.Node(ms[0]).Label
	}
	counts := make(map[string]int)
	for _, m := range ms {
		counts[g.Node(m).Label]++
	}
	best, bestCount := "", -1
	for l, c := range counts {
		if c > bestCount || c == bestCount && l < best {
			best, bestCount = l, c
		}
	}
	return "motif:" + best + "*" + strconv.Itoa(len(ms))
}

// unionFind is a standard path-halving union-find over [0, n).
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
