package seq

import (
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
	n := c.NumNodes()
	uf := newUnionFind(n)
	// Merge the three corners of every triangle u < v < w: for each edge
	// {u, v}, a w > v present in both sorted neighbor rows closes one.
	for u := 0; u < n; u++ {
		row := c.UndirectedNeighbors(graph.NodeID(u))
		for i, v := range row {
			if int(v) <= u || i > 0 && row[i-1] == v {
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
	// One super-node per union-find root, numbered by smallest member so
	// output is deterministic; the ascending scan keeps member lists sorted.
	// superOf[r] is set for a root r as soon as its first member is seen.
	superOf := make([]graph.NodeID, n)
	for i := range superOf {
		superOf[i] = -1
	}
	var members [][]graph.NodeID
	for i := 0; i < n; i++ {
		r := uf.find(i)
		if superOf[r] < 0 {
			superOf[r] = graph.NodeID(len(members))
			members = append(members, nil)
		}
		superOf[i] = superOf[r]
		members[superOf[i]] = append(members[superOf[i]], graph.NodeID(i))
	}
	super := graph.New()
	super.Name = g.Name + "_super"
	super.Grow(len(members), 0)
	for _, ms := range members {
		sid := super.AddNode(superLabel(g, ms))
		super.SetNodeAttr(sid, "size", strconv.Itoa(len(ms)))
	}
	// Cross edges between distinct super-nodes, deduplicated.
	seen := make(map[[2]graph.NodeID]bool)
	for _, e := range g.Edges() {
		a, b := superOf[e.From], superOf[e.To]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := [2]graph.NodeID{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		super.AddEdge(a, b) //nolint:errcheck // endpoints valid by construction
	}
	return super, members
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
