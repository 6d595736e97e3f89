// Package seq implements the graph sequentializer of the paper's §II-B: it
// decomposes a graph into sequences an LLM can consume. Two mechanisms are
// combined:
//
//  1. A length-constrained path cover — for every node u, paths starting at
//     u of length at most l that cover the subgraph within l hops of u
//     (following the cited prior work on localized pattern queries). Paths
//     are the root-to-leaf paths of the BFS tree rooted at u, so the per-node
//     path count is bounded by the size of u's l-hop neighborhood and the
//     total is O(|G|²·l) rather than the exponential count of all simple
//     paths.
//
//  2. A motif super-graph (following RUM, ICDE 2019) — triangles are merged
//     into motif super-nodes and the induced super-graph is sequentialized
//     the same way, giving the LLM a second, coarser level that exposes
//     multi-level structure (communities, protein tertiary structure, ...).
//
// One array-based BFS-tree kernel (bfsTree) builds every tree, and it has two
// consumers. Sequentialize and PathCover materialise every leaf: the whole
// cover, for callers that analyse it. SequentializeHead serves the prompt
// builder, which prints a few dozen lines of a cover that is tens of
// thousands of paths on a 200-node graph: it materialises only the first
// paths and counts the leaves of every remaining root without building
// them — over the graph's adjacency bit rows (graph.CSR.OutBitRows) when it
// is dense enough to have them. Bounded keeps two things exact — the head is the full cover's prefix
// (same paths, same order) and NumPaths/NumSuperPaths are the full cover's
// sizes — so the "... (N more paths)" line, and with it the prompt, is
// byte-identical to rendering the whole cover and truncating.
package seq

import (
	"math/bits"
	"strconv"
	"strings"
	"sync"

	"chatgraph/internal/graph"
)

// Path is one node sequence extracted from the graph.
type Path []graph.NodeID

// Options configures sequentialization.
type Options struct {
	// MaxLength is l, the maximum number of edges per path (and the hop
	// radius each node's paths must cover). Zero means the default 3.
	MaxLength int
	// Levels selects how many structure levels to emit: 1 = paths only,
	// 2 = paths plus motif super-graph paths. Zero means 2.
	Levels int
}

func (o *Options) setDefaults() {
	if o.MaxLength <= 0 {
		o.MaxLength = 3
	}
	if o.Levels <= 0 {
		o.Levels = 2
	}
}

// Result carries the sequentializer output for one graph.
type Result struct {
	// Paths is the level-0 length-constrained path cover.
	Paths []Path
	// SuperPaths is the level-1 path cover over the motif super-graph
	// (empty when Levels < 2 or the graph has no motifs to merge).
	SuperPaths []Path
	// Super is the motif super-graph itself.
	Super *graph.Graph
	// NumPaths and NumSuperPaths are the sizes of the whole covers. They
	// exceed len(Paths) and len(SuperPaths) only in a SequentializeHead
	// result, whose slices hold the printed heads.
	NumPaths, NumSuperPaths int
}

// Sequentialize decomposes g according to opts, materialising every path.
func Sequentialize(g *graph.Graph, opts Options) Result {
	return sequentialize(g, opts, -1, -1)
}

// SequentializeHead is Sequentialize for a consumer that prints at most
// maxPaths level-0 and maxSuperPaths level-1 paths: Paths and SuperPaths hold
// only those heads of the covers (the same paths, in the same order, as the
// full result's prefixes) while NumPaths and NumSuperPaths stay exact.
func SequentializeHead(g *graph.Graph, opts Options, maxPaths, maxSuperPaths int) Result {
	return sequentialize(g, opts, max(maxPaths, 0), max(maxSuperPaths, 0))
}

func sequentialize(g *graph.Graph, opts Options, limit, superLimit int) Result {
	opts.setDefaults()
	var res Result
	res.Paths, res.NumPaths = cover(g, opts.MaxLength, limit)
	if opts.Levels >= 2 && g.NumNodes() > 0 {
		res.Super, _ = SuperGraph(g)
		// Only sequentialize the super level when it actually coarsens the
		// graph; otherwise it duplicates level 0.
		if res.Super.NumNodes() < g.NumNodes() {
			res.SuperPaths, res.NumSuperPaths = cover(res.Super, opts.MaxLength, superLimit)
		}
	}
	return res
}

// cover walks the BFS tree of every node in ID order. It returns the first
// limit paths of the cover (all of them when limit < 0) and the size of the
// whole cover. Roots whose leaves reach the output are built by the list
// kernel, which records the parent and depth appendPaths needs; every root
// after that — all of them in a sizing pass — is only counted, over the
// graph's adjacency bit rows when it has them.
func cover(g *graph.Graph, l, limit int) (paths []Path, total int) {
	if limit < 0 {
		// A counting pass sizes the output exactly, which is cheaper than
		// regrowing a slice of slice headers.
		if _, limit = cover(g, l, 0); limit > 0 {
			paths = make([]Path, 0, limit)
		}
	}
	c := g.Freeze()
	n := c.NumNodes()
	t := leaseTree(n)
	defer treePool.Put(t)
	u := 0
	for ; u < n && len(paths) < limit; u++ {
		leaves := t.build(c, int32(u), l)
		total += leaves
		paths = t.appendPaths(paths, min(leaves, limit-len(paths)))
	}
	if u == n {
		return paths, total
	}
	var words int
	t.rows, words = c.OutBitRows(t.rows)
	for ; u < n; u++ {
		if words > 0 {
			total += t.countLeaves(t.rows, words, n, int32(u), l)
		} else {
			total += t.build(c, int32(u), l)
		}
	}
	return paths, total
}

// bfsTree is the one BFS-tree implementation behind every path cover: the
// radius-l tree of the current root in flat arrays indexed by node, stamped
// with an epoch so moving to the next root costs O(1) instead of a clear.
// Instances recycle through treePool (the graph.travScratch pattern), so
// concurrent covers over one shared frozen graph each lease their own.
type bfsTree struct {
	// stamp[v] == epoch marks v as in the current root's tree; parent, depth
	// and kids (child count) are valid only for stamped nodes.
	stamp  []uint32
	epoch  uint32
	parent []int32
	depth  []int32
	kids   []int32
	// order lists the tree's nodes in BFS order (the queue, kept whole).
	order []int32
	// rows and vis back the count-only roots: the graph's adjacency bit rows,
	// filled once per cover, and the current root's visited set.
	rows, vis []uint64
}

var treePool = sync.Pool{New: func() any { return new(bfsTree) }}

func leaseTree(n int) *bfsTree {
	t := treePool.Get().(*bfsTree)
	if cap(t.stamp) < n {
		t.stamp = make([]uint32, n)
		t.epoch = 0
		t.parent = make([]int32, n)
		t.depth = make([]int32, n)
		t.kids = make([]int32, n)
	}
	return t
}

// build grows the tree of radius l rooted at root over the forward adjacency
// (neighbors ascending, first discoverer is the parent) and returns its leaf
// count — the number of root-to-leaf paths. A lone root is its own leaf.
func (t *bfsTree) build(c *graph.CSR, root int32, l int) int {
	t.epoch++
	if t.epoch == 0 { // wrapped: stale stamps could collide, so really clear
		clear(t.stamp)
		t.epoch = 1
	}
	stamp, n := t.stamp, c.NumNodes()
	q := append(t.order[:0], root)
	stamp[root] = t.epoch
	t.depth[root], t.kids[root] = 0, 0
	internal := 0
	// Once every node is in the tree no scan can add a child: stop early.
	for head := 0; head < len(q) && len(q) < n; head++ {
		u := q[head]
		d := t.depth[u]
		if int(d) >= l {
			break // BFS order: everything still queued sits on the rim too
		}
		for _, v := range c.OutNeighbors(graph.NodeID(u)) {
			if stamp[v] == t.epoch {
				continue
			}
			stamp[v] = t.epoch
			t.parent[v], t.depth[v], t.kids[v] = u, d+1, 0
			if t.kids[u] == 0 {
				internal++
			}
			t.kids[u]++
			q = append(q, int32(v))
		}
	}
	t.order = q
	return len(q) - internal
}

// countLeaves returns what build would for root — the leaf count of the same
// first-discoverer tree — from the adjacency bit rows, recording no tree. A
// node's children are row[u] &^ visited, claimed word by word; their bits
// are extracted (ascending, so the queue keeps neighbour order) only on
// levels that will be expanded again, and on the last level, where most of a
// tree's nodes sit, merely counted.
func (t *bfsTree) countLeaves(rows []uint64, words, n int, root int32, l int) int {
	if cap(t.vis) < words {
		t.vis = make([]uint64, words)
	}
	vis := t.vis[:words]
	clear(vis)
	vis[root>>6] = 1 << (uint(root) & 63)
	q := append(t.order[:0], root)
	size, internal := 1, 0
	for lo, d := 0, 0; d < l && size < n && lo < len(q); d++ {
		hi := len(q)
		rim := d+1 == l
		for _, u := range q[lo:hi] {
			found := size
			for w, x := range rows[int(u)*words:][:words] {
				x &^= vis[w]
				if x == 0 {
					continue
				}
				vis[w] |= x
				size += bits.OnesCount64(x)
				for ; !rim && x != 0; x &= x - 1 {
					q = append(q, int32(w<<6+bits.TrailingZeros64(x)))
				}
			}
			if size > found {
				internal++
				if size == n {
					break // every node is in the tree: no later scan adds a child
				}
			}
		}
		lo = hi
	}
	t.order = q
	return size - internal
}

// appendPaths materialises the first k leaves of the current tree, in BFS
// order, as root-to-leaf paths carved out of one backing array.
func (t *bfsTree) appendPaths(paths []Path, k int) []Path {
	if k <= 0 {
		return paths
	}
	size, last := 0, 0
	for found := 0; found < k; last++ {
		if v := t.order[last]; t.kids[v] == 0 {
			size += int(t.depth[v]) + 1
			found++
		}
	}
	slab := make([]graph.NodeID, size)
	for _, v := range t.order[:last] {
		if t.kids[v] != 0 {
			continue
		}
		n := int(t.depth[v]) + 1
		p := slab[:n:n]
		slab = slab[n:]
		for i := n - 1; i >= 0; i-- {
			p[i] = graph.NodeID(v)
			v = t.parent[v]
		}
		paths = append(paths, p)
	}
	return paths
}

// renderPath writes one path as the token sequence fed to the LLM, e.g.
// "v0[C] - v3[O] - v4[N]". Labels are included when present because they
// carry the semantics (element symbols, entity names).
func renderPath(b *strings.Builder, g *graph.Graph, p Path) {
	var num [20]byte
	for i, id := range p {
		if i > 0 {
			b.WriteString(" - ")
		}
		b.WriteByte('v')
		b.Write(strconv.AppendInt(num[:0], int64(id), 10))
		if label := g.Node(id).Label; label != "" {
			b.WriteByte('[')
			b.WriteString(label)
			b.WriteByte(']')
		}
	}
}

// RenderAll renders every path, one per line, capped at maxLines (≤ 0 means
// no cap) with a trailing elision marker when truncated.
func RenderAll(g *graph.Graph, ps []Path, maxLines int) string {
	head := ps
	if maxLines > 0 && len(ps) > maxLines {
		head = ps[:maxLines]
	}
	var b strings.Builder
	RenderHead(&b, g, head, len(ps))
	return b.String()
}

// RenderHead appends head to b, one path per line, then the elision marker
// for the total-len(head) paths of the cover that head leaves out. This is
// the exact text block the prompt builder injects.
func RenderHead(b *strings.Builder, g *graph.Graph, head []Path, total int) {
	for _, p := range head {
		renderPath(b, g, p)
		b.WriteByte('\n')
	}
	if total > len(head) {
		var num [20]byte
		b.WriteString("... (")
		b.Write(strconv.AppendInt(num[:0], int64(total-len(head)), 10))
		b.WriteString(" more paths)\n")
	}
}
