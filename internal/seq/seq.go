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
// Every tree is one radius-l walk of internal/graph's queue BFS (a
// graph.Walker), its leaves counted off the recorded parents.
// Sequentialize and PathCover materialise every leaf: the whole cover, for
// callers that analyse it. SequentializeHead serves the prompt builder, which
// prints a few dozen lines of a cover that is tens of thousands of paths on a
// 200-node graph: it materialises only the first paths, and builds every
// remaining root's tree only to count its leaves. Bounded keeps two things
// exact — the head is the full cover's prefix (same paths, same order) and
// NumPaths/NumSuperPaths are the full cover's sizes — so the
// "... (N more paths)" line, and with it the prompt, is byte-identical to
// rendering the whole cover and truncating.
package seq

import (
	"math"
	"strconv"
	"strings"

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

// cover walks the radius-l BFS tree of every node in ID order, all on one
// graph.Walker lease. It returns the first limit paths of the cover (all of
// them when limit < 0) and the size of the whole cover.
func cover(g *graph.Graph, l, limit int) (paths []Path, total int) {
	if limit < 0 {
		limit = math.MaxInt
	}
	c := g.Freeze()
	w := c.Walker()
	defer w.Release()
	var leafBuf []int32
	for u := range c.NumNodes() {
		order, depth, parent := w.Tree(graph.NodeID(u), l)
		leaves := countLeaves(order, parent)
		total += leaves
		if k := min(leaves, limit-len(paths)); k > 0 {
			paths, leafBuf = appendPaths(paths, k, order, depth, parent, leafBuf)
		}
	}
	return paths, total
}

// countLeaves counts a tree's leaves, its nodes that are nobody's parent (a
// lone root is its own leaf). The walk queues a node's children together
// while it expands it, so the parents along order[1:] come in runs, one per
// internal node.
func countLeaves(order, parent []int32) int {
	leaves, prev := len(order), int32(-1)
	for _, v := range order[1:] {
		p := parent[v]
		if p != prev {
			leaves--
		}
		prev = p
	}
	return leaves
}

// appendPaths materialises the first k leaves of one tree, in BFS order, as
// root-to-leaf paths carved out of one backing array. The runs of parents
// along order[1:] come in the order of the nodes they belong to, so one
// cursor over them tells each node in turn whether it has children. buf is
// scratch for the leaves; appendPaths returns it grown.
func appendPaths(paths []Path, k int, order, depth, parent, buf []int32) ([]Path, []int32) {
	leaves, size, next := buf[:0], 0, 1
	for _, v := range order {
		run := next
		for next < len(order) && parent[order[next]] == v {
			next++
		}
		if next > run {
			continue // v's children: v is no leaf
		}
		leaves = append(leaves, v)
		size += int(depth[v]) + 1
		if len(leaves) == k {
			break
		}
	}
	slab := make([]graph.NodeID, size)
	for _, v := range leaves {
		n := int(depth[v]) + 1
		p := slab[:n:n]
		slab = slab[n:]
		for i := n - 1; i >= 0; i-- {
			p[i] = graph.NodeID(v)
			v = parent[v]
		}
		paths = append(paths, p)
	}
	return paths, leaves
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
