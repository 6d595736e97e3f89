package graph

// Adjacency bit rows are the frozen graph's word-parallel view: row u is an
// n-bit set, ⌈n/64⌉ words, with bit v set iff v is in u's neighbour list.
// The kernels that only ask "which neighbours of u are also in this set"
// — the path cover's leaf count (seq.cover), the motif merge
// (seq.SuperGraph), the triangle statistics (countTriangles) — then answer 64
// neighbours per AND instead of one per comparison. Rows are filled into a
// buffer the caller leases from its own pooled scratch and are never stored
// on the CSR, so an interned graph retains nothing for them.

// bitRowMinFill decides when a view gets bit rows: when its neighbour lists
// hold at least bitRowMinFill entries per word of the matrix, i.e. the mean
// degree is at least ⌈n/64⌉. A kernel pays a whole row of words per node it
// touches however few bits are set, where the lists pay one comparison per
// neighbour, so the rule is the crossover itself, whatever n is. One
// count-only path cover at l = 3, median µs at -cpu 1 (seq's
// BenchmarkCoverCount; fill = list entries ÷ matrix words):
//
//	shape           n     words  fill   lists   bit rows
//	er300_fill0.5   300   5      0.5       31       80
//	kg300           300   5      0.6       39      111   the one bench shape on the list side
//	er300_fill1     300   5      1.0      326      334
//	kg300_super     201   4      1.6      410      241
//	er300_fill2     300   5      2.0     1660      940
//	mol30           30    1      2.1      2.5      2.3
//	sbm4x50         200   4      4.5     1045      420
//	n1000_sparse    1000  16     0.25    1882     2065
//	n2000_sparse    2000  32     0.12    5068     9217
//	n4000_sparse    4000  63     0.06   10412    29711
//
// Triangle counting and the motif merge intersect two rows per edge, where
// the lists merge two neighbour lists, and cross lower; one rule for all
// three errs towards the lists. The rule also bounds the scratch: a matrix
// that qualifies has no more words than the view's target array has entries,
// so there is no separate bound on n. seq's TestBenchShapesUseBitRows pins
// which side each of the benchmark workloads' uploads falls on.
const bitRowMinFill = 1

// bitRowsPay reports whether an n-node view whose neighbour lists hold
// entries targets is dense enough for bit rows.
func bitRowsPay(n, entries int) bool {
	return entries >= bitRowMinFill*n*((n+63)>>6)
}

// OutBitRows fills buf (grown if it is too small) with the bit rows of the
// forward adjacency — OutNeighbors as sets, parallel edges collapsed — and
// returns it with the row width: row u is rows[u*words : (u+1)*words]. words
// is 0, and buf comes back as it was, when the graph is too sparse for bit
// rows to pay (or has no nodes): callers then walk the neighbour lists.
func (c *CSR) OutBitRows(buf []uint64) (rows []uint64, words int) {
	if !bitRowsPay(c.n, len(c.targets)) {
		return buf, 0
	}
	return fillBitRows(buf, c.n, c.offsets, c.targets)
}

// UndirectedBitRows is OutBitRows over the undirected view
// (UndirectedNeighbors as sets).
func (c *CSR) UndirectedBitRows(buf []uint64) (rows []uint64, words int) {
	if !bitRowsPay(c.n, len(c.utargets)) {
		return buf, 0
	}
	return fillBitRows(buf, c.n, c.uoffsets, c.utargets)
}

func fillBitRows(buf []uint64, n int, off []int32, tgt []NodeID) ([]uint64, int) {
	words := (n + 63) >> 6
	if cap(buf) < n*words {
		buf = make([]uint64, n*words)
	}
	buf = buf[:n*words]
	clear(buf)
	for u := 0; u < n; u++ {
		row := buf[u*words:][:words]
		for _, v := range tgt[off[u]:off[u+1]] {
			row[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	return buf, words
}
