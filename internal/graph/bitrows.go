package graph

// Adjacency bit rows are the frozen graph's word-parallel view: row u is an
// n-bit set, ⌈n/64⌉ words, with bit v set iff v is in u's neighbour list.
// One kernel uses them, the triangle statistics (countTriangles): it asks
// "which neighbours of u are also neighbours of v" of every edge, and a
// popcount of row[u] & row[v] answers 64 neighbours per AND instead of one
// per comparison. Rows are filled into the kernel's pooled traversal scratch
// and are never stored on the CSR, so an interned graph retains nothing for
// them.

// bitRowMinFill decides when the undirected view gets bit rows: when its
// neighbour lists hold at least bitRowMinFill entries per word of the matrix,
// i.e. the mean degree is at least ⌈n/64⌉. A kernel pays a whole row of words
// per node it touches however few bits are set, where the lists pay one
// comparison per neighbour, so the rule is the crossover itself, whatever n
// is. The crossover was measured on a kernel since deleted, the path cover's
// count-only leaf walk (one cover at l = 3, median µs at -cpu 1; fill = list
// entries ÷ matrix words):
//
//	shape           n     words  fill   lists   bit rows
//	er300_fill0.5   300   5      0.5       31       80
//	kg300           300   5      0.6       39      111
//	er300_fill1     300   5      1.0      326      334
//	kg300_super     201   4      1.6      410      241
//	er300_fill2     300   5      2.0     1660      940
//	mol30           30    1      2.1      2.5      2.3
//	sbm4x50         200   4      4.5     1045      420
//	n1000_sparse    1000  16     0.25    1882     2065
//	n2000_sparse    2000  32     0.12    5068     9217
//	n4000_sparse    4000  63     0.06   10412    29711
//
// It backs the triangle rule only. Triangle counting intersects two rows per
// edge where the lists merge two neighbour lists, and crosses lower, so the
// rule errs towards the lists there. The rule also bounds the scratch: a
// matrix that qualifies has no more words than the view's target array has
// entries, so there is no separate bound on n. TestBenchShapesUseBitRows pins
// that every benchmark workload's upload falls on the bit-row side.
const bitRowMinFill = 1

// bitRowsPay reports whether an n-node view whose neighbour lists hold
// entries targets is dense enough for bit rows.
func bitRowsPay(n, entries int) bool {
	return entries >= bitRowMinFill*n*((n+63)>>6)
}

// fillBitRows fills buf (grown if it is too small) with the bit rows of the
// view off/tgt, parallel entries collapsed, and returns it with the row
// width: row u is rows[u*words : (u+1)*words].
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
