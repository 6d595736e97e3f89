package ann

import "chatgraph/internal/vecmath"

// QuantConfig gates the two-stage quantized search path of the two indexes
// retrieval can build, BruteForce and TauMG: stage 1 ranks candidates with
// int8 kernels over a vecmath.QuantizedMatrix (¼ the scanned bytes of the
// f32 store), stage 2 reranks the RerankFactor·k best quantized candidates
// exactly against the retained f32 Matrix. The f32 matrix stays resident
// (rerank needs it), so the ÷4 applies to the tier every candidate touches,
// not total RSS.
type QuantConfig struct {
	// Enabled turns the quantized tier on.
	Enabled bool
	// RerankFactor is the stage-1 over-fetch multiple: the quantized scan
	// keeps RerankFactor·k candidates for the exact rerank
	// (0 → DefaultRerankFactor). Higher factors buy recall with more f32
	// distance computations.
	RerankFactor int
}

// DefaultRerankFactor is the over-fetch multiple used when
// QuantConfig.RerankFactor is 0. At 4 the rerank touches 4·k f32 rows —
// recall@10 holds ≥ 0.95 on the package's random and clustered fixtures.
const DefaultRerankFactor = 4

// quantStore is the per-index quantized tier: the int8 view of the index's
// matrix plus the resolved rerank factor. A zero quantStore means the f32
// path.
type quantStore struct {
	qmat   *vecmath.QuantizedMatrix
	rerank int
}

func newQuantStore(m *vecmath.Matrix, cfg QuantConfig) quantStore {
	if !cfg.Enabled || m.Rows() == 0 {
		return quantStore{}
	}
	f := cfg.RerankFactor
	if f <= 0 {
		f = DefaultRerankFactor
	}
	return quantStore{qmat: vecmath.Quantize(m), rerank: f}
}

// overfetch resolves the stage-1 candidate count for a top-k query over n
// rows (1 ≤ k ≤ n): rerank·k saturating at n. The product is never formed
// past n, so an absurd rerank factor degrades to an exact scan instead of
// overflowing into a negative heap bound.
func (qs *quantStore) overfetch(k, n int) int {
	if qs.rerank > n/k {
		return n
	}
	return k * qs.rerank
}

// source opens a two-stage search over mat for query q: it returns the
// distance source stage 1 ranks with and m, the number of candidates
// stage 1 must keep — k on the f32 path, rerank·k (≤ n) on the int8 path,
// where q is also quantized into the scratch. finish closes the search.
func (qs *quantStore) source(mat *vecmath.Matrix, q []float32, k int, sc *searchScratch) (distSource, int) {
	src := distSource{mat: mat, q: q, qn: vecmath.SquaredNorm(q)}
	if qs.qmat == nil {
		return src, k
	}
	qs.qmat.QuantizeQuery(q, &sc.qq)
	src.qmat, src.qq = qs.qmat, &sc.qq
	return src, qs.overfetch(k, mat.Rows())
}

// finish turns stage 1's candidates in sc.best into the sorted top-k. On
// the f32 path that is a drain; on the int8 path the candidates are trimmed
// to the m best by quantized distance and stage 2 recomputes their exact
// f32 distances. Candidates stage through sc.frontier — idle once routing
// or scanning is over — so the rerank allocates nothing beyond the result
// slice.
func (s *distSource) finish(sc *searchScratch, k, m int, stats *SearchStats) []Result {
	if s.qmat == nil {
		return drainSorted(&sc.best, k)
	}
	for len(sc.best) > m {
		maxPop(&sc.best)
	}
	cands := append(sc.frontier[:0], sc.best...)
	sc.best = sc.best[:0]
	for _, c := range cands {
		boundedInsert(&sc.best, Result{ID: c.ID, Dist: s.mat.L2SquaredTo(s.q, s.qn, c.ID)}, k)
	}
	stats.DistComps += len(cands)
	sc.frontier = cands[:0]
	return drainSorted(&sc.best, k)
}
