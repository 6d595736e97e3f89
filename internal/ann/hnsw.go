package ann

import (
	"math"
	"math/rand"

	"chatgraph/internal/vecmath"
)

// HNSW is the hierarchical navigable-small-world baseline: NSW layers
// stacked so upper layers provide exponentially sparser long-range "express
// lanes" into the dense bottom layer. It is the strongest practical ANN
// baseline in the surveys the paper cites, so benchmark E5 includes it next
// to τ-MG.
type HNSW struct {
	mat    *vecmath.Matrix
	layers [][][]int32 // layers[l][node] = neighbors at level l
	levels []int       // levels[node] = highest layer of node
	entry  int
	maxLvl int
	m      int
	beam   int
}

// HNSWConfig tunes construction.
type HNSWConfig struct {
	// M is the per-layer link budget (0 → 16; layer 0 gets 2·M).
	M int
	// EFConstruction is the insert-time beam width (0 → 64).
	EFConstruction int
	// Beam is the default query-time beam width (0 → 64).
	Beam int
	// Seed drives level sampling.
	Seed int64
}

func (c *HNSWConfig) setDefaults() {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EFConstruction <= 0 {
		c.EFConstruction = 64
	}
	if c.Beam <= 0 {
		c.Beam = 64
	}
}

// NewHNSW builds an HNSW index over vecs, copied once into a flat matrix.
func NewHNSW(vecs [][]float32, cfg HNSWConfig) (*HNSW, error) {
	if err := checkVectors(vecs); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(vecs))))
	levelMult := 1 / math.Log(float64(cfg.M))
	h := &HNSW{
		mat:    mustMatrix(vecs),
		levels: make([]int, len(vecs)),
		m:      cfg.M,
		beam:   cfg.Beam,
	}
	for i := range vecs {
		lvl := int(math.Floor(-math.Log(rng.Float64()+1e-12) * levelMult))
		h.levels[i] = lvl
		for lvl >= len(h.layers) {
			h.layers = append(h.layers, make([][]int32, len(vecs)))
		}
		if i == 0 {
			h.entry = 0
			h.maxLvl = lvl
			continue
		}
		h.insert(i, cfg.EFConstruction)
		if lvl > h.maxLvl {
			h.maxLvl = lvl
			h.entry = i
		}
	}
	return h, nil
}

// insert links node i into every layer up to its level.
func (h *HNSW) insert(i, efc int) {
	q := h.mat.Row(i)
	qn := h.mat.SquaredNorm(i)
	cur := h.entry
	// Greedy descent through layers above the node's level.
	for l := h.maxLvl; l > h.levels[i]; l-- {
		cur = h.greedyLayer(q, qn, cur, l)
	}
	sc := getScratch(h.mat.Rows())
	defer putScratch(sc)
	src := distSource{mat: h.mat, q: q, qn: qn}
	var stats SearchStats // required by beamSearch; construction discards it
	// Beam insert on the node's layers, top-down.
	for l := min(h.levels[i], h.maxLvl); l >= 0; l-- {
		beamSearch(&src, h.layers[l], cur, efc, sc, &stats)
		cands := drainSorted(&sc.best, efc)
		budget := h.m
		if l == 0 {
			budget = 2 * h.m
		}
		if len(cands) > budget {
			cands = cands[:budget]
		}
		for _, c := range cands {
			h.layers[l][i] = append(h.layers[l][i], int32(c.ID))
			h.layers[l][c.ID] = append(h.layers[l][c.ID], int32(i))
			// Prune over-budget reverse lists, keeping the closest.
			if len(h.layers[l][c.ID]) > budget*2 {
				h.pruneNeighbors(c.ID, l, budget*2)
			}
		}
		if len(cands) > 0 {
			cur = cands[0].ID
		}
	}
}

// pruneNeighbors keeps node u's `keep` nearest links at layer l. Squared
// distances suffice: only the ordering matters.
func (h *HNSW) pruneNeighbors(u, l, keep int) {
	nbs := h.layers[l][u]
	rs := make([]Result, len(nbs))
	for i, v := range nbs {
		rs[i] = Result{ID: int(v), Dist: h.mat.L2SquaredRows(u, int(v))}
	}
	sortResults(rs)
	if keep > len(rs) {
		keep = len(rs)
	}
	out := make([]int32, keep)
	for i := 0; i < keep; i++ {
		out[i] = int32(rs[i].ID)
	}
	h.layers[l][u] = out
}

// greedyLayer walks greedily toward q within one layer, comparing squared
// distances against the precomputed norms.
func (h *HNSW) greedyLayer(q []float32, qn float32, start, l int) int {
	cur := start
	curDist := h.mat.L2SquaredTo(q, qn, cur)
	for {
		improved := false
		for _, nb := range h.layers[l][cur] {
			if d := h.mat.L2SquaredTo(q, qn, int(nb)); d < curDist {
				cur, curDist = int(nb), d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// Len implements Index.
func (h *HNSW) Len() int { return h.mat.Rows() }

// Search implements Index.
func (h *HNSW) Search(q []float32, k int) []Result {
	rs, _ := h.SearchWithStats(q, k)
	return rs
}

// SearchWithStats implements Index: greedy descent through the upper
// layers, then a beam search on layer 0, all over pooled scratch state.
func (h *HNSW) SearchWithStats(q []float32, k int) ([]Result, SearchStats) {
	var stats SearchStats
	if h.mat.Rows() == 0 || k <= 0 {
		return nil, stats
	}
	ef := h.beam
	if ef < k {
		ef = k
	}
	qn := vecmath.SquaredNorm(q)
	cur := h.entry
	for l := h.maxLvl; l > 0; l-- {
		before := cur
		cur = h.greedyLayer(q, qn, cur, l)
		if cur != before {
			stats.Hops++
		}
	}
	sc := getScratch(h.mat.Rows())
	defer putScratch(sc)
	src := distSource{mat: h.mat, q: q, qn: qn}
	beamSearch(&src, h.layers[0], cur, ef, sc, &stats)
	return drainSorted(&sc.best, k), stats
}

// MaxLevel reports the top layer index (diagnostics).
func (h *HNSW) MaxLevel() int { return h.maxLvl }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
