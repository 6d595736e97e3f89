package ann

import (
	"math/rand"
	"sort"
)

// TauMG is the τ-monotonic proximity graph of the paper's Definition 3
// ("Efficient approximate nearest neighbor search in multi-dimensional
// databases", Peng et al., SIGMOD 2023), built here from its edge-occlusion
// rule:
//
//	Given nodes u, u′, v with edge (u,u′) already selected, the edge (u,v)
//	is occluded (not added) if u′ lies in ball(u, δ(u,v)) ∩ ball(v, δ(u,v)−3τ),
//	i.e. δ(u,u′) < δ(u,v) and δ(v,u′) < δ(u,v) − 3τ.
//
// With τ = 0 the rule degenerates to the MRNG rule, so the MRNG baseline is
// NewTauMG with τ = 0. Larger τ keeps more long edges, which shortens greedy
// routing paths at the cost of degree — the trade-off benchmark E5 sweeps.
type TauMG struct {
	graphIndex
	tau float32
}

// TauMGConfig tunes construction.
type TauMGConfig struct {
	// Tau is the τ parameter of the occlusion rule. Zero yields MRNG.
	Tau float32
	// MaxDegree caps per-node out-degree (0 means the default 32). The cap
	// is what the paper's exactness guarantee is traded for: candidates
	// arrive nearest first, so a truncated node loses its longest surviving
	// edges, and the larger τ is the more edges survive occlusion to be
	// truncated. With MaxDegree = n and CandidatePool = n−1 greedy routing
	// is exact for every query within τ of its nearest neighbour
	// (TestTauMGGuaranteeWithinTau); with the defaults it is not, and
	// recall falls as τ grows (EXPERIMENTS.md E22).
	MaxDegree int
	// CandidatePool is how many nearest neighbors are considered per node
	// during construction (0 means the default 96). Larger pools build
	// better graphs more slowly.
	CandidatePool int
	// RandomCandidates adds this many uniformly sampled far candidates to
	// each node's pool (0 means the default 16). On clustered data a pure
	// kNN pool leaves clusters mutually unreachable; the long candidates
	// give the occlusion rule long edges to keep, restoring navigability.
	RandomCandidates int
	// Beam is the default beam width (ef) for Search (0 means 64).
	Beam int
}

func (c *TauMGConfig) setDefaults() {
	if c.MaxDegree <= 0 {
		c.MaxDegree = 32
	}
	if c.CandidatePool <= 0 {
		c.CandidatePool = 96
	}
	if c.RandomCandidates == 0 {
		c.RandomCandidates = 16
	}
	if c.RandomCandidates < 0 {
		c.RandomCandidates = 0
	}
	if c.Beam <= 0 {
		c.Beam = 64
	}
}

// NewTauMG builds a τ-MG over vecs. Construction computes, for every node,
// its CandidatePool exact nearest neighbors (O(n²·d) — fine at retrieval
// scale; the API registry has tens to thousands of entries) and then applies
// the occlusion rule in ascending distance order. The vectors are copied
// once into a flat matrix shared by construction and search.
func NewTauMG(vecs [][]float32, cfg TauMGConfig) (*TauMG, error) {
	if err := checkVectors(vecs); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	n := len(vecs)
	t := &TauMG{tau: cfg.Tau}
	t.mat = mustMatrix(vecs)
	t.beam = cfg.Beam
	t.adj = make([][]int32, n)

	// Exact candidate pools via per-node fused scans over the shared matrix.
	bf := newBruteForceMatrix(t.mat)
	pool := cfg.CandidatePool
	if pool > n-1 {
		pool = n - 1
	}
	// A fixed seed: the random candidates, and so the build, are a function
	// of the vectors alone.
	rng := rand.New(rand.NewSource(int64(n)))
	for u := 0; u < n; u++ {
		cands := bf.Search(t.mat.Row(u), pool+1) // +1: the node itself is returned first
		for r := 0; r < cfg.RandomCandidates; r++ {
			v := rng.Intn(n)
			if v != u {
				cands = append(cands, Result{ID: v, Dist: sqrtf(t.mat.L2SquaredRows(u, v))})
			}
		}
		sortResults(cands)
		selected := make([]int32, 0, cfg.MaxDegree)
		prevID := -1
		for _, c := range cands {
			if c.ID == u || c.ID == prevID {
				continue
			}
			prevID = c.ID
			if len(selected) >= cfg.MaxDegree {
				break
			}
			if !t.occluded(c, selected) {
				selected = append(selected, int32(c.ID))
			}
		}
		t.adj[u] = selected
	}
	t.entry = medoid(t.mat)
	t.ensureReachable()
	return t, nil
}

// occluded applies Definition 3: candidate edge (u,v) is blocked if any
// already-selected neighbor u′ of u satisfies δ(u,u′) < δ(u,v) and
// δ(v,u′) < δ(u,v) − 3τ. Candidates arrive in ascending δ(u,v) order, so
// δ(u,u′) < δ(u,v) holds for all selected u′ automatically; only the second
// ball test is evaluated, squared against the precomputed row norms.
func (t *TauMG) occluded(v Result, selected []int32) bool {
	limit := v.Dist - 3*t.tau
	if limit <= 0 {
		return false // the second ball is empty; nothing can occlude
	}
	limitSq := limit * limit
	for _, up := range selected {
		if t.mat.L2SquaredRows(v.ID, int(up)) < limitSq {
			return true
		}
	}
	return false
}

// ensureReachable adds an edge from the entry point to the first node of any
// weakly unreachable region so every vector is searchable. Occlusion can in
// rare degenerate datasets (many duplicate points) orphan nodes.
func (t *TauMG) ensureReachable() {
	n := t.mat.Rows()
	seen := make([]bool, n)
	stack := []int{t.entry}
	seen[t.entry] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range t.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, int(v))
			}
		}
	}
	if count == n {
		return
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			t.adj[t.entry] = append(t.adj[t.entry], int32(v))
			// Mark the whole newly connected region.
			stack = append(stack, v)
			seen[v] = true
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range t.adj[u] {
					if !seen[w] {
						seen[w] = true
						stack = append(stack, int(w))
					}
				}
			}
		}
	}
}

// sortResults orders hits by distance then ID, the canonical result order.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	})
}
