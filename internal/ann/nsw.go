package ann

// NSW is the navigable-small-world baseline: vectors are inserted one at a
// time, each connecting bidirectionally to the M nearest nodes found by a
// beam search over the graph built so far. It is the classic single-layer
// construction the ANN surveys cited by the paper benchmark against.
type NSW struct {
	graphIndex
	m int
}

// NSWConfig tunes NSW construction.
type NSWConfig struct {
	// M is the number of bidirectional links per inserted node (0 → 16).
	M int
	// EFConstruction is the beam width used to find link targets during
	// insertion (0 → 64).
	EFConstruction int
	// Beam is the default search beam width (0 → 64).
	Beam int
}

func (c *NSWConfig) setDefaults() {
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

// NewNSW builds an NSW graph over vecs. The matrix is filled upfront;
// during construction beam searches only ever reach already-linked nodes,
// so searching over the full matrix with a growing adjacency is safe.
func NewNSW(vecs [][]float32, cfg NSWConfig) (*NSW, error) {
	if err := checkVectors(vecs); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	g := &NSW{m: cfg.M}
	g.mat = mustMatrix(vecs)
	g.adj = make([][]int32, 1, len(vecs))
	g.entry = 0
	g.beam = cfg.Beam
	sc := getScratch(len(vecs))
	defer putScratch(sc)
	var stats SearchStats // required by beamSearch; construction discards it
	for i := 1; i < len(vecs); i++ {
		src := distSource{mat: g.mat, q: g.mat.Row(i), qn: g.mat.SquaredNorm(i)}
		beamSearch(&src, g.adj, g.entry, cfg.EFConstruction, sc, &stats)
		g.adj = append(g.adj, nil)
		for _, tgt := range drainSorted(&sc.best, cfg.M) {
			g.adj[i] = append(g.adj[i], int32(tgt.ID))
			g.adj[tgt.ID] = append(g.adj[tgt.ID], int32(i))
		}
	}
	g.entry = medoid(g.mat)
	return g, nil
}
