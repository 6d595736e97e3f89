package ann

import (
	"math"
	"math/rand"

	"chatgraph/internal/vecmath"
)

// IVFFlat is the inverted-file baseline: vectors are partitioned into
// nlist k-means cells; a query scans only the nprobe nearest cells. It is
// the classic non-graph competitor in the ANN surveys the paper cites, so
// E5 can show the graph-vs-partition trade-off. Vectors and centroids both
// live in flat matrices, and cell scans run the fused row-list kernel.
type IVFFlat struct {
	mat       *vecmath.Matrix
	centroids *vecmath.Matrix
	cells     [][]int32
	nprobe    int
}

// IVFConfig tunes construction.
type IVFConfig struct {
	// NList is the number of k-means cells (0 → √n rounded).
	NList int
	// NProbe is how many cells a query scans (0 → max(1, NList/8)).
	NProbe int
	// KMeansIters bounds Lloyd iterations (0 → 12).
	KMeansIters int
	// Seed drives centroid initialization.
	Seed int64
}

// NewIVFFlat builds the index with Lloyd's k-means.
func NewIVFFlat(vecs [][]float32, cfg IVFConfig) (*IVFFlat, error) {
	if err := checkVectors(vecs); err != nil {
		return nil, err
	}
	n := len(vecs)
	if cfg.NList <= 0 {
		cfg.NList = int(math.Sqrt(float64(n)))
		if cfg.NList < 1 {
			cfg.NList = 1
		}
	}
	if cfg.NList > n {
		cfg.NList = n
	}
	if cfg.NProbe <= 0 {
		cfg.NProbe = cfg.NList / 8
		if cfg.NProbe < 1 {
			cfg.NProbe = 1
		}
	}
	if cfg.KMeansIters <= 0 {
		cfg.KMeansIters = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
	// k-means++ style seeding: first centroid uniform, rest biased toward
	// far points (simple squared-distance sampling).
	centroids := make([][]float32, 0, cfg.NList)
	centroids = append(centroids, vecmath.Clone(vecs[rng.Intn(n)]))
	for len(centroids) < cfg.NList {
		dists := make([]float64, n)
		var total float64
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := float64(vecmath.L2Squared(v, c)); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			centroids = append(centroids, vecmath.Clone(vecs[rng.Intn(n)]))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range dists {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, vecmath.Clone(vecs[idx]))
	}
	assign := make([]int, n)
	for iter := 0; iter < cfg.KMeansIters; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestDist := 0, float32(math.Inf(1))
			for ci, c := range centroids {
				if d := vecmath.L2Squared(v, c); d < bestDist {
					best, bestDist = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, len(centroids))
		sums := make([][]float32, len(centroids))
		for ci := range sums {
			sums[ci] = make([]float32, len(vecs[0]))
		}
		for i, v := range vecs {
			counts[assign[i]]++
			vecmath.Add(sums[assign[i]], v)
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				// Re-seed empty cells from a random point.
				centroids[ci] = vecmath.Clone(vecs[rng.Intn(n)])
				continue
			}
			vecmath.Scale(sums[ci], 1/float32(counts[ci]))
			centroids[ci] = sums[ci]
		}
	}
	cells := make([][]int32, len(centroids))
	for i := range vecs {
		cells[assign[i]] = append(cells[assign[i]], int32(i))
	}
	cmat, err := vecmath.FromRows(centroids)
	if err != nil {
		return nil, err
	}
	return &IVFFlat{mat: mustMatrix(vecs), centroids: cmat, cells: cells, nprobe: cfg.NProbe}, nil
}

// Len implements Index.
func (ix *IVFFlat) Len() int { return ix.mat.Rows() }

// Search implements Index.
func (ix *IVFFlat) Search(q []float32, k int) []Result {
	rs, _ := ix.SearchWithStats(q, k)
	return rs
}

// SearchWithStats implements Index: rank cells by centroid distance, scan
// the nprobe nearest with the fused kernel into a k-bounded heap.
func (ix *IVFFlat) SearchWithStats(q []float32, k int) ([]Result, SearchStats) {
	var stats SearchStats
	if k <= 0 || ix.mat.Rows() == 0 {
		return nil, stats
	}
	sc := getScratch(0)
	defer putScratch(sc)
	qn := vecmath.SquaredNorm(q)
	nc := ix.centroids.Rows()
	tile := sc.distTile(nc)
	ix.centroids.L2SquaredRange(q, qn, 0, nc, tile)
	stats.DistComps += nc
	probe := ix.nprobe
	if probe > nc {
		probe = nc
	}
	// Keep only the probe nearest cells, via the allocation-free bounded
	// heap (sort.Slice would allocate its reflection closure every search).
	// Probing order doesn't matter: the candidate heap below keeps an exact,
	// order-independent top-k under the total (Dist, ID) order.
	for i, d := range tile {
		boundedInsert(&sc.cells, Result{ID: i, Dist: d}, probe)
	}
	for p := range sc.cells {
		stats.Hops++
		ids := ix.cells[sc.cells[p].ID]
		if len(ids) == 0 {
			continue
		}
		tile = sc.distTile(len(ids))
		ix.mat.L2SquaredToRows(q, qn, ids, tile)
		stats.DistComps += len(ids)
		for j, d := range tile[:len(ids)] {
			boundedInsert(&sc.best, Result{ID: int(ids[j]), Dist: d}, k)
		}
	}
	return drainSorted(&sc.best, k), stats
}

// NProbe returns the configured probe count (diagnostics).
func (ix *IVFFlat) NProbe() int { return ix.nprobe }
