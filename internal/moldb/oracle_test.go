package moldb

import (
	"hash/fnv"
	"math"
	"sort"

	"chatgraph/internal/graph"
)

// The map-based WL kernel the sorted fingerprints and the inverted index
// replaced, kept as the parity oracle: every fingerprint, similarity and
// search result of the package must equal what these give, to the bit.

// mapFingerprint computes the WL subtree feature multiset of g as a map
// from feature hash to count.
func mapFingerprint(g *graph.Graph, iterations int) map[uint64]float64 {
	n := g.NumNodes()
	fp := make(map[uint64]float64)
	if n == 0 {
		return fp
	}
	labels := make([]uint64, n)
	for i, nd := range g.Nodes() {
		l := nd.Label
		if e := nd.Attrs["element"]; e != "" {
			l = e
		}
		labels[i] = hash64("L0:" + l)
		fp[labels[i]]++
	}
	c := g.Freeze()
	var nbLabels []uint64
	for it := 1; it <= iterations; it++ {
		next := make([]uint64, n)
		for i := 0; i < n; i++ {
			nbLabels = nbLabels[:0]
			for _, nb := range c.OutNeighbors(graph.NodeID(i)) {
				nbLabels = append(nbLabels, labels[nb])
			}
			sort.Slice(nbLabels, func(a, b int) bool { return nbLabels[a] < nbLabels[b] })
			h := fnv.New64a()
			writeU64(h, uint64(it))
			writeU64(h, labels[i])
			for _, nl := range nbLabels {
				writeU64(h, nl)
			}
			next[i] = h.Sum64()
			fp[next[i]]++
		}
		labels = next
	}
	return fp
}

func writeU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:]) //nolint:errcheck // fnv never errors
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck
	return h.Sum64()
}

func fpNorm(fp map[uint64]float64) float64 {
	var s float64
	for _, v := range fp {
		s += v * v
	}
	return math.Sqrt(s)
}

// cosineKernel is the cosine-normalized dot product of two feature
// multisets, 1 for identical structures.
func cosineKernel(a map[uint64]float64, an float64, b map[uint64]float64, bn float64) float64 {
	if an == 0 || bn == 0 {
		return 0
	}
	// Iterate the smaller map.
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for k, av := range a {
		if bv, ok := b[k]; ok {
			dot += av * bv
		}
	}
	return dot / (an * bn)
}

// oracleSimilarity is the old DB.Similarity.
func oracleSimilarity(a, b *graph.Graph, iterations int) float64 {
	fa, fb := mapFingerprint(a, iterations), mapFingerprint(b, iterations)
	return cosineKernel(fa, fpNorm(fa), fb, fpNorm(fb))
}

// oracleDB is the old DB.Search: every stored molecule scored through its
// map fingerprint, then all of them sorted.
type oracleDB struct {
	iterations int
	names      []string
	fps        []map[uint64]float64
	norms      []float64
}

func (o *oracleDB) add(name string, g *graph.Graph) {
	fp := mapFingerprint(g, o.iterations)
	o.names = append(o.names, name)
	o.fps = append(o.fps, fp)
	o.norms = append(o.norms, fpNorm(fp))
}

func (o *oracleDB) search(q *graph.Graph, k int) []Match {
	if k <= 0 {
		return nil
	}
	qfp := mapFingerprint(q, o.iterations)
	qn := fpNorm(qfp)
	ms := make([]Match, 0, len(o.fps))
	for id, fp := range o.fps {
		ms = append(ms, Match{ID: id, Name: o.names[id], Similarity: cosineKernel(qfp, qn, fp, o.norms[id])})
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Similarity != ms[j].Similarity {
			return ms[i].Similarity > ms[j].Similarity
		}
		return ms[i].ID < ms[j].ID
	})
	if k > len(ms) {
		k = len(ms)
	}
	return ms[:k]
}
