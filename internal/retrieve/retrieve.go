// Package retrieve implements the paper's API retrieval module: API
// descriptions are embedded into high-dimensional vectors and, given a user
// prompt, the most relevant APIs are found by nearest-neighbour search: an
// exact flat scan for registries up to exactThreshold entries — which
// includes the default registry, so that is what every daemon serves — and
// a τ-MG proximity-graph index above it. The built Index is immutable, so
// single and batched lookups may run concurrently from any number of
// sessions.
package retrieve

import (
	"fmt"
	"sort"

	"chatgraph/internal/ann"
	"chatgraph/internal/apis"
	"chatgraph/internal/embed"
)

// Scored is one retrieval hit.
type Scored struct {
	Name string
	// Distance is the L2 distance between prompt and description
	// embeddings (smaller is more relevant).
	Distance float32
}

// Config tunes index construction.
type Config struct {
	// Dim is the embedding dimensionality (0 → 512).
	Dim int
	// Tau is the τ-MG parameter (0 is valid: MRNG).
	Tau float32
	// Quantize enables the int8 two-stage search tier on whichever index is
	// built: candidates rank on quantized codes (¼ the scanned bytes) and
	// the RerankFactor·k best are reranked with exact f32 distances.
	Quantize bool
	// RerankFactor is the quantized over-fetch multiple
	// (0 → ann.DefaultRerankFactor). Ignored unless Quantize is set.
	RerankFactor int
}

// exactThreshold is the registry size up to which New builds the exact flat
// scan instead of a τ-MG. It is a constant, not a setting: the only number
// that should move it is the measured crossover, and that sits far above
// both it and the registry. Median µs per Search at d = 512, k = 6 on a
// padded registry (BenchmarkRetrievalCrossover, 5 runs per cell;
// EXPERIMENTS.md E22 has the spread):
//
//	n            flat f32  flat int8  τ-MG f32  τ-MG int8
//	39 (served)      14.9       15.8      22.1       20.2
//	64               25.1       18.5      32.6       21.1
//	128              48.2       24.9      58.1       34.2
//	256              92.2       28.5     118.7       40.7
//	512             179.9       47.6     216.8       81.4
//	1024            433.7       90.8     365.2      106.6
//	2048            814.6      105.7     448.5       90.3
//	4096           1476.5      198.0     547.1      121.9
//
// τ-MG first wins between n = 512 and 1024 (f32) and between 1024 and 2048
// (int8); apis.Default registers 39 APIs. Raising the constant to the
// crossover is one line here plus re-padding the two fixtures that build a
// τ-MG through New (TestTauMGPathUsed pads to 80, evalchains E10 to 512).
const exactThreshold = 64

// Index retrieves APIs by embedding similarity.
type Index struct {
	emb    *embed.Hashing
	names  []string
	descs  map[string]string
	search ann.Index
}

// New embeds every registered API description and builds the ANN index.
func New(reg *apis.Registry, cfg Config) (*Index, error) {
	all := reg.All()
	if len(all) == 0 {
		return nil, fmt.Errorf("retrieve: empty registry")
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 512
	}
	ix := &Index{
		emb:   embed.NewHashing(cfg.Dim),
		descs: make(map[string]string, len(all)),
	}
	corpus := make([]string, 0, len(all))
	for _, a := range all {
		text := a.Name + " " + a.Description
		corpus = append(corpus, text)
		ix.names = append(ix.names, a.Name)
		ix.descs[a.Name] = a.Description
	}
	ix.emb.Fit(corpus)
	vecs := ix.emb.EmbedBatch(corpus)
	quant := ann.QuantConfig{Enabled: cfg.Quantize, RerankFactor: cfg.RerankFactor}
	if len(vecs) <= exactThreshold {
		ix.search = ann.NewBruteForceQuant(vecs, quant)
		return ix, nil
	}
	idx, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: cfg.Tau, Quant: quant})
	if err != nil {
		return nil, fmt.Errorf("retrieve: build index: %w", err)
	}
	ix.search = idx
	return ix, nil
}

// Len reports the number of indexed APIs.
func (ix *Index) Len() int { return len(ix.names) }

// Description returns the indexed description of an API.
func (ix *Index) Description(name string) string { return ix.descs[name] }

// Descriptions returns a copy of the full name → description map. The copy
// is defensive: the underlying map is engine-shared state, so handing out
// the internal reference would let any caller corrupt every session's
// prompts.
func (ix *Index) Descriptions() map[string]string {
	out := make(map[string]string, len(ix.descs))
	for k, v := range ix.descs {
		out[k] = v
	}
	return out
}

// TopAPIs returns the k APIs whose descriptions are nearest to the query
// text, most relevant first. Equal distances are broken by name, so the
// ranking is deterministic across index types.
func (ix *Index) TopAPIs(query string, k int) []Scored {
	if k <= 0 {
		return nil
	}
	q := ix.emb.Embed(query)
	return ix.scored(ix.search.Search(q, k))
}

// TopAPIsBatch answers many queries in one pass: queries are embedded by
// embed.Hashing.EmbedBatch and searched by ann.SearchBatch, both over
// bounded worker pools, so a service can amortize a burst of retrievals
// across cores instead of paying the one-at-a-time loop. out[i] is the
// ranked hit list for queries[i].
func (ix *Index) TopAPIsBatch(queries []string, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	if k <= 0 || len(queries) == 0 {
		return out
	}
	qs := ix.emb.EmbedBatch(queries)
	for i, rs := range ann.SearchBatch(ix.search, qs, k) {
		out[i] = ix.scored(rs)
	}
	return out
}

// scored converts raw ANN hits into the stable (Distance, Name) ranking.
func (ix *Index) scored(rs []ann.Result) []Scored {
	out := make([]Scored, 0, len(rs))
	for _, r := range rs {
		out = append(out, Scored{Name: ix.names[r.ID], Distance: r.Dist})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns just the API names of TopAPIs, in relevance order.
func (ix *Index) Names(query string, k int) []string {
	hits := ix.TopAPIs(query, k)
	names := make([]string, len(hits))
	for i, h := range hits {
		names[i] = h.Name
	}
	return names
}
