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
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"chatgraph/internal/ann"
	"chatgraph/internal/apis"
	"chatgraph/internal/embed"
	"chatgraph/internal/vecmath"
)

// Scored is one retrieval hit; the tags are POST /v1/retrieve's spelling.
type Scored struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Distance is the L2 distance between prompt and description
	// embeddings (smaller is more relevant).
	Distance float32 `json:"distance"`
}

// Config tunes index construction.
type Config struct {
	// Dim is the embedding dimensionality (0 → 512).
	Dim int
	// Tau is the τ-MG parameter (0 is valid: MRNG).
	Tau float32
	// Quantize is ignored.
	//
	// Deprecated: the tier it selected is deleted (DESIGN.md "One
	// precision"). The field stays only because bench/oracle.go sets it and
	// bench/ changes in benchmark-only PRs; it goes with that assignment.
	Quantize bool
}

// exactThreshold is the registry size up to which New builds the exact flat
// scan instead of a τ-MG. It is a constant, not a setting: the only number
// that should move it is the measured crossover, and that sits far above
// both it and the registry. Median µs per Search at d = 512, k = 6 on a
// padded registry (BenchmarkRetrievalCrossover, 5 runs per cell;
// EXPERIMENTS.md E25 has the spread); flat sparse is what New serves:
//
//	n            flat sparse  flat dense      τ-MG
//	39 (served)          1.1        19.0      25.8
//	64                   1.7        34.3      43.5
//	128                  2.5        69.6      85.0
//	256                  4.6       135.5     140.6
//	512                 10.1       257.2     273.3
//	1024                31.4       508.2     411.9
//	2048                74.9      1073.1     688.4
//	4096               205.9      2326.5     836.4
//
// The sparse scan costs n × non-zeros, not n × d: the τ-MG does not beat it
// by n = 4096. The constant stays at 64 in the PR that added the column;
// raising it is one line here plus re-padding the two fixtures that build a
// τ-MG through New (TestTauMGPathUsed pads to 80, evalchains E10 to 512).
const exactThreshold = 64

// Index retrieves APIs by embedding similarity.
type Index struct {
	emb      *embed.Hashing
	names    []string
	rowDescs []string // by row, like names
	descs    map[string]string
	// flat (its sparse-query scan) serves up to exactThreshold rows, else graph.
	flat  *ann.BruteForce
	graph *ann.TauMG
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
		ix.rowDescs = append(ix.rowDescs, a.Description)
		ix.descs[a.Name] = a.Description
	}
	ix.emb.Fit(corpus)
	vecs := ix.emb.EmbedBatch(corpus)
	if len(vecs) <= exactThreshold {
		ix.flat = ann.NewBruteForce(vecs)
		return ix, nil
	}
	idx, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: cfg.Tau})
	if err != nil {
		return nil, fmt.Errorf("retrieve: build index: %w", err)
	}
	ix.graph = idx
	return ix, nil
}

// Description returns the indexed description of an API.
func (ix *Index) Description(name string) string { return ix.descs[name] }

// Descriptions returns a copy of the full name → description map. The copy
// is defensive: the underlying map is engine-shared state, so handing out
// the internal reference would let any caller corrupt every session's
// prompts.
func (ix *Index) Descriptions() map[string]string { return maps.Clone(ix.descs) }

// TopAPIs returns the k APIs whose descriptions are nearest to the query
// text, most relevant first. Equal distances are broken by name, so the
// ranking is deterministic across index types.
func (ix *Index) TopAPIs(query string, k int) []Scored {
	if k <= 0 {
		return nil
	}
	if ix.flat == nil {
		return ix.scored(ix.graph.Search(ix.emb.Embed(query), k))
	}
	// Stack room for the ≈ 20 buckets a prompt touches; more spill to the heap.
	q := vecmath.Sparse{Idx: make([]int32, 0, 64), Val: make([]float32, 0, 64)}
	return ix.scored(ix.flat.SearchSparse(ix.emb.EmbedSparse(query, q), k))
}

// TopAPIsBatch answers many queries in one call; out[i] is the ranked hit
// list for queries[i]. The flat regime loops serially: at ≈ 3 µs a query the
// largest batch the server admits is under a millisecond, less than a worker
// pool's hand-off. The τ-MG embeds and searches across bounded worker pools.
func (ix *Index) TopAPIsBatch(queries []string, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	if k <= 0 {
		return out
	}
	if ix.flat != nil {
		for i, q := range queries {
			out[i] = ix.TopAPIs(q, k)
		}
		return out
	}
	qs := ix.emb.EmbedBatch(queries)
	for i, rs := range ann.SearchBatch(ix.graph, qs, k) {
		out[i] = ix.scored(rs)
	}
	return out
}

// scored converts raw ANN hits into the stable (Distance, Name) ranking.
func (ix *Index) scored(rs []ann.Result) []Scored {
	out := make([]Scored, 0, len(rs))
	for _, r := range rs {
		out = append(out, Scored{Name: ix.names[r.ID], Description: ix.rowDescs[r.ID], Distance: r.Dist})
	}
	slices.SortStableFunc(out, func(a, b Scored) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), strings.Compare(a.Name, b.Name))
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
