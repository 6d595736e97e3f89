// Package retrieve implements the paper's API retrieval module: API
// descriptions are embedded into high-dimensional vectors and, given a user
// prompt, the most relevant APIs are found by nearest-neighbour search: an
// exact flat scan over the prompt's sparse embedding, at every registry
// size. The paper's τ-MG proximity graph lives in internal/ann, measured by
// cmd/benchann and BenchmarkRetrievalCrossover — the benchmark whose table
// says when a graph index should come back here. The built Index is
// immutable, so single and batched lookups may run concurrently from any
// number of sessions.
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
	// Quantize is ignored.
	//
	// Deprecated: the tier it selected is deleted (DESIGN.md "One
	// precision"). The field stays only because bench/oracle.go sets it and
	// bench/ changes in benchmark-only PRs; it goes with that assignment.
	Quantize bool
}

// Index retrieves APIs by embedding similarity.
type Index struct {
	emb      *embed.Hashing
	names    []string
	rowDescs []string // by row, like names
	descs    map[string]string
	flat     *ann.BruteForce // searched through its sparse-query scan
}

// New embeds every registered API description and builds the flat index.
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
	ix.flat = ann.NewBruteForce(ix.emb.EmbedBatch(corpus))
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
// ranking does not depend on registration order.
func (ix *Index) TopAPIs(query string, k int) []Scored {
	if k <= 0 {
		return nil
	}
	// Stack room for the ≈ 20 buckets a prompt touches; more spill to the heap.
	q := vecmath.Sparse{Idx: make([]int32, 0, 64), Val: make([]float32, 0, 64)}
	return ix.scored(ix.flat.SearchSparse(ix.emb.EmbedSparse(query, q), k))
}

// TopAPIsBatch answers many queries in one call; out[i] is the ranked hit
// list for queries[i]. Like all of one request's work, the loop runs on the
// caller's goroutine.
func (ix *Index) TopAPIsBatch(queries []string, k int) [][]Scored {
	out := make([][]Scored, len(queries))
	for i, q := range queries {
		out[i] = ix.TopAPIs(q, k)
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
