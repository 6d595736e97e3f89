package retrieve_test

import (
	"math"
	"math/rand"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
	"chatgraph/internal/retrieve"
)

// TestSparseScanMatchesDense: what New serves — the sparse embedding through
// BruteForce.SearchSparse — must equal the dense embedding through
// BruteForce.Search hit for hit, names and Distance bits, on the served
// registry and on one padded to 64. The prompts
// are the bench's query pool (every suggested question, then "A and B"
// pairings), a zero vector (all stop-words) and nothing at all.
func TestSparseScanMatchesDense(t *testing.T) {
	var queries []string
	for _, k := range []graph.Kind{graph.KindSocial, graph.KindMolecule, graph.KindKnowledge, graph.KindUnknown} {
		queries = append(queries, core.SuggestedQuestions(k)...)
	}
	rng := rand.New(rand.NewSource(21))
	for base := len(queries); len(queries) < 64; {
		queries = append(queries, queries[rng.Intn(base)]+" and "+queries[rng.Intn(base)])
	}
	queries = append(queries, "what is the of this and that", "?! …", "padding operation number 7")

	for _, tc := range []struct {
		name string
		reg  *apis.Registry
	}{
		{"default", apis.Default(nil)},
		{"padded64", retrieve.PaddedRegistry(t, 64)},
	} {
		ix, err := retrieve.New(tc.reg, retrieve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, tc.reg.Len()} {
			batch := ix.TopAPIsBatch(queries, k)
			for i, q := range queries {
				want := retrieve.DenseTopAPIs(ix, q, k)
				for _, got := range [][]retrieve.Scored{ix.TopAPIs(q, k), batch[i]} {
					if len(got) != len(want) || len(got) != k {
						t.Fatalf("%s k=%d %q: %d hits, dense %d", tc.name, k, q, len(got), len(want))
					}
					for j := range want {
						if got[j].Name != want[j].Name || got[j].Description != want[j].Description ||
							math.Float32bits(got[j].Distance) != math.Float32bits(want[j].Distance) {
							t.Fatalf("%s k=%d %q hit %d: %+v, dense %+v", tc.name, k, q, j, got[j], want[j])
						}
					}
				}
				names := ix.Names(q, k)
				for j := range want {
					if names[j] != want[j].Name {
						t.Fatalf("%s k=%d %q: Names %v, dense %+v", tc.name, k, q, names, want)
					}
				}
			}
		}
	}
}
