package retrieve

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"chatgraph/internal/ann"
	"chatgraph/internal/apis"
	"chatgraph/internal/embed"
	"chatgraph/internal/vecmath"
)

func TestNewRejectsEmptyRegistry(t *testing.T) {
	if _, err := New(apis.NewRegistry(), Config{}); err == nil {
		t.Fatal("empty registry accepted")
	}
}

func TestTopAPIsRelevance(t *testing.T) {
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		want  string
	}{
		{"detect the communities of this social network", "community.detect"},
		{"predict the toxicity of the molecule", "molecule.toxicity"},
		{"find similar molecules in the database", "similarity.search"},
		{"infer the missing edges of the knowledge graph", "kg.detect_missing"},
		{"shortest path between two nodes", "path.shortest"},
	}
	for _, c := range cases {
		hits := ix.Names(c.query, 5)
		found := false
		for _, h := range hits {
			if h == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("query %q top-5 = %v, want %s included", c.query, hits, c.want)
		}
	}
}

func TestTopAPIsSortedAndBounded(t *testing.T) {
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.TopAPIs("graph analysis", 3)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Distance < hits[i-1].Distance {
			t.Fatal("hits not sorted by distance")
		}
	}
	if got := ix.TopAPIs("x", 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestDescriptionLookup(t *testing.T) {
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Description("community.detect") == "" {
		t.Fatal("description missing")
	}
	if len(ix.Descriptions()) != len(ix.names) {
		t.Fatal("Descriptions incomplete")
	}
}

// TestDescriptionsDefensiveCopy: the returned map must be a copy — mutating
// it must not corrupt the engine-shared index state.
func TestDescriptionsDefensiveCopy(t *testing.T) {
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Description("community.detect")
	if want == "" {
		t.Fatal("fixture API missing")
	}
	m := ix.Descriptions()
	m["community.detect"] = "vandalized"
	delete(m, "graph.stats")
	if got := ix.Description("community.detect"); got != want {
		t.Fatalf("mutating the returned map changed index state: %q", got)
	}
	if ix.Description("graph.stats") == "" {
		t.Fatal("delete on the returned map reached index state")
	}
}

// TestTopAPIsBatchMatchesSequential: the batched path must rank exactly
// like the one-query-at-a-time loop.
func TestTopAPIsBatchMatchesSequential(t *testing.T) {
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"detect the communities of this social network",
		"predict the toxicity of the molecule",
		"shortest path between two nodes",
	}
	batch := ix.TopAPIsBatch(queries, 5)
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d lists", len(batch))
	}
	for i, q := range queries {
		want := ix.TopAPIs(q, 5)
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d hit %d: %+v, want %+v", i, j, batch[i][j], want[j])
			}
		}
	}
	if out := ix.TopAPIsBatch(nil, 5); len(out) != 0 {
		t.Fatalf("empty batch returned %d lists", len(out))
	}
	if out := ix.TopAPIsBatch(queries, 0); out[0] != nil {
		t.Fatalf("k=0 batch returned hits: %v", out[0])
	}
}

// TestTopAPIsTieBreakByName: APIs whose names tokenize to nothing and share
// one description embed identically, so their distances tie exactly; the
// ranking must fall back to name order instead of index insertion order.
func TestTopAPIsTieBreakByName(t *testing.T) {
	reg := apis.NewRegistry()
	noop := func(apis.Input) (apis.Output, error) { return apis.Output{Text: "x"}, nil }
	// Registered deliberately in reverse-alphabetical order; single-letter
	// name segments are dropped by the tokenizer, so both embed only the
	// shared description text.
	for _, name := range []string{"z.y", "x.w", "a.b"} {
		if err := reg.Register(apis.API{Name: name, Description: "identical twin operation", Category: "util", Fn: noop}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hits := ix.TopAPIs("identical twin operation", 3)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Distance != hits[1].Distance || hits[1].Distance != hits[2].Distance {
		t.Fatalf("fixture broken: distances differ: %+v", hits)
	}
	if hits[0].Name != "a.b" || hits[1].Name != "x.w" || hits[2].Name != "z.y" {
		t.Fatalf("tied hits not ordered by name: %+v", hits)
	}
}

// paddedRegistry is the default registry grown to n APIs with synthetic
// padding operations.
func paddedRegistry(t testing.TB, n int) *apis.Registry {
	t.Helper()
	reg := apis.Default(nil)
	for i := 0; reg.Len() < n; i++ {
		if err := reg.Register(apis.API{
			Name:        fmt.Sprintf("pad.api%d", i),
			Description: fmt.Sprintf("padding operation number %d for index scale testing", i),
			Category:    "util",
			Fn:          func(apis.Input) (apis.Output, error) { return apis.Output{Text: "pad"}, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// denseTopAPIs is TopAPIs through the dense embedding and BruteForce.Search
// — what New served before the sparse scan, kept as its parity reference.
func denseTopAPIs(ix *Index, query string, k int) []Scored {
	return ix.scored(ix.flat.Search(ix.emb.Embed(query), k))
}

// TestTopAPIsAllocs pins a lookup's steady-state allocations: a
// lookup allocates what it returns and nothing per term, bucket or row.
func TestTopAPIsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const query = "What communities are in this network? and Who are the most influential nodes?"
	if got := testing.AllocsPerRun(200, func() { ix.Names(query, 5) }); got > 3 {
		t.Errorf("Names allocates %v per call, want ≤ 3 (the raw hits, the scored hits, the names)", got)
	}
	batch := make([]string, 16)
	for i := range batch {
		batch[i] = fmt.Sprintf("%s number %d", query, i)
	}
	if got := testing.AllocsPerRun(100, func() { ix.TopAPIsBatch(batch, 5) }); got > 1+2*float64(len(batch)) {
		t.Errorf("TopAPIsBatch allocates %v per %d queries, want ≤ 2 per query (its hits, its list) + 1", got, len(batch))
	}
}

// TestTopAPIsConcurrent hammers one index from many goroutines: the pooled
// scratch is leased per call, so every answer must equal the serial one
// (run under -race in CI).
func TestTopAPIsConcurrent(t *testing.T) {
	ix, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"detect the communities of this social network",
		"predict the toxicity of the molecule",
		"shortest path between two nodes",
		"the of and",
	}
	want := ix.TopAPIsBatch(queries, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := (g + i) % len(queries)
				if got := ix.TopAPIs(queries[q], 5); !slices.Equal(got, want[q]) {
					t.Errorf("goroutine %d: TopAPIs(%q) = %+v, want %+v", g, queries[q], got, want[q])
					return
				}
				if got := ix.TopAPIsBatch(queries, 5); !slices.Equal(got[q], want[q]) {
					t.Errorf("goroutine %d: TopAPIsBatch[%d] = %+v, want %+v", g, q, got[q], want[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestQuantizeIsInert: Config.Quantize survives only as a name bench/ still
// sets. An index built with it must answer with the same names and the same
// Distance bits as one built without.
func TestQuantizeIsInert(t *testing.T) {
	queries := []string{
		"detect the communities of this social network",
		"predict the toxicity of the molecule",
		"shortest path between two nodes",
		"rank nodes by importance",
		"padding operation number 7",
	}
	plain, err := New(apis.Default(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := New(apis.Default(nil), Config{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		// Scored holds strings and one float32 no embedding makes NaN,
		// so == is equality of names and of Distance bits.
		if got, want := set.TopAPIs(q, 10), plain.TopAPIs(q, 10); !slices.Equal(got, want) {
			t.Errorf("query %q with Quantize set answered\n%+v\nwant\n%+v", q, got, want)
		}
	}
}

// BenchmarkRetrievalCrossover is the measurement behind serving the flat
// scan at every registry size: one Search (k = 6, embedding excluded) over the
// default registry padded to n descriptions, on the index New builds
// (flat-sparse), its predecessor (flat-dense) and the paper's τ-MG, all built
// straight from internal/ann. The n = 39 row is what every daemon serves; a
// row at which taumg beats flat-sparse is the evidence a graph index needs to
// come back into New. Median µs per Search at d = 512, 5 runs per cell, -cpu 1
// (EXPERIMENTS.md E28 has the spread):
//
//	n            flat-sparse  flat-dense      taumg
//	39 (served)          0.9        14.6       18.5
//	64                   1.7        23.5       36.6
//	128                  1.9        44.7       56.6
//	256                  3.3        89.5      101.2
//	512                  6.6       173.1      194.4
//	1024                26.6       347.1      329.6
//	2048                60.8       819.1      513.3
//	4096               136.1      1564.9      546.9
//
// The sparse scan costs n × non-zeros, not n × d: the τ-MG does not beat it
// at 100 × the registry.
//
//	go test -run '^$' -bench RetrievalCrossover -count 5 -cpu 1 ./internal/retrieve
func BenchmarkRetrievalCrossover(b *testing.B) {
	queries := []string{
		"detect the communities of this social network",
		"predict the toxicity of the molecule",
		"shortest path between two nodes",
		"rank nodes by importance",
		"clean the knowledge graph noise",
	}
	for _, n := range []int{39, 64, 128, 256, 512, 1024, 2048, 4096} {
		// The indexes are built inside the size's sub-benchmark so a -bench
		// filter such as /n39/ does not pay for the n = 4096 τ-MG builds.
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var corpus []string
			for _, a := range paddedRegistry(b, n).All() {
				corpus = append(corpus, a.Name+" "+a.Description)
			}
			emb := embed.NewHashing(512)
			emb.Fit(corpus)
			vecs, qs := emb.EmbedBatch(corpus), emb.EmbedBatch(queries)
			flat := ann.NewBruteForce(vecs)
			b.Run("flat-sparse", func(b *testing.B) {
				sqs := make([]vecmath.Sparse, len(queries))
				for i, q := range queries {
					sqs[i] = emb.EmbedSparse(q, vecmath.Sparse{})
				}
				for i := 0; i < b.N; i++ {
					flat.SearchSparse(sqs[i%len(sqs)], 6)
				}
			})
			taumg, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: 0.05})
			if err != nil {
				b.Fatal(err)
			}
			for _, tc := range []struct {
				name string
				ix   ann.Index
			}{
				{"flat-dense", flat},
				{"taumg", taumg},
			} {
				b.Run(tc.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						tc.ix.SearchWithStats(qs[i%len(qs)], 6)
					}
				})
			}
		})
	}
}
