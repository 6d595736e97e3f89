package embed

import (
	"testing"
	"testing/quick"

	"chatgraph/internal/vecmath"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("What are the communities of this graph?")
	want := []string{"commun", "graph"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestTokenizeEmptyAndPunct(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("!!! ??? a i"); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v", got)
	}
}

func TestStemmerMergesVariants(t *testing.T) {
	pairs := [][2]string{
		{"communities", "community"},
		{"clusters", "cluster"},
		{"computing", "comput"},
		{"searches", "search"},
		{"cleaned", "clean"},
	}
	for _, p := range pairs {
		got, want := string(stem([]byte(p[0]))), string(stem([]byte(p[1])))
		if got != want {
			t.Errorf("stem(%q) = %q, stem(%q) = %q; want equal", p[0], got, p[1], want)
		}
	}
}

func TestEmbedDeterministicUnitNorm(t *testing.T) {
	e := NewHashing(64)
	v1 := e.Embed("find similar molecules in the database")
	v2 := e.Embed("find similar molecules in the database")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	if n := vecmath.Norm(v1); n < 0.999 || n > 1.001 {
		t.Fatalf("norm = %v, want 1", n)
	}
	if len(v1) != 64 || e.dim != 64 {
		t.Fatalf("dim = %d", len(v1))
	}
}

func TestEmbedEmptyText(t *testing.T) {
	e := NewHashing(32)
	v := e.Embed("")
	if vecmath.Norm(v) != 0 {
		t.Fatal("empty text embedding not zero")
	}
}

// Similarity is the cosine similarity of two texts' embeddings. Embed
// returns unit (or zero) vectors, so that is their inner product.
func Similarity(e *Hashing, a, b string) float32 {
	var s float32
	va, vb := e.Embed(a), e.Embed(b)
	for i := range va {
		s += va[i] * vb[i]
	}
	return s
}

func TestSimilarTextsCloserThanUnrelated(t *testing.T) {
	e := NewHashing(256)
	e.Fit([]string{
		"detect communities in a social network",
		"compute the toxicity of a molecule",
		"find the shortest path between two nodes",
	})
	simRelated := Similarity(e, "detect communities in a social network", "find the communities of this network")
	simUnrelated := Similarity(e, "detect communities in a social network", "compute the toxicity of a molecule")
	if simRelated <= simUnrelated {
		t.Fatalf("related %v <= unrelated %v", simRelated, simUnrelated)
	}
}

func TestFitChangesWeighting(t *testing.T) {
	e := NewHashing(128)
	idf := func(tok string) float32 { return e.idfByDF[e.df[tok]] }
	before := idf("commun")
	e.Fit([]string{"community detection", "community structure", "community analysis", "toxicity"})
	if e.docCount != 4 {
		t.Fatalf("docCount = %d", e.docCount)
	}
	after := idf("commun")
	rare := idf("toxic")
	for _, tok := range []string{"commun", "toxic", "absent"} {
		if got, want := idf(tok), oracleIDF(e, tok); got != want {
			t.Fatalf("idf(%q) = %v, oracle %v", tok, got, want)
		}
	}
	if after >= before+1 {
		t.Fatalf("idf of frequent term should drop toward 1: before %v after %v", before, after)
	}
	if rare <= after {
		t.Fatalf("rare term idf %v should exceed frequent term idf %v", rare, after)
	}
}

// TestEmbedBatchMatchesEmbed: the batch must be a pure wrapper —
// byte-identical vectors to per-text Embed calls, in input order.
func TestEmbedBatchMatchesEmbed(t *testing.T) {
	h := NewHashing(64)
	texts := []string{
		"detect communities in the network",
		"molecular toxicity prediction",
		"", // zero vector, not a crash
		"shortest path between nodes",
	}
	h.Fit(texts)
	got := h.EmbedBatch(texts)
	if len(got) != len(texts) {
		t.Fatalf("batch returned %d vectors", len(got))
	}
	for i, text := range texts {
		want := h.Embed(text)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("batch[%d][%d] = %v, Embed = %v", i, j, got[i][j], want[j])
			}
		}
	}
	if out := h.EmbedBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d vectors", len(out))
	}
}

func TestDefaultDim(t *testing.T) {
	if NewHashing(0).dim != 128 {
		t.Fatal("default dim not applied")
	}
}

// Property: embeddings are always unit norm (or zero) and finite.
func TestQuickEmbedNorm(t *testing.T) {
	e := NewHashing(64)
	f := func(s string) bool {
		v := e.Embed(s)
		n := vecmath.Norm(v)
		return n == 0 || (n > 0.999 && n < 1.001)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEmbed times one prompt at d = 512, the dimensionality every
// daemon serves: dense is Embed, sparse is EmbedSparse into reused storage
// (what retrieval calls), oracle the map-based embedder they replaced.
func BenchmarkEmbed(b *testing.B) {
	e := NewHashing(512)
	e.Fit([]string{"detect communities in a social network", "compute toxicity"})
	const prompt = "write a brief report for this graph including communities and connectivity"
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Embed(prompt)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		var q vecmath.Sparse
		for i := 0; i < b.N; i++ {
			q = e.EmbedSparse(prompt, q)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleEmbed(e, prompt)
		}
	})
}
