package embed

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"chatgraph/internal/vecmath"
)

// parityCorpus fits the d = 512 embedder the parity checks run against, so
// IDF weights differ between terms as they do when served.
var parityCorpus = []string{
	"community.detect detect communities in a social network",
	"molecule.toxicity predict the toxicity of a molecule",
	"path.shortest shortest path between two nodes",
	"kg.detect_missing infer missing edges of the knowledge graph",
}

// parityTexts are the prompts an ASCII byte scanner gets wrong, plus the
// ordinary shapes: strings.ToLower maps U+212A (Kelvin) to k and U+0130 to
// i, both of which extend a token; every other non-[a-z0-9] rune, and every
// invalid byte, is a separator.
var parityTexts = []string{
	"",
	"a i !!! ???",
	"the of and to",
	"What are the communities of this graph?",
	"Detect communities, detect COMMUNITIES; detecting community",
	"searches boxes classes churches wishes passes cities abilities",
	"runners running ran bed seed used ss ass",
	"x1 22 3d node 17 to node 4",
	"\u212aelvin s\u212ay \u212a",             // Kelvin sign inside and alone
	"\u0130stanbul d\u0130ng \u0130\u0130",    // dotted capital I
	"i\u0307s na\u00efve caf\u00e9 \u00dcber", // combining dot, Latin-1 letters
	"ab\xffcd \xc3\x28 \xe2\x82 tail",         // invalid UTF-8
	"图 分析 graph 分析graph",
	"under_score snake_case a_b",
	strings.Repeat("again and again ", 40),
}

// checkParity compares the scanner's three views of text with the oracle:
// the token list, the sparse vector's shape, and the embedding — bit for bit
// unless three or more distinct terms share a bucket, where the oracle's own
// sum depends on map order.
func checkParity(t *testing.T, h *Hashing, text string) {
	t.Helper()
	toks := oracleTokenize(text)
	if got := Tokenize(text); !slices.Equal(got, toks) {
		t.Fatalf("Tokenize(%q) = %q, oracle %q", text, got, toks)
	}
	terms := map[string]bool{}
	for i, tok := range toks {
		terms[tok] = true
		if i+1 < len(toks) {
			terms[tok+"_"+toks[i+1]] = true
		}
	}
	perBucket := map[int]int{}
	exact := true
	for term := range terms {
		b, _ := oracleHashTerm(term, h.dim)
		if perBucket[b]++; perBucket[b] > 2 {
			exact = false
		}
	}

	q := h.EmbedSparse(text, vecmath.Sparse{})
	if len(q.Idx) != len(q.Val) || len(q.Idx) != len(perBucket) {
		t.Fatalf("%q: %d indices, %d values, %d touched buckets", text, len(q.Idx), len(q.Val), len(perBucket))
	}
	scattered := make([]float32, h.dim)
	for j, ix := range q.Idx {
		if ix < 0 || int(ix) >= h.dim || j > 0 && ix <= q.Idx[j-1] {
			t.Fatalf("%q: indices not strictly ascending in [0, %d): %v", text, h.dim, q.Idx)
		}
		scattered[ix] = q.Val[j]
	}
	if n := vecmath.Norm(scattered); n != 0 && (n < 0.999 || n > 1.001) {
		t.Fatalf("%q: norm %v, want 0 or 1", text, n)
	}
	if got, want := vecmath.SquaredNorm(q.Val), vecmath.SquaredNorm(scattered); got != want {
		t.Fatalf("%q: sparse squared norm %v, dense %v", text, got, want)
	}
	dense, want := h.Embed(text), oracleEmbed(h, text)
	for i := range want {
		if dense[i] != scattered[i] {
			t.Fatalf("%q: Embed[%d] = %v, scattered EmbedSparse %v", text, i, dense[i], scattered[i])
		}
		if exact && math.Float32bits(dense[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%q: bucket %d = %v, oracle %v", text, i, dense[i], want[i])
		}
		if d := dense[i] - want[i]; d < -1e-4 || d > 1e-4 {
			t.Fatalf("%q: bucket %d = %v, oracle %v (three or more terms share a bucket)", text, i, dense[i], want[i])
		}
	}
}

func parityEmbedders() []*Hashing {
	served := NewHashing(512)
	served.Fit(parityCorpus)
	// d = 8 piles many terms onto each bucket: the tolerance branch, the
	// cancellations and the sweep over a full bucket set.
	return []*Hashing{served, NewHashing(8)}
}

func TestEmbedMatchesOracle(t *testing.T) {
	for _, h := range parityEmbedders() {
		for _, text := range parityTexts {
			checkParity(t, h, text)
		}
	}
}

// FuzzEmbedParity: for any text, Tokenize, EmbedSparse and Embed agree with
// the map-based oracle (see checkParity).
func FuzzEmbedParity(f *testing.F) {
	for _, text := range parityTexts {
		f.Add(text)
	}
	hs := parityEmbedders()
	f.Fuzz(func(t *testing.T, text string) {
		for _, h := range hs {
			checkParity(t, h, text)
		}
	})
}

// TestEmbedBitStable: terms add into a bucket in a fixed order, so one text
// embeds to the same bits every time — at d = 8, where most buckets hold
// three or more terms and the oracle's map order shows.
func TestEmbedBitStable(t *testing.T) {
	h := NewHashing(8)
	h.Fit(parityCorpus)
	const text = "detect the communities of this social network, rank nodes by importance and " +
		"predict the toxicity of every molecule in the knowledge graph database"
	want := h.Embed(text)
	for i := 0; i < 1000; i++ {
		got := h.Embed(text)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("run %d: bucket %d = %v, first run %v", i, j, got[j], want[j])
			}
		}
	}
}

// hostileText is about n distinct tokens, five bytes each.
func hostileText(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		tok := strconv.FormatInt(int64(36*36*36+i), 36)
		sb.WriteString(tok)
		sb.WriteByte(' ')
	}
	return sb.String()
}

// TestHostilePromptLinear: a query is bounded only by the request body, so
// term counting and bucket merging must stay linear in it as the oracle's
// maps are. 150 k distinct tokens through a quadratic structure would take
// minutes; the bound is a multiple of the oracle's own time on this run.
func TestHostilePromptLinear(t *testing.T) {
	text := hostileText(150_000)
	h := NewHashing(512)
	h.Fit(parityCorpus)

	start := time.Now()
	wantToks := oracleTokenize(text)
	oracleTok := time.Since(start)
	start = time.Now()
	want := oracleEmbed(h, text)
	oracleEmb := time.Since(start)

	// Best of three, so one scheduling stall does not decide the ratio.
	var toks []string
	var got []float32
	tok, emb := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 3; i++ {
		start = time.Now()
		toks = Tokenize(text)
		tok = min(tok, time.Since(start))
		start = time.Now()
		got = h.Embed(text)
		emb = min(emb, time.Since(start))
	}

	if !slices.Equal(toks, wantToks) {
		t.Fatalf("Tokenize differs from the oracle on %d tokens", len(wantToks))
	}
	if distinct := map[string]bool{}; true {
		for _, tk := range toks {
			distinct[tk] = true
		}
		if len(distinct) < 100_000 {
			t.Fatalf("fixture has %d distinct tokens, want ≥ 100000", len(distinct))
		}
	}
	for i := range want {
		if d := got[i] - want[i]; d < -1e-4 || d > 1e-4 {
			t.Fatalf("bucket %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	const slack = 4
	if tok > slack*oracleTok || emb > slack*oracleEmb {
		t.Fatalf("Tokenize %v (oracle %v), Embed %v (oracle %v): more than %d× the oracle", tok, oracleTok, emb, oracleEmb, slack)
	}
	t.Logf("Tokenize %v (oracle %v), Embed %v (oracle %v)", tok, oracleTok, emb, oracleEmb)
}
