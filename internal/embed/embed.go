// Package embed turns text into dense vectors for the API-retrieval module.
//
// The paper embeds API descriptions and user prompts with an LLM embedding
// model; offline we substitute a deterministic TF-IDF feature-hashing
// embedder. It preserves the property retrieval needs — lexically and
// topically similar texts land near each other — while being reproducible
// and dependency-free. The Embedder interface lets a real model be plugged
// in without touching the retrieval path.
package embed

import (
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"chatgraph/internal/parallel"
	"chatgraph/internal/vecmath"
)

// Embedder converts text to a fixed-dimension vector.
type Embedder interface {
	// Embed returns a deterministic vector for text. Implementations must
	// return unit-norm vectors of Dim() length.
	Embed(text string) []float32
	// Dim reports the embedding dimensionality.
	Dim() int
}

// Hashing is the default Embedder: unigram+bigram feature hashing with a
// smoothed IDF table learned from the corpus registered via Fit. It is safe
// for concurrent use after Fit.
type Hashing struct {
	dim int

	mu       sync.RWMutex
	docCount int
	df       map[string]int
}

// NewHashing returns a Hashing embedder with the given dimensionality
// (values in the 64–512 range work well; the default used across ChatGraph
// is 128).
func NewHashing(dim int) *Hashing {
	if dim <= 0 {
		dim = 128
	}
	return &Hashing{dim: dim, df: make(map[string]int)}
}

// Dim implements Embedder.
func (h *Hashing) Dim() int { return h.dim }

// Fit registers corpus documents so the embedder can weight rare terms more
// heavily (IDF). Calling Fit is optional — without it all terms weigh 1 —
// and may be repeated to extend the corpus.
func (h *Hashing) Fit(docs []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range docs {
		seen := make(map[string]bool)
		for _, tok := range Tokenize(d) {
			seen[tok] = true
		}
		for tok := range seen {
			h.df[tok]++
		}
		h.docCount++
	}
}

// idf returns the smoothed inverse document frequency of tok.
func (h *Hashing) idf(tok string) float32 {
	if h.docCount == 0 {
		return 1
	}
	df := h.df[tok]
	return float32(math.Log(float64(1+h.docCount)/float64(1+df))) + 1
}

// Embed implements Embedder. Each unigram and bigram is hashed to a bucket
// with a sign hash (to cancel collisions in expectation), weighted by term
// frequency times IDF, and the result is L2-normalized.
func (h *Hashing) Embed(text string) []float32 {
	toks := Tokenize(text)
	v := make([]float32, h.dim)
	if len(toks) == 0 {
		return v
	}
	tf := make(map[string]float32)
	for _, t := range toks {
		tf[t]++
	}
	// Bigrams sharpen phrase matches but must not drown unigram overlap,
	// so they carry a reduced weight.
	const bigramWeight = 0.35
	bigrams := make(map[string]float32)
	for i := 0; i+1 < len(toks); i++ {
		bigrams[toks[i]+"_"+toks[i+1]]++
	}
	h.mu.RLock()
	for term, f := range tf {
		bucket, sign := hashTerm(term, h.dim)
		w := float32(1+math.Log(float64(f))) * h.idf(term)
		v[bucket] += sign * w
	}
	for term, f := range bigrams {
		bucket, sign := hashTerm(term, h.dim)
		w := bigramWeight * float32(1+math.Log(float64(f))) * h.idf(term)
		v[bucket] += sign * w
	}
	h.mu.RUnlock()
	return vecmath.Normalize(v)
}

// EmbedBatch embeds many texts in one call, fanning them across a bounded
// worker pool (at most GOMAXPROCS goroutines). Embed only takes the IDF
// read-lock, so workers never contend on writes; out[i] is the embedding of
// texts[i]. It is the companion to ann.SearchBatch on the batched
// retrieval path.
func (h *Hashing) EmbedBatch(texts []string) [][]float32 {
	out := make([][]float32, len(texts))
	parallel.ForEach(len(texts), func(i int) {
		out[i] = h.Embed(texts[i])
	})
	return out
}

// hashTerm maps a term to (bucket, ±1) using two independent FNV hashes.
func hashTerm(term string, dim int) (int, float32) {
	hh := fnv.New64a()
	hh.Write([]byte(term)) //nolint:errcheck // fnv never errors
	sum := hh.Sum64()
	bucket := int(sum % uint64(dim))
	sign := float32(1)
	if (sum>>32)&1 == 1 {
		sign = -1
	}
	return bucket, sign
}

// stopwords are dropped during tokenization; they carry no retrieval signal
// and otherwise dominate short prompts ("what is the ... of the ...").
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "is": true, "are": true, "of": true,
	"in": true, "to": true, "for": true, "and": true, "or": true, "on": true,
	"it": true, "its": true, "this": true, "that": true, "be": true,
	"with": true, "by": true, "as": true, "at": true, "from": true,
	"do": true, "does": true, "please": true, "me": true, "my": true,
	"i": true, "you": true, "your": true, "we": true, "us": true,
	"what": true, "which": true, "how": true, "can": true, "could": true,
	"would": true, "will": true, "there": true,
}

// Tokenize lowercases, splits on non-alphanumerics, drops stopwords and
// single characters, and applies a light suffix stemmer so "communities"
// and "community" share a token.
func Tokenize(text string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		tok := cur.String()
		cur.Reset()
		if len(tok) < 2 || stopwords[tok] {
			return
		}
		toks = append(toks, stem(tok))
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}

// stem strips a few common English suffixes. It is intentionally crude — a
// full stemmer is unnecessary for retrieval over API descriptions.
func stem(tok string) string {
	switch {
	case strings.HasSuffix(tok, "ies") && len(tok) > 4:
		// Re-stem so "communities" → "community" → "commun" agrees with
		// the singular's stem.
		return stem(tok[:len(tok)-3] + "y")
	case strings.HasSuffix(tok, "ity") && len(tok) > 6:
		return tok[:len(tok)-3]
	case strings.HasSuffix(tok, "ing") && len(tok) > 5:
		return tok[:len(tok)-3]
	case strings.HasSuffix(tok, "ers") && len(tok) > 5:
		return tok[:len(tok)-1]
	case strings.HasSuffix(tok, "es") && len(tok) > 4 && sibilantBefore(tok):
		return tok[:len(tok)-2]
	case strings.HasSuffix(tok, "s") && len(tok) > 3 && !strings.HasSuffix(tok, "ss"):
		return tok[:len(tok)-1]
	case strings.HasSuffix(tok, "ed") && len(tok) > 4:
		return tok[:len(tok)-2]
	default:
		return tok
	}
}

// sibilantBefore reports whether the stem before a trailing "es" ends in a
// sibilant (s, x, z, ch, sh) — the cases where English actually adds "es".
func sibilantBefore(tok string) bool {
	stem := tok[:len(tok)-2]
	return strings.HasSuffix(stem, "s") || strings.HasSuffix(stem, "x") ||
		strings.HasSuffix(stem, "z") || strings.HasSuffix(stem, "ch") ||
		strings.HasSuffix(stem, "sh")
}

// Similarity returns the cosine similarity between the embeddings of a and b
// under e.
func Similarity(e Embedder, a, b string) float32 {
	return vecmath.Cosine(e.Embed(a), e.Embed(b))
}
