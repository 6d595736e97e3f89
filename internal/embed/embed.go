// Package embed turns text into dense vectors for the API-retrieval module.
//
// The paper embeds API descriptions and user prompts with an LLM embedding
// model; offline we substitute a deterministic TF-IDF feature-hashing
// embedder. It preserves the property retrieval needs — lexically and
// topically similar texts land near each other — while being reproducible
// and dependency-free.
package embed

import (
	"math"
	"math/bits"
	"sync"
	"unicode"
	"unicode/utf8"

	"chatgraph/internal/vecmath"
)

// Hashing is the embedder: unigram+bigram feature hashing with a
// smoothed IDF table learned from the corpus registered via Fit. It is safe
// for concurrent use after Fit.
type Hashing struct {
	dim int

	mu       sync.RWMutex
	docCount int
	df       map[string]int
	// idfByDF[n] is the smoothed inverse document frequency of a term that
	// n fitted documents contain; Fit rebuilds it, so no query pays a log.
	idfByDF []float32
}

// NewHashing returns a Hashing embedder with the given dimensionality
// (values in the 64–512 range work well; the default used across ChatGraph
// is 128).
func NewHashing(dim int) *Hashing {
	if dim <= 0 {
		dim = 128
	}
	return &Hashing{dim: dim, df: make(map[string]int), idfByDF: []float32{1}}
}

// Fit registers corpus documents so the embedder can weight rare terms more
// heavily (IDF). Calling Fit is optional — without it all terms weigh 1 —
// and may be repeated to extend the corpus.
func (h *Hashing) Fit(docs []string) {
	sc := scannerPool.Get().(*scanner)
	defer scannerPool.Put(sc)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range docs {
		sc.count(d)
		for _, t := range sc.terms[:sc.unigrams] {
			h.df[string(sc.buf[t.off:t.end])]++
		}
		h.docCount++
	}
	h.idfByDF = make([]float32, h.docCount+1)
	for df := range h.idfByDF {
		h.idfByDF[df] = float32(math.Log(float64(1+h.docCount)/float64(1+df))) + 1
	}
}

// EmbedSparse is Embed as the few buckets the text touches, written into
// dst's storage: scattered into a zero vector it is Embed(text) bit for bit.
// Each distinct unigram and bigram is hashed to a bucket with a sign hash (to
// cancel collisions in expectation), weighted by term frequency times IDF,
// and the result is L2-normalized. Terms add into their bucket in order of
// first occurrence, unigrams first, so a text always embeds to the same bits.
func (h *Hashing) EmbedSparse(text string, dst vecmath.Sparse) vecmath.Sparse {
	sc := scannerPool.Get().(*scanner)
	defer scannerPool.Put(sc)
	sc.count(text)
	if len(sc.acc) < h.dim {
		sc.acc, sc.touched = make([]float32, h.dim), make([]uint64, (h.dim+63)/64)
	}
	acc, touched := sc.acc, sc.touched
	// Bigrams sharpen phrase matches but must not drown unigram overlap, so
	// they carry a reduced weight.
	const bigramWeight = 0.35
	h.mu.RLock()
	for i, t := range sc.terms {
		w := float32(1) // 1 + ln count
		if t.count > 1 {
			w = float32(1 + math.Log(float64(t.count)))
		}
		if i < sc.unigrams {
			w *= h.idfByDF[h.df[string(sc.buf[t.off:t.end])]]
		} else {
			w = bigramWeight * w * h.idfByDF[0] // df counts tokens: a bigram is in no document
		}
		if (t.hash>>32)&1 == 1 {
			w = -w
		}
		bucket := t.hash % uint64(h.dim)
		acc[bucket] += w
		touched[bucket/64] |= 1 << (bucket % 64)
	}
	h.mu.RUnlock()
	// Sweep the touched buckets in ascending order, zeroing acc behind.
	dst.Idx, dst.Val = dst.Idx[:0], dst.Val[:0]
	for wi, word := range touched {
		for ; word != 0; word &= word - 1 {
			bucket := wi*64 + bits.TrailingZeros64(word)
			dst.Idx, dst.Val = append(dst.Idx, int32(bucket)), append(dst.Val, acc[bucket])
			acc[bucket] = 0
		}
		touched[wi] = 0
	}
	vecmath.Normalize(dst.Val)
	return dst
}

// Embed returns the deterministic unit-norm vector of the configured
// dimensionality for text: EmbedSparse scattered into a dense vector.
func (h *Hashing) Embed(text string) []float32 {
	v := make([]float32, h.dim)
	q := h.EmbedSparse(text, vecmath.Sparse{Idx: make([]int32, 0, 64), Val: make([]float32, 0, 64)})
	for j, bucket := range q.Idx {
		v[bucket] = q.Val[j]
	}
	return v
}

// EmbedBatch embeds many texts, in order: out[i] is the embedding of
// texts[i].
func (h *Hashing) EmbedBatch(texts []string) [][]float32 {
	out := make([][]float32, len(texts))
	for i, text := range texts {
		out[i] = h.Embed(text)
	}
	return out
}

// Tokenize lowercases, splits on non-alphanumerics, drops stopwords and
// single characters, and applies a light suffix stemmer so "communities"
// and "community" share a token.
func Tokenize(text string) []string {
	sc := scannerPool.Get().(*scanner)
	defer scannerPool.Put(sc)
	sc.scan(text)
	if len(sc.toks) == 0 {
		return nil
	}
	all := string(sc.buf) // one string holds every token
	toks := make([]string, len(sc.toks))
	for i, t := range sc.toks {
		toks[i] = all[t.off:t.end]
	}
	return toks
}

// scanner is the one pass from text to terms that Tokenize, Fit and the
// embeddings share. Pooled, it allocates nothing per text, and every step is
// linear in the text: only the request body bounds a query's length.
type scanner struct {
	// buf is the stemmed tokens in text order, each followed by '_', so a
	// bigram's text is the span from its first token to its second's end.
	buf  []byte
	toks []token
	// terms lists the distinct unigrams (terms[:unigrams]), then the distinct
	// bigrams, each in order of first occurrence; index finds one by hash.
	terms    []token
	unigrams int
	index    map[uint64]int32
	// acc accumulates buckets densely, all zero between texts; touched has
	// a bit per bucket the current text wrote.
	acc     []float32
	touched []uint64
}

// token is the text buf[off:end]; hash, its FNV-1a 64, fixes a term's bucket
// and sign, and count is a term's occurrences.
type token struct {
	off, end int
	hash     uint64
	count    int32
}

var scannerPool = sync.Pool{New: func() any { return new(scanner) }}

// scan tokenizes text into sc.buf and sc.toks, rune by rune as
// strings.ToLower rewrites it: a rune whose lower case is in [a-z0-9] (U+212A
// Kelvin → k, U+0130 → i) extends a token, any other and any bad byte ends it.
func (sc *scanner) scan(text string) {
	sc.buf, sc.toks = sc.buf[:0], sc.toks[:0]
	start := 0
	for _, r := range text {
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r = unicode.ToLower(r)
		}
		if 'a' <= r && r <= 'z' || '0' <= r && r <= '9' {
			sc.buf = append(sc.buf, byte(r))
		} else {
			start = sc.flush(start)
		}
	}
	sc.flush(start)
}

// flush closes the token sc.buf[start:] — dropped if empty, one character
// or a stop-word, stemmed otherwise — and returns where the next one starts.
func (sc *scanner) flush(start int) int {
	tok := sc.buf[start:]
	if len(tok) < 2 || stopwords[string(tok)] {
		sc.buf = sc.buf[:start]
		return start
	}
	tok = stem(tok)
	end := start + len(tok)
	sc.toks = append(sc.toks, token{off: start, end: end, hash: fnv1a(fnvOffset64, tok)})
	sc.buf = append(sc.buf[:end], '_')
	return end + 1
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// fnv1a folds b into the FNV-1a 64 state h.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// count scans text and groups its tokens into sc.terms.
func (sc *scanner) count(text string) {
	sc.scan(text)
	sc.terms = sc.terms[:0]
	if sc.index == nil || len(sc.index) > 256 {
		sc.index = make(map[uint64]int32) // a map never shrinks, and clear pays for its capacity
	}
	clear(sc.index)
	for _, t := range sc.toks {
		sc.add(t)
	}
	sc.unigrams = len(sc.terms)
	for i := 0; i+1 < len(sc.toks); i++ {
		a, b := sc.toks[i], sc.toks[i+1]
		sc.add(token{off: a.off, end: b.end, hash: fnv1a((a.hash^'_')*fnvPrime64, sc.buf[b.off:b.end])})
	}
}

// add counts one occurrence of the term t; two texts that collide in all 64
// hash bits are one term, as they are one bucket and one sign.
func (sc *scanner) add(t token) {
	if id, ok := sc.index[t.hash]; ok {
		sc.terms[id].count++
		return
	}
	sc.index[t.hash] = int32(len(sc.terms))
	t.count = 1
	sc.terms = append(sc.terms, t)
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

// stem strips a few common English suffixes from tok in place and returns
// the shortened token. It is intentionally crude — a full stemmer is
// unnecessary for retrieval over API descriptions.
func stem(tok []byte) []byte {
	n := len(tok)
	switch {
	case hasSuffix(tok, "ies") && n > 4:
		// Re-stem so "communities" → "community" → "commun" agrees with
		// the singular's stem.
		tok[n-3] = 'y'
		return stem(tok[:n-2])
	case hasSuffix(tok, "ity") && n > 6:
		return tok[:n-3]
	case hasSuffix(tok, "ing") && n > 5:
		return tok[:n-3]
	case hasSuffix(tok, "ers") && n > 5:
		return tok[:n-1]
	case hasSuffix(tok, "es") && n > 4 && sibilantBefore(tok):
		return tok[:n-2]
	case hasSuffix(tok, "s") && n > 3 && !hasSuffix(tok, "ss"):
		return tok[:n-1]
	case hasSuffix(tok, "ed") && n > 4:
		return tok[:n-2]
	default:
		return tok
	}
}

func hasSuffix(tok []byte, suffix string) bool {
	return len(tok) >= len(suffix) && string(tok[len(tok)-len(suffix):]) == suffix
}

// sibilantBefore reports whether the stem before a trailing "es" ends in a
// sibilant (s, x, z, ch, sh) — the cases where English actually adds "es".
func sibilantBefore(tok []byte) bool {
	stem := tok[:len(tok)-2]
	return hasSuffix(stem, "s") || hasSuffix(stem, "x") || hasSuffix(stem, "z") ||
		hasSuffix(stem, "ch") || hasSuffix(stem, "sh")
}
