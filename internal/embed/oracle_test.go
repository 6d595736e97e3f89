package embed

import (
	"hash/fnv"
	"math"
	"strings"

	"chatgraph/internal/vecmath"
)

// The map-and-string embedder the scanner replaced, kept verbatim (names
// aside) as the parity oracle: every test and fuzz target that says
// "oracle" compares the served code against these functions.

// oracleIDF returns the smoothed inverse document frequency of tok.
func oracleIDF(h *Hashing, tok string) float32 {
	if h.docCount == 0 {
		return 1
	}
	df := h.df[tok]
	return float32(math.Log(float64(1+h.docCount)/float64(1+df))) + 1
}

// oracleEmbed hashes each unigram and bigram to a bucket with a sign hash,
// weights it by term frequency times IDF, and L2-normalizes the result. The
// terms add in map order, so three or more terms of different weight in one
// bucket can round differently from run to run.
func oracleEmbed(h *Hashing, text string) []float32 {
	toks := oracleTokenize(text)
	v := make([]float32, h.dim)
	if len(toks) == 0 {
		return v
	}
	tf := make(map[string]float32)
	for _, t := range toks {
		tf[t]++
	}
	const bigramWeight = 0.35
	bigrams := make(map[string]float32)
	for i := 0; i+1 < len(toks); i++ {
		bigrams[toks[i]+"_"+toks[i+1]]++
	}
	h.mu.RLock()
	for term, f := range tf {
		bucket, sign := oracleHashTerm(term, h.dim)
		w := float32(1+math.Log(float64(f))) * oracleIDF(h, term)
		v[bucket] += sign * w
	}
	for term, f := range bigrams {
		bucket, sign := oracleHashTerm(term, h.dim)
		w := bigramWeight * float32(1+math.Log(float64(f))) * oracleIDF(h, term)
		v[bucket] += sign * w
	}
	h.mu.RUnlock()
	return vecmath.Normalize(v)
}

// oracleHashTerm maps a term to (bucket, ±1) using two independent FNV hashes.
func oracleHashTerm(term string, dim int) (int, float32) {
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

func oracleTokenize(text string) []string {
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
		toks = append(toks, oracleStem(tok))
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

func oracleStem(tok string) string {
	switch {
	case strings.HasSuffix(tok, "ies") && len(tok) > 4:
		return oracleStem(tok[:len(tok)-3] + "y")
	case strings.HasSuffix(tok, "ity") && len(tok) > 6:
		return tok[:len(tok)-3]
	case strings.HasSuffix(tok, "ing") && len(tok) > 5:
		return tok[:len(tok)-3]
	case strings.HasSuffix(tok, "ers") && len(tok) > 5:
		return tok[:len(tok)-1]
	case strings.HasSuffix(tok, "es") && len(tok) > 4 && oracleSibilantBefore(tok):
		return tok[:len(tok)-2]
	case strings.HasSuffix(tok, "s") && len(tok) > 3 && !strings.HasSuffix(tok, "ss"):
		return tok[:len(tok)-1]
	case strings.HasSuffix(tok, "ed") && len(tok) > 4:
		return tok[:len(tok)-2]
	default:
		return tok
	}
}

func oracleSibilantBefore(tok string) bool {
	stem := tok[:len(tok)-2]
	return strings.HasSuffix(stem, "s") || strings.HasSuffix(stem, "x") ||
		strings.HasSuffix(stem, "z") || strings.HasSuffix(stem, "ch") ||
		strings.HasSuffix(stem, "sh")
}
