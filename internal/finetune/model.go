package finetune

import (
	"slices"

	"chatgraph/internal/chain"
	"chatgraph/internal/embed"
	"chatgraph/internal/graph"
)

// startToken and endToken frame every chain in the transition model.
const (
	startToken = "<start>"
	endToken   = "<end>"
)

// row is one dense weight row indexed by API id, with its running total.
// The total only changes in add, so scoring never re-sums a row, and it
// accumulates in Observe order, so it does not depend on the process.
type row struct {
	w   []float64
	tot float64
}

func (r *row) add(id int, w float64) {
	if id >= len(r.w) {
		r.w = append(r.w, make([]float64, id+1-len(r.w))...)
	}
	r.w[id] += w
	r.tot += w
}

// Model is the chain-generation model the finetuning produces: a smoothed
// bigram transition model over API tokens combined with question-keyword
// affinities and graph-kind priors. It is the offline stand-in for the
// finetuned LLM head — small, deterministic, and trained with exactly the
// signals the paper describes (node-matching loss via rollout search).
//
// Every API has a small integer id and every weight row is a []float64
// indexed by it: the sorted vocabulary takes ids 0..V-1 (so id order is name
// order), <start> is V, <end> is V+1, and a name outside the vocabulary is
// interned from V+2 when Observe first sees it. Such a name counts toward
// row totals but is never emitted. Every row has at least V+2 entries.
//
// Observe mutates the model; everything else only reads it, so a trained
// model may be decoded from any number of goroutines.
type Model struct {
	// vocab is every API name the model may emit, sorted; vocab[id] names id.
	vocab []string
	// ids maps a name (vocabulary, frame token or interned) to its id.
	ids map[string]int
	// trans[prev].w[next] are transition weights (pseudo-counts).
	trans []*row
	// affinity[token].w[api] links question keywords to APIs.
	affinity map[string]*row
	// kindPrior[kind].w[api] links graph kinds to APIs.
	kindPrior map[graph.Kind]*row
}

// NewModel returns an empty model over the given API vocabulary.
func NewModel(vocab []string) *Model {
	v := slices.Clone(vocab)
	slices.Sort(v)
	v = slices.Compact(v)
	m := &Model{
		vocab:     v,
		ids:       make(map[string]int, len(v)+2),
		affinity:  make(map[string]*row),
		kindPrior: make(map[graph.Kind]*row),
	}
	for _, name := range v {
		m.intern(name)
	}
	m.intern(startToken)
	m.intern(endToken)
	return m
}

func (m *Model) start() int { return len(m.vocab) }
func (m *Model) end() int   { return len(m.vocab) + 1 }

// newRow returns an empty row wide enough for every id known so far.
func (m *Model) newRow() *row {
	return &row{w: make([]float64, max(len(m.ids), len(m.vocab)+2))}
}

// intern returns the id of name, assigning the next one (and its transition
// row) on first sight.
func (m *Model) intern(name string) int {
	id, ok := m.ids[name]
	if !ok {
		id = len(m.ids)
		m.ids[name] = id
		m.trans = append(m.trans, m.newRow())
	}
	return id
}

// Observe reinforces the model with one (question, kind, chain) triple at
// weight w. Training calls this for ground-truth chains (w = 1) and for
// search-predicted chains scaled by their loss.
func (m *Model) Observe(question string, kind graph.Kind, c chain.Chain, w float64) {
	if len(c) == 0 || w <= 0 {
		return
	}
	toks := embed.Tokenize(question)
	affs := make([]*row, len(toks))
	for i, tok := range toks {
		if m.affinity[tok] == nil {
			m.affinity[tok] = m.newRow()
		}
		affs[i] = m.affinity[tok]
	}
	if m.kindPrior[kind] == nil {
		m.kindPrior[kind] = m.newRow()
	}
	prior := m.kindPrior[kind]
	prev := m.start()
	for _, s := range c {
		api := m.intern(s.API)
		m.trans[prev].add(api, w)
		prev = api
		for _, aff := range affs {
			aff.add(api, w)
		}
		prior.add(api, w)
	}
	m.trans[prev].add(m.end(), w)
}

// Decode greedily generates a chain for the question: at each position the
// highest-scoring next token (API or end) is taken. maxLen caps the length
// (0 means 8). Steps are emitted without arguments; the session layer fills
// scenario-specific arguments.
func (m *Model) Decode(question string, kind graph.Kind, maxLen int) chain.Chain {
	if maxLen <= 0 {
		maxLen = 8
	}
	q := m.newQuery(question, kind)
	w := m.newWalk(maxLen)
	q.greedyComplete(w, maxLen)
	if len(w.c) == 0 {
		return nil
	}
	return w.c
}
