package finetune

import (
	"math"

	"chatgraph/internal/chain"
	"chatgraph/internal/embed"
	"chatgraph/internal/graph"
)

// query is a Model seen from one (question, kind): the parts of the score
// that do not depend on the position in the chain are computed once per API,
// and the log transition row of a prev is computed the first time a chain
// stands on it. Generation and rollout search score the same few prevs
// thousands of times for one question, so a score is two adds.
//
// A query is built per call and never stored on the Model, which is what
// lets concurrent Decodes share a model; the Model must not be Observed
// while a query on it is in use.
type query struct {
	m *Model
	// aff4[api] and prior2[api] are the score's 4*aff and 2*prior terms.
	aff4, prior2 []float64
	// logT[prev+1] is log(transP) for every API after prev, with the end
	// token's in the last slot; nil until needed. Slot 0 stands for a prev
	// the model has never seen.
	logT [][]float64
	// used marks the APIs of the chain being extended, while it is scanned.
	used []bool
	// sel is top's result buffer.
	sel []scored
}

// scored is an id with its score.
type scored struct {
	id int
	s  float64
}

func (m *Model) newQuery(question string, kind graph.Kind) *query {
	v := len(m.vocab)
	buf := make([]float64, 2*v)
	q := &query{
		m:      m,
		aff4:   buf[:v],
		prior2: buf[v:],
		logT:   make([][]float64, len(m.trans)+1),
		used:   make([]bool, v),
	}
	for _, tok := range embed.Tokenize(question) {
		if r := m.affinity[tok]; r != nil && r.tot > 0 {
			for api := range q.aff4 {
				q.aff4[api] += r.w[api] / r.tot
			}
		}
	}
	for api := range q.aff4 {
		q.aff4[api] *= 4
	}
	if r := m.kindPrior[kind]; r != nil && r.tot > 0 {
		for api := range q.prior2 {
			q.prior2[api] = 2 * (r.w[api] / r.tot)
		}
	}
	return q
}

// logRow returns the smoothed log transition probabilities out of prev
// (-1: a prev with no observations). Laplace smoothing keeps unseen
// transitions possible.
func (q *query) logRow(prev int) []float64 {
	if r := q.logT[prev+1]; r != nil {
		return r
	}
	const eps = 0.1
	v := len(q.m.vocab)
	var tr *row
	if prev >= 0 {
		tr = q.m.trans[prev]
	} else {
		tr = q.m.newRow()
	}
	den := tr.tot + eps*float64(v+1)
	r := make([]float64, v+1)
	for api := 0; api < v; api++ {
		r[api] = math.Log((tr.w[api] + eps) / den)
	}
	r[v] = math.Log((tr.w[q.m.end()] + eps) / den)
	q.logT[prev+1] = r
	return r
}

// score is the model's (log-space) preference for api given the log
// transition row of the previous token. The affinity and prior weights must
// be strong enough that what the question asks for overrides the raw
// transition mass of unrelated but frequent tasks.
func (q *query) score(logRow []float64, api int) float64 {
	return logRow[api] + q.aff4[api] + q.prior2[api]
}

// prevOf is the token a chain of these ids stands on.
func (q *query) prevOf(ids []int) int {
	if len(ids) == 0 {
		return q.m.start()
	}
	return ids[len(ids)-1]
}

// top returns the k highest-scoring successors of the chain ids, best first
// and by name among equals; API chains do not revisit an API, so the chain's
// own are skipped. The result is valid until the next call.
func (q *query) top(ids []int, k int) []scored {
	q.mark(ids, true)
	row := q.logRow(q.prevOf(ids))
	q.sel = q.sel[:0]
	for api, used := range q.used {
		if !used {
			q.sel = pushTop(q.sel, k, scored{api, q.score(row, api)})
		}
	}
	q.mark(ids, false)
	return q.sel
}

// mark sets q.used for the chain's APIs; ids outside the vocabulary (never
// emitted, so never candidates) have no slot.
func (q *query) mark(ids []int, used bool) {
	for _, id := range ids {
		if id >= 0 && id < len(q.used) {
			q.used[id] = used
		}
	}
}

// pushTop inserts x into top, which holds at most k entries by descending
// score, behind every entry scoring at least as much: equal scores stay in
// the order they were offered (id order, for top), as a stable sort would
// leave them.
func pushTop(top []scored, k int, x scored) []scored {
	if len(top) == k {
		if k == 0 || x.s <= top[k-1].s {
			return top
		}
		top = top[:k-1]
	}
	i := len(top)
	top = append(top, x)
	for ; i > 0 && top[i-1].s < x.s; i-- {
		top[i] = top[i-1]
	}
	top[i] = x
	return top
}

// walk is the one chain a generation extends and rolls back, kept both as
// ids for scoring and as the chain.Chain the loss reads. Rollouts truncate
// and re-extend it in place.
type walk struct {
	vocab []string
	ids   []int
	c     chain.Chain
}

func (m *Model) newWalk(maxLen int) *walk {
	return &walk{vocab: m.vocab, ids: make([]int, 0, maxLen), c: make(chain.Chain, 0, maxLen)}
}

func (w *walk) push(api int) {
	w.ids = append(w.ids, api)
	w.c = append(w.c, chain.Step{API: w.vocab[api]})
}

func (w *walk) truncate(n int) {
	w.ids, w.c = w.ids[:n], w.c[:n]
}

// greedyComplete extends w with the model's highest-scoring successor until
// the end token scores at least as well (never on an empty chain — every
// question needs at least one API) or maxLen is hit.
func (q *query) greedyComplete(w *walk, maxLen int) {
	for len(w.ids) < maxLen {
		best := q.top(w.ids, 1)
		if len(best) == 0 {
			break
		}
		if len(w.ids) > 0 && q.logRow(q.prevOf(w.ids))[len(q.m.vocab)] >= best[0].s {
			break
		}
		w.push(best[0].id)
	}
}
