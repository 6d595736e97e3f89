package finetune

import (
	"slices"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

// Beam-search decoding: instead of committing to the single best next API at
// each position (Decode), keep the `width` highest-scoring partial chains
// and return the best-scoring completed one. Beam decoding trades latency
// for accuracy on questions where the first token is ambiguous; the
// BenchmarkDecodingStrategies ablation quantifies the trade.

// beam is one partial chain of the search, as API ids. ids is never written
// after creation, so a finished beam carried into the next step shares it.
type beam struct {
	ids   []int
	score float64
	done  bool
}

// DecodeBeam generates a chain with beam search of the given width
// (width ≤ 1 falls back to greedy Decode). maxLen ≤ 0 means 8.
func (m *Model) DecodeBeam(question string, kind graph.Kind, maxLen, width int) chain.Chain {
	if width <= 1 {
		return m.Decode(question, kind, maxLen)
	}
	if maxLen <= 0 {
		maxLen = 8
	}
	q := m.newQuery(question, kind)
	// One step's continuations are numbered beam*(v+1)+token, token v being
	// "this beam as it is" (ended now, or finished earlier), so the bounded
	// select that ranks APIs also ranks continuations, and only the width
	// survivors are materialised.
	v := len(m.vocab)
	beams := []beam{{}}
	sel := make([]scored, 0, width)
	for step := 0; step < maxLen; step++ {
		sel = sel[:0]
		expanded := false
		for bi, b := range beams {
			if b.done {
				sel = pushTop(sel, width, scored{bi*(v+1) + v, b.score})
				continue
			}
			row := q.logRow(q.prevOf(b.ids))
			// Ending is one candidate continuation (only for non-empty
			// chains: every question needs at least one API).
			if len(b.ids) > 0 {
				sel = pushTop(sel, width, scored{bi*(v+1) + v, b.score + row[v]})
			}
			q.mark(b.ids, true)
			for api, used := range q.used {
				if used {
					continue
				}
				expanded = true
				sel = pushTop(sel, width, scored{bi*(v+1) + api, b.score + q.score(row, api)})
			}
			q.mark(b.ids, false)
		}
		next := make([]beam, len(sel))
		allDone := true
		for i, x := range sel {
			b, tok := beams[x.id/(v+1)], x.id%(v+1)
			if tok == v {
				next[i] = beam{ids: b.ids, score: x.s, done: true}
				continue
			}
			allDone = false
			next[i] = beam{ids: append(slices.Clip(b.ids), tok), score: x.s}
		}
		beams = next
		if !expanded || allDone {
			break
		}
	}
	// Prefer the best finished beam; fall back to the best overall.
	best := slices.IndexFunc(beams, func(b beam) bool { return b.done && len(b.ids) > 0 })
	if best < 0 {
		best = slices.IndexFunc(beams, func(b beam) bool { return len(b.ids) > 0 })
	}
	if best < 0 {
		return nil
	}
	c := make(chain.Chain, len(beams[best].ids))
	for i, id := range beams[best].ids {
		c[i] = chain.Step{API: m.vocab[id]}
	}
	return c
}

// EvaluateBeam mirrors Evaluate using beam decoding with the given width.
func EvaluateBeam(m *Model, test []Example, alpha float64, width int) EvalResult {
	res := EvalResult{Examples: len(test)}
	if len(test) == 0 {
		return res
	}
	for _, ex := range test {
		pred := m.DecodeBeam(ex.Question, ex.Kind, 8, width)
		loss, idx := chain.MinLoss(pred, ex.Truths, alpha)
		res.MeanLoss += loss
		if idx >= 0 {
			res.MeanGED += chain.EditDistance(pred, ex.Truths[idx])
		}
		for _, truth := range ex.Truths {
			if sameAPIs(pred, truth) {
				res.ExactMatch++
				break
			}
		}
	}
	n := float64(len(test))
	res.ExactMatch /= n
	res.MeanLoss /= n
	res.MeanGED /= n
	return res
}
