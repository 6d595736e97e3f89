package finetune

import (
	"math"
	"math/rand"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

// This file implements the paper's search-based prediction: chain generation
// iteratively extends a partial chain; in each iteration every candidate API
// a is scored by r random rollouts that complete Cp+{a} into a full chain,
// and the smallest node-matching loss against any ground-truth chain scores
// a (smaller is better). The best-scoring API is appended; generation stops
// when the end token wins or the length cap is hit.

// SearchConfig tunes the rollout search.
type SearchConfig struct {
	// Rollouts is r, the random completions per candidate (0 = greedy
	// scoring without rollouts, the ablation baseline).
	Rollouts int
	// Alpha weighs the one-to-one regularizer in the loss (0 → 0.5).
	Alpha float64
}

const (
	// searchCandidates bounds the candidate set S per iteration.
	searchCandidates = 6
	// searchMaxLen caps generated chains.
	searchMaxLen = 8
)

func (c *SearchConfig) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
}

// SearchPredict generates a chain for the question using rollout search
// against the ground-truth chains, as done during finetuning. With
// cfg.Rollouts == 0 it degenerates to scoring each candidate by the loss of
// the partial chain alone (no lookahead) — the ablation baseline.
func SearchPredict(m *Model, question string, kind graph.Kind, truths []chain.Chain, cfg SearchConfig, rng *rand.Rand) chain.Chain {
	cfg.setDefaults()
	// The model is constant for the whole search, so one query serves every
	// candidate and rollout.
	s := &search{q: m.newQuery(question, kind), w: m.newWalk(searchMaxLen), truths: truths, cfg: cfg, rng: rng}
	w := s.w
	cands := make([]scored, 0, searchCandidates)
	for len(w.ids) < searchMaxLen {
		n := len(w.ids)
		cands = append(cands[:0], s.q.top(w.ids, searchCandidates)...)
		if len(cands) == 0 {
			break
		}
		bestAPI, bestLoss := -1, math.Inf(1)
		for _, cand := range cands {
			w.push(cand.id)
			if loss := s.rolloutScore(); loss < bestLoss {
				bestAPI, bestLoss = cand.id, loss
			}
			w.truncate(n)
		}
		// Consider stopping: the loss of the partial chain as-is. With no
		// truths every loss is +Inf and no candidate is ever best.
		if bestAPI < 0 || n > 0 && s.loss() <= bestLoss {
			break
		}
		w.push(bestAPI)
	}
	if len(w.c) == 0 {
		return nil
	}
	return w.c
}

// search is the state of one SearchPredict: the question's query, the chain
// being grown (which every rollout extends and rolls back in place), and the
// arguments the rollouts share.
type search struct {
	q      *query
	w      *walk
	truths []chain.Chain
	cfg    SearchConfig
	rng    *rand.Rand
}

// rolloutScore estimates how promising the walk's current prefix is: the
// minimum, over r random model-guided completions, of the smallest loss
// against any ground truth. r == 0 scores the prefix directly.
func (s *search) rolloutScore() float64 {
	n := len(s.w.ids)
	// Two completions are always considered besides the random rollouts:
	// the trivial one ("stop now") and the model-greedy one. They anchor
	// the estimate so that a lucky random completion of a bad prefix
	// cannot beat a good prefix whose rollouts happened to miss.
	best := s.loss()
	s.q.greedyComplete(s.w, searchMaxLen)
	best = min(best, s.loss())
	for i := 0; i < s.cfg.Rollouts; i++ {
		s.w.truncate(n)
		s.randomComplete()
		best = min(best, s.loss())
	}
	s.w.truncate(n)
	return best
}

// loss is the walk's smallest loss against any ground truth.
func (s *search) loss() float64 {
	l, _ := chain.MinLoss(s.w.c, s.truths, s.cfg.Alpha)
	return l
}

// randomComplete extends the walk to a full chain by sampling successors
// from the model's top candidates until the end token is sampled or
// searchMaxLen hit.
func (s *search) randomComplete() {
	for len(s.w.ids) < searchMaxLen {
		// Sample among top-4 candidates plus a stop chance that grows with
		// length, approximating the model's end-token probability mass.
		if s.rng.Float64() < 0.15*float64(len(s.w.ids)) {
			break
		}
		cands := s.q.top(s.w.ids, 4)
		if len(cands) == 0 {
			break
		}
		s.w.push(cands[s.rng.Intn(len(cands))].id)
	}
}

// TrainConfig tunes Train.
type TrainConfig struct {
	// Epochs of rollout-refinement after count initialization; 0 leaves
	// the count-initialized model.
	Epochs int
	// Search configures the per-example rollout search during refinement.
	Search SearchConfig
	// Seed drives the training RNG.
	Seed int64
}

// Train fits a Model on examples: transition/affinity counts are initialized
// from every ground-truth chain, then each refinement epoch runs the
// search-based prediction on every example and reinforces the predicted
// chain weighted by exp(−loss) — low-loss predictions (which the rollout
// search finds more reliably with larger r) sharpen the model, high-loss
// ones barely move it.
func Train(vocab []string, examples []Example, cfg TrainConfig) *Model {
	m := NewModel(vocab)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, ex := range examples {
		for _, truth := range ex.Truths {
			m.Observe(ex.Question, ex.Kind, truth, 1)
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, ex := range examples {
			pred := SearchPredict(m, ex.Question, ex.Kind, ex.Truths, cfg.Search, rng)
			loss, _ := chain.MinLoss(pred, ex.Truths, cfg.Search.Alpha)
			if math.IsInf(loss, 1) {
				continue
			}
			m.Observe(ex.Question, ex.Kind, pred, math.Exp(-loss))
		}
	}
	return m
}

// EvalResult aggregates prediction quality over a test set (benchmark E7).
type EvalResult struct {
	Examples int
	// ExactMatch is the fraction whose decoded chain equals some truth
	// exactly (API sequence).
	ExactMatch float64
	// MeanLoss is the average node-matching loss against the closest truth.
	MeanLoss float64
	// MeanGED is the average edit distance to the closest truth.
	MeanGED float64
}

// Evaluate decodes every test question greedily and scores it against the
// ground truths.
func Evaluate(m *Model, test []Example, alpha float64) EvalResult {
	res := EvalResult{Examples: len(test)}
	if len(test) == 0 {
		return res
	}
	for _, ex := range test {
		pred := m.Decode(ex.Question, ex.Kind, 8)
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

func sameAPIs(a, b chain.Chain) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].API != b[i].API {
			return false
		}
	}
	return true
}

// EvaluateByTask returns a per-task EvalResult breakdown, so experiments can
// see which question families the model handles and which it misses.
func EvaluateByTask(m *Model, test []Example, alpha float64) map[string]EvalResult {
	byTask := make(map[string][]Example)
	for _, ex := range test {
		byTask[ex.Task] = append(byTask[ex.Task], ex)
	}
	out := make(map[string]EvalResult, len(byTask))
	for task, exs := range byTask {
		out[task] = Evaluate(m, exs, alpha)
	}
	return out
}
