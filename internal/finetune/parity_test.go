package finetune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chatgraph/internal/chain"
	"chatgraph/internal/embed"
	"chatgraph/internal/graph"
)

// TopCandidates and id give the tests a by-name view of query.top, the
// ranking the rollout search draws its candidate set from, so the dense
// model's ranking can be compared with the oracle's after any partial chain.

// id returns the id of name, or -1 for a name the model has never seen.
func (m *Model) id(name string) int {
	if id, ok := m.ids[name]; ok {
		return id
	}
	return -1
}

// TopCandidates returns the k APIs the model ranks highest as successors of
// the current partial chain — the candidate set S of the paper's
// search-based prediction. k ≤ 0 returns nil.
func (m *Model) TopCandidates(partial chain.Chain, question string, kind graph.Kind, k int) []string {
	if k <= 0 {
		return nil
	}
	ids := make([]int, len(partial))
	for i, s := range partial {
		ids[i] = m.id(s.API)
	}
	top := m.newQuery(question, kind).top(ids, k)
	out := make([]string, len(top))
	for i, t := range top {
		out[i] = m.vocab[t.id]
	}
	return out
}

// The map-based model below is the implementation the dense Model replaced,
// kept verbatim (renamed, otherwise unchanged) as the reference the parity
// tests compare against: same Observe, score, Decode, TopCandidates,
// rollout search and Train, over
// map[string]map[string]float64 rows whose totals are re-summed on every
// score.

// mapModel is the oracle's Model.
type mapModel struct {
	// trans[prev][next] are transition weights (pseudo-counts).
	trans map[string]map[string]float64
	// affinity[token][api] links question keywords to APIs.
	affinity map[string]map[string]float64
	// kindPrior[kind][api] links graph kinds to APIs.
	kindPrior map[graph.Kind]map[string]float64
	// vocab is every API name the model may emit.
	vocab []string
}

// NewModel returns an empty model over the given API vocabulary.
func newMapModel(vocab []string) *mapModel {
	v := append([]string(nil), vocab...)
	sort.Strings(v)
	return &mapModel{
		trans:     make(map[string]map[string]float64),
		affinity:  make(map[string]map[string]float64),
		kindPrior: make(map[graph.Kind]map[string]float64),
		vocab:     v,
	}
}

func mapBump(m map[string]map[string]float64, a, b string, w float64) {
	if m[a] == nil {
		m[a] = make(map[string]float64)
	}
	m[a][b] += w
}

// Observe reinforces the model with one (question, kind, chain) triple at
// weight w. Training calls this for ground-truth chains (w = 1) and for
// search-predicted chains scaled by their loss.
func (m *mapModel) Observe(question string, kind graph.Kind, c chain.Chain, w float64) {
	if len(c) == 0 || w <= 0 {
		return
	}
	prev := startToken
	for _, s := range c {
		mapBump(m.trans, prev, s.API, w)
		prev = s.API
		for _, tok := range embed.Tokenize(question) {
			mapBump(m.affinity, tok, s.API, w)
		}
		if m.kindPrior[kind] == nil {
			m.kindPrior[kind] = make(map[string]float64)
		}
		m.kindPrior[kind][s.API] += w
	}
	mapBump(m.trans, prev, endToken, w)
}

// score returns the model's (log-space) preference for api following prev
// given the question tokens and graph kind. Laplace smoothing keeps unseen
// transitions possible.
func (m *mapModel) score(prev, api string, qTokens []string, kind graph.Kind) float64 {
	const eps = 0.1
	row := m.trans[prev]
	var rowTotal float64
	for _, v := range row {
		rowTotal += v
	}
	transP := (row[api] + eps) / (rowTotal + eps*float64(len(m.vocab)+1))
	var aff float64
	for _, tok := range qTokens {
		if am := m.affinity[tok]; am != nil {
			var tot float64
			for _, v := range am {
				tot += v
			}
			if tot > 0 {
				aff += am[api] / tot
			}
		}
	}
	var prior float64
	if km := m.kindPrior[kind]; km != nil {
		var tot float64
		for _, v := range km {
			tot += v
		}
		if tot > 0 {
			prior = km[api] / tot
		}
	}
	// The affinity and prior weights must be strong enough that what the
	// question asks for overrides the raw transition mass of unrelated but
	// frequent tasks.
	return math.Log(transP) + 4*aff + 2*prior
}

// scoreEnd is the score of terminating after prev.
func (m *mapModel) scoreEnd(prev string) float64 {
	const eps = 0.1
	row := m.trans[prev]
	var rowTotal float64
	for _, v := range row {
		rowTotal += v
	}
	return math.Log((row[endToken] + eps) / (rowTotal + eps*float64(len(m.vocab)+1)))
}

// Decode greedily generates a chain for the question: at each position the
// highest-scoring next token (API or end) is taken. maxLen caps the length
// (0 means 8). Steps are emitted without arguments; the session layer fills
// scenario-specific arguments.
func (m *mapModel) Decode(question string, kind graph.Kind, maxLen int) chain.Chain {
	if maxLen <= 0 {
		maxLen = 8
	}
	qTokens := embed.Tokenize(question)
	var c chain.Chain
	used := make(map[string]bool, maxLen)
	prev := startToken
	for len(c) < maxLen {
		bestAPI, bestScore := "", math.Inf(-1)
		for _, api := range m.vocab {
			if used[api] {
				continue // API chains do not revisit an API
			}
			if s := m.score(prev, api, qTokens, kind); s > bestScore {
				bestAPI, bestScore = api, s
			}
		}
		// Terminate when ending beats every continuation (never on an
		// empty chain — every question needs at least one API).
		if len(c) > 0 && m.scoreEnd(prev) >= bestScore {
			break
		}
		if bestAPI == "" {
			break
		}
		c = append(c, chain.Step{API: bestAPI})
		used[bestAPI] = true
		prev = bestAPI
	}
	return c
}

// TopCandidates returns the k APIs the model ranks highest as successors of
// the current partial chain — the candidate set S of the paper's
// search-based prediction.
func (m *mapModel) TopCandidates(partial chain.Chain, question string, kind graph.Kind, k int) []string {
	prev := startToken
	used := make(map[string]bool, len(partial))
	for _, s := range partial {
		used[s.API] = true
	}
	if len(partial) > 0 {
		prev = partial[len(partial)-1].API
	}
	qTokens := embed.Tokenize(question)
	type scored struct {
		api string
		s   float64
	}
	ss := make([]scored, 0, len(m.vocab))
	for _, api := range m.vocab {
		if used[api] {
			continue // API chains do not revisit an API
		}
		ss = append(ss, scored{api, m.score(prev, api, qTokens, kind)})
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].s != ss[j].s {
			return ss[i].s > ss[j].s
		}
		return ss[i].api < ss[j].api
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].api
	}
	return out
}

// SearchPredict generates a chain for the question using rollout search
// against the ground-truth chains, as done during finetuning. With
// cfg.Rollouts == 0 it degenerates to scoring each candidate by the loss of
// the partial chain alone (no lookahead) — the ablation baseline.
func mapSearchPredict(m *mapModel, question string, kind graph.Kind, truths []chain.Chain, cfg SearchConfig, rng *rand.Rand) chain.Chain {
	cfg.setDefaults()
	var partial chain.Chain
	for len(partial) < searchMaxLen {
		cands := m.TopCandidates(partial, question, kind, searchCandidates)
		if len(cands) == 0 {
			break
		}
		bestAPI, bestLoss := "", math.Inf(1)
		for _, api := range cands {
			extended := append(partial.Clone(), chain.Step{API: api})
			loss := m.rolloutScore(extended, question, kind, truths, cfg, rng)
			if loss < bestLoss {
				bestAPI, bestLoss = api, loss
			}
		}
		// Consider stopping: the loss of the partial chain as-is.
		stopLoss, _ := chain.MinLoss(partial, truths, cfg.Alpha)
		if len(partial) > 0 && stopLoss <= bestLoss {
			break
		}
		partial = append(partial, chain.Step{API: bestAPI})
	}
	return partial
}

// rolloutScore estimates how promising the prefix is: the minimum, over r
// random model-guided completions, of the smallest loss against any ground
// truth. r == 0 scores the prefix directly.
func (m *mapModel) rolloutScore(prefix chain.Chain, question string, kind graph.Kind, truths []chain.Chain, cfg SearchConfig, rng *rand.Rand) float64 {
	// Two completions are always considered besides the random rollouts:
	// the trivial one ("stop now") and the model-greedy one. They anchor
	// the estimate so that a lucky random completion of a bad prefix
	// cannot beat a good prefix whose rollouts happened to miss.
	best, _ := chain.MinLoss(prefix, truths, cfg.Alpha)
	if l, _ := chain.MinLoss(m.greedyComplete(prefix, question, kind, searchMaxLen), truths, cfg.Alpha); l < best {
		best = l
	}
	for i := 0; i < cfg.Rollouts; i++ {
		full := m.randomComplete(prefix, question, kind, searchMaxLen, rng)
		if l, _ := chain.MinLoss(full, truths, cfg.Alpha); l < best {
			best = l
		}
	}
	return best
}

// greedyComplete extends prefix with the model's highest-scoring successor
// until the end token wins or maxLen is hit.
func (m *mapModel) greedyComplete(prefix chain.Chain, question string, kind graph.Kind, maxLen int) chain.Chain {
	c := prefix.Clone()
	for len(c) < maxLen {
		cands := m.TopCandidates(c, question, kind, 1)
		if len(cands) == 0 {
			break
		}
		prev := startToken
		if len(c) > 0 {
			prev = c[len(c)-1].API
		}
		qTokens := embed.Tokenize(question)
		if len(c) > 0 && m.scoreEnd(prev) >= m.score(prev, cands[0], qTokens, kind) {
			break
		}
		c = append(c, chain.Step{API: cands[0]})
	}
	return c
}

// randomComplete extends prefix to a full chain by sampling successors from
// the model's top candidates until the end token is sampled or maxLen hit.
func (m *mapModel) randomComplete(prefix chain.Chain, question string, kind graph.Kind, maxLen int, rng *rand.Rand) chain.Chain {
	c := prefix.Clone()
	for len(c) < maxLen {
		// Sample among top-4 candidates plus a stop chance that grows with
		// length, approximating the model's end-token probability mass.
		if rng.Float64() < 0.15*float64(len(c)) {
			break
		}
		cands := m.TopCandidates(c, question, kind, 4)
		if len(cands) == 0 {
			break
		}
		c = append(c, chain.Step{API: cands[rng.Intn(len(cands))]})
	}
	return c
}

// Train fits a Model on examples: transition/affinity counts are initialized
// from every ground-truth chain, then each refinement epoch runs the
// search-based prediction on every example and reinforces the predicted
// chain weighted by exp(−loss) — low-loss predictions (which the rollout
// search finds more reliably with larger r) sharpen the model, high-loss
// ones barely move it.
func mapTrain(vocab []string, examples []Example, cfg TrainConfig) *mapModel {
	m := newMapModel(vocab)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, ex := range examples {
		for _, truth := range ex.Truths {
			m.Observe(ex.Question, ex.Kind, truth, 1)
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, ex := range examples {
			pred := mapSearchPredict(m, ex.Question, ex.Kind, ex.Truths, cfg.Search, rng)
			loss, _ := chain.MinLoss(pred, ex.Truths, cfg.Search.Alpha)
			if math.IsInf(loss, 1) {
				continue
			}
			m.Observe(ex.Question, ex.Kind, pred, math.Exp(-loss))
		}
	}
	return m
}

// TestDenseModelMatchesMapModel trains the dense Model and the map-based
// oracle side by side and requires every generation entry point to return
// the same chains on the training set and on held-out questions.
func TestDenseModelMatchesMapModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	v := vocab()
	for _, seed := range seeds {
		for _, r := range []int{0, 4} {
			t.Run(fmt.Sprintf("seed%d/r%d", seed, r), func(t *testing.T) {
				t.Parallel()
				train := GenerateDataset(400, rand.New(rand.NewSource(seed)))
				cfg := TrainConfig{Epochs: 2, Search: SearchConfig{Rollouts: r}, Seed: seed}
				dense, oracle := Train(v, train, cfg), mapTrain(v, train, cfg)
				heldOut := GenerateDataset(300, rand.New(rand.NewSource(seed+1000)))
				denseRng, oracleRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i, ex := range append(train, heldOut...) {
					want := oracle.Decode(ex.Question, ex.Kind, 8)
					if got := dense.Decode(ex.Question, ex.Kind, 8); !got.Equal(want) {
						t.Fatalf("example %d %q: Decode = %s, oracle %s", i, ex.Question, got, want)
					}
					// Candidates after every prefix of the decoded chain, at the
					// sizes the search uses.
					for n := 0; n <= len(want); n++ {
						for _, k := range []int{1, 4, 6} {
							got, wantK := dense.TopCandidates(want[:n], ex.Question, ex.Kind, k), oracle.TopCandidates(want[:n], ex.Question, ex.Kind, k)
							if !slices.Equal(got, wantK) {
								t.Fatalf("example %d %q: TopCandidates(%s, k=%d) = %v, oracle %v", i, ex.Question, want[:n], k, got, wantK)
							}
						}
					}
					// The rollout search is ~1000× a Decode on the oracle: every
					// fourth example, both sides drawing from same-seeded streams.
					if i%4 == 0 {
						sc := SearchConfig{Rollouts: r}
						want := mapSearchPredict(oracle, ex.Question, ex.Kind, ex.Truths, sc, oracleRng)
						if got := SearchPredict(dense, ex.Question, ex.Kind, ex.Truths, sc, denseRng); !got.Equal(want) {
							t.Fatalf("example %d %q: SearchPredict = %s, oracle %s", i, ex.Question, got, want)
						}
					}
				}
				if denseRng.Int63() != oracleRng.Int63() {
					t.Fatal("SearchPredict drew a different number of random values than the oracle")
				}
			})
		}
	}
}

// TestObserveOutsideVocabulary pins what both models do with an API name the
// vocabulary lacks: it takes its share of every total but is never
// generated, and a partial chain standing on it, or on a name never seen at
// all, still ranks successors.
func TestObserveOutsideVocabulary(t *testing.T) {
	v := vocab()
	dense, oracle := NewModel(v), newMapModel(v)
	observe := func(question string, kind graph.Kind, c chain.Chain, times int) {
		for i := 0; i < times; i++ {
			dense.Observe(question, kind, c, 1)
			oracle.Observe(question, kind, c, 1)
		}
	}
	// graph.stats is the frequent opener overall; "communities" on a social
	// graph is evidence enough for community.detect to beat it.
	const q = "communities"
	observe("unrelated words", graph.KindMolecule, chain.Chain{{API: "graph.stats"}}, 50)
	observe(q, graph.KindSocial, chain.Chain{{API: "community.detect"}}, 2)
	if got := dense.TopCandidates(nil, q, graph.KindSocial, 1); !slices.Equal(got, []string{"community.detect"}) {
		t.Fatalf("before the ghost: top candidate = %v", got)
	}
	// The ghost takes 100/102 of the keyword and kind totals, which dilutes
	// that evidence until the transition mass wins — and is itself absent.
	ghost := chain.Chain{{API: "ghost.api"}, {API: "report.compose"}}
	observe(q, graph.KindSocial, ghost[:1], 100)
	if got := dense.TopCandidates(nil, q, graph.KindSocial, 1); !slices.Equal(got, []string{"graph.stats"}) {
		t.Fatalf("after the ghost: top candidate = %v, want graph.stats (ghost mass not counted?)", got)
	}
	observe(q, graph.KindSocial, ghost, 5)
	for _, partial := range []chain.Chain{nil, ghost[:1], ghost, {{API: "never.seen"}}} {
		got, want := dense.TopCandidates(partial, q, graph.KindSocial, len(v)+5), oracle.TopCandidates(partial, q, graph.KindSocial, len(v)+5)
		if !slices.Equal(got, want) {
			t.Fatalf("TopCandidates(%s) = %v, oracle %v", partial, got, want)
		}
		if slices.Contains(got, "ghost.api") {
			t.Fatalf("TopCandidates(%s) emitted the out-of-vocabulary API", partial)
		}
	}
	got, want := dense.Decode(q, graph.KindSocial, 8), oracle.Decode(q, graph.KindSocial, 8)
	if !got.Equal(want) {
		t.Fatalf("Decode = %s, oracle %s", got, want)
	}
	if slices.ContainsFunc(got, func(s chain.Step) bool { return s.API == "ghost.api" }) {
		t.Fatalf("Decode emitted the out-of-vocabulary API: %s", got)
	}
}
