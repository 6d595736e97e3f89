package finetune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

func vocab() []string { return apis.Default(nil).Names() }

func TestGenerateDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := GenerateDataset(200, rng)
	if len(ds) != 200 {
		t.Fatalf("dataset size = %d", len(ds))
	}
	tasks := make(map[string]bool)
	for _, ex := range ds {
		if ex.Question == "" || len(ex.Truths) == 0 || ex.Task == "" {
			t.Fatalf("bad example %+v", ex)
		}
		for _, c := range ds[0].Truths {
			if len(c) == 0 {
				t.Fatal("empty truth chain")
			}
		}
		tasks[ex.Task] = true
	}
	if len(tasks) < 8 {
		t.Fatalf("only %d distinct tasks in 200 samples", len(tasks))
	}
}

func TestDatasetChainsValidAgainstRegistry(t *testing.T) {
	reg := apis.Default(nil)
	rng := rand.New(rand.NewSource(2))
	for _, ex := range GenerateDataset(100, rng) {
		for _, truth := range ex.Truths {
			if err := chain.Validate(truth, reg); err != nil {
				t.Fatalf("task %s truth %s invalid: %v", ex.Task, truth, err)
			}
		}
	}
}

func TestSplitDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := GenerateDataset(300, rng)
	train, test := SplitDataset(ds, 0.25, rng)
	if len(train)+len(test) != 300 {
		t.Fatalf("split lost examples: %d + %d", len(train), len(test))
	}
	if len(test) < 40 || len(test) > 120 {
		t.Fatalf("test fraction off: %d", len(test))
	}
}

func TestTasksNonEmpty(t *testing.T) {
	if n := len(templates()); n < 8 {
		t.Fatalf("the template catalog has %d tasks", n)
	}
}

func TestObserveAndDecodeRecoversChain(t *testing.T) {
	m := NewModel(vocab())
	truth := chain.Chain{chain.Step{API: "graph.classify"}, chain.Step{API: "similarity.search"}}
	for i := 0; i < 5; i++ {
		m.Observe("what molecules are similar to G", graph.KindMolecule, truth, 1)
	}
	got := m.Decode("what molecules are similar to G", graph.KindMolecule, 8)
	if !sameAPIs(got, truth) {
		t.Fatalf("Decode = %s, want %s", got, truth)
	}
}

func TestDecodeEmptyModelStillTerminates(t *testing.T) {
	m := NewModel(vocab())
	c := m.Decode("anything", graph.KindUnknown, 8)
	if len(c) > 8 {
		t.Fatalf("decode overflow: %d", len(c))
	}
}

func TestObserveIgnoresEmptyAndZeroWeight(t *testing.T) {
	m, fresh := NewModel(vocab()), NewModel(vocab())
	m.Observe("q", graph.KindSocial, nil, 1)
	m.Observe("q", graph.KindSocial, chain.Chain{chain.Step{API: "graph.stats"}}, 0)
	m.Observe("q", graph.KindSocial, chain.Chain{chain.Step{API: "graph.stats"}}, -1)
	// One real observation moves graph.stats to the front, so the ignored
	// ones leaving the ranking as a fresh model's shows they left no weight.
	n := len(vocab())
	if got, want := m.TopCandidates(nil, "q", graph.KindSocial, n), fresh.TopCandidates(nil, "q", graph.KindSocial, n); !slices.Equal(got, want) {
		t.Fatalf("empty/zero-weight observation mutated model: candidates %v, fresh model %v", got, want)
	}
	if got, want := m.Decode("q", graph.KindSocial, 8), fresh.Decode("q", graph.KindSocial, 8); !got.Equal(want) {
		t.Fatalf("empty/zero-weight observation mutated model: Decode %s, fresh model %s", got, want)
	}
}

func TestTopCandidatesRanked(t *testing.T) {
	m := NewModel(vocab())
	truth := chain.Chain{chain.Step{API: "community.detect"}}
	for i := 0; i < 10; i++ {
		m.Observe("find communities", graph.KindSocial, truth, 1)
	}
	cands := m.TopCandidates(nil, "find communities", graph.KindSocial, 3)
	if len(cands) != 3 {
		t.Fatalf("candidates = %v", cands)
	}
	if cands[0] != "community.detect" {
		t.Fatalf("top candidate = %s", cands[0])
	}
	if all := m.TopCandidates(nil, "find communities", graph.KindSocial, 1000); len(all) != len(vocab()) {
		t.Fatalf("k beyond the vocabulary returned %d candidates, want all %d", len(all), len(vocab()))
	}
	for _, k := range []int{0, -1} {
		if got := m.TopCandidates(nil, "find communities", graph.KindSocial, k); got != nil {
			t.Fatalf("TopCandidates(k=%d) = %v, want nil", k, got)
		}
	}
}

// weightBits is every weight and running total of m in a fixed order, as
// bit patterns.
func weightBits(m *Model) []uint64 {
	var bits []uint64
	add := func(r *row) {
		bits = append(bits, math.Float64bits(r.tot))
		for _, w := range r.w {
			bits = append(bits, math.Float64bits(w))
		}
	}
	for _, r := range m.trans {
		add(r)
	}
	toks := make([]string, 0, len(m.affinity))
	for tok := range m.affinity {
		toks = append(toks, tok)
	}
	slices.Sort(toks)
	for _, tok := range toks {
		add(m.affinity[tok])
	}
	for kind := graph.KindUnknown; kind <= graph.KindKnowledge; kind++ {
		if r := m.kindPrior[kind]; r != nil {
			add(r)
		}
	}
	return bits
}

// TestTrainBitReproducible: row totals accumulate in Observe order, not by
// re-summing maps in Go's randomised iteration order, so the same seed gives
// the same weights to the last bit — what lets the bench oracle byte-compare
// a daemon's replies with a model trained in another process.
func TestTrainBitReproducible(t *testing.T) {
	ds := GenerateDataset(200, rand.New(rand.NewSource(30)))
	train := func(seed int64) []uint64 {
		return weightBits(Train(vocab(), ds, TrainConfig{Epochs: 2, Search: SearchConfig{Rollouts: 4}, Seed: seed}))
	}
	a, b := train(31), train(31)
	if !slices.Equal(a, b) {
		t.Fatal("same seed trained twice gave different weights")
	}
	if slices.Equal(a, train(32)) {
		t.Fatal("a different seed gave identical weights: the rollouts do not reach the model")
	}
}

// TestDecodeAllocsIndependentOfVocabulary: a Decode allocates its query, its
// chain and one log-transition row per position — a count the vocabulary
// size must not enter.
func TestDecodeAllocsIndependentOfVocabulary(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops the tokenizer's scanner at random")
	}
	ds := GenerateDataset(200, rand.New(rand.NewSource(33)))
	allocs := func(extra int) float64 {
		v := vocab()
		for i := 0; i < extra; i++ {
			v = append(v, fmt.Sprintf("pad.api%03d", i))
		}
		m := Train(v, ds, TrainConfig{Epochs: 1, Seed: 34})
		ex := ds[0]
		if len(m.Decode(ex.Question, ex.Kind, 8)) < 2 {
			t.Fatalf("Decode(%q) too short to measure", ex.Question)
		}
		return testing.AllocsPerRun(50, func() { m.Decode(ex.Question, ex.Kind, 8) })
	}
	small, large := allocs(0), allocs(400)
	if small != large {
		t.Fatalf("Decode allocs grew with the vocabulary: %v at %d APIs, %v at %d", small, len(vocab()), large, len(vocab())+400)
	}
	if small > 24 {
		t.Fatalf("Decode allocs = %v, want ≤ 24", small)
	}
}

// TestDecodeConcurrent decodes from many goroutines on one trained model
// (run under -race): the per-question query is built per call and nothing
// is cached on the Model, so generation only reads it.
func TestDecodeConcurrent(t *testing.T) {
	ds := GenerateDataset(120, rand.New(rand.NewSource(35)))
	m := Train(vocab(), ds, TrainConfig{Epochs: 1, Search: SearchConfig{Rollouts: 2}, Seed: 36})
	want := make([]chain.Chain, len(ds))
	for i, ex := range ds {
		want[i] = m.Decode(ex.Question, ex.Kind, 8)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ex := range ds {
				if got := m.Decode(ex.Question, ex.Kind, 8); !got.Equal(want[i]) {
					t.Errorf("concurrent Decode(%q) = %s, want %s", ex.Question, got, want[i])
					return
				}
				m.TopCandidates(want[i][:1], ex.Question, ex.Kind, 4)
			}
		}()
	}
	wg.Wait()
}

func TestSearchPredictConvergesToTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := GenerateDataset(300, rng)
	m := Train(vocab(), ds, TrainConfig{Epochs: 1, Search: SearchConfig{Rollouts: 4}, Seed: 5})
	truth := []chain.Chain{{chain.Step{API: "graph.classify"}, chain.Step{API: "kg.detect_all"}, chain.Step{API: "graph.apply_edits"}}}
	pred := SearchPredict(m, "Clean G", graph.KindKnowledge, truth, SearchConfig{Rollouts: 8}, rng)
	if loss, _ := chain.MinLoss(pred, truth, 0.5); loss > 1 {
		t.Fatalf("SearchPredict loss = %v for %s", loss, pred)
	}
}

func TestSearchPredictWithoutTruths(t *testing.T) {
	m := Train(vocab(), GenerateDataset(60, rand.New(rand.NewSource(12))), TrainConfig{Epochs: 0, Seed: 13})
	if pred := SearchPredict(m, "Clean G", graph.KindKnowledge, nil, SearchConfig{Rollouts: 2}, rand.New(rand.NewSource(14))); len(pred) != 0 {
		t.Fatalf("SearchPredict with no ground truth = %s, want nothing", pred)
	}
}

func TestRolloutsImprovePrediction(t *testing.T) {
	// E7's core claim: rollout search scores candidates better than
	// no-lookahead scoring. Use a weak model so search quality matters.
	rng := rand.New(rand.NewSource(6))
	ds := GenerateDataset(60, rng)
	m := Train(vocab(), ds, TrainConfig{Epochs: 0, Seed: 7})
	var lossGreedy, lossRollout float64
	tests := GenerateDataset(40, rng)
	for _, ex := range tests {
		pg := SearchPredict(m, ex.Question, ex.Kind, ex.Truths, SearchConfig{Rollouts: 0}, rng)
		pr := SearchPredict(m, ex.Question, ex.Kind, ex.Truths, SearchConfig{Rollouts: 8}, rng)
		lg, _ := chain.MinLoss(pg, ex.Truths, 0.5)
		lr, _ := chain.MinLoss(pr, ex.Truths, 0.5)
		lossGreedy += lg
		lossRollout += lr
	}
	if lossRollout > lossGreedy+1e-9 {
		t.Fatalf("rollouts hurt: greedy %.3f vs rollout %.3f", lossGreedy, lossRollout)
	}
}

func TestTrainEvaluateEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := GenerateDataset(400, rng)
	train, test := SplitDataset(ds, 0.25, rng)
	m := Train(vocab(), train, TrainConfig{Epochs: 2, Search: SearchConfig{Rollouts: 4}, Seed: 9})
	res := Evaluate(m, test, 0.5)
	if res.Examples == 0 {
		t.Fatal("empty test set")
	}
	if res.ExactMatch < 0.5 {
		t.Fatalf("exact match = %.3f, want ≥ 0.5 (loss %.3f, ged %.3f)", res.ExactMatch, res.MeanLoss, res.MeanGED)
	}
	if res.MeanGED > 2 {
		t.Fatalf("mean GED = %.3f", res.MeanGED)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := NewModel(vocab())
	if res := Evaluate(m, nil, 0.5); res.Examples != 0 || res.ExactMatch != 0 {
		t.Fatalf("empty Evaluate = %+v", res)
	}
}

func TestTrainedBeatsUntrained(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds := GenerateDataset(300, rng)
	train, test := SplitDataset(ds, 0.3, rng)
	trained := Train(vocab(), train, TrainConfig{Epochs: 1, Search: SearchConfig{Rollouts: 4}, Seed: 11})
	untrained := NewModel(vocab())
	rt := Evaluate(trained, test, 0.5)
	ru := Evaluate(untrained, test, 0.5)
	if rt.ExactMatch <= ru.ExactMatch {
		t.Fatalf("training did not help: trained %.3f vs untrained %.3f", rt.ExactMatch, ru.ExactMatch)
	}
}

func TestEvaluateByTask(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ds := GenerateDataset(300, rng)
	train, test := SplitDataset(ds, 0.3, rng)
	m := Train(vocab(), train, TrainConfig{Epochs: 1, Search: SearchConfig{Rollouts: 2}, Seed: 21})
	byTask := EvaluateByTask(m, test, 0.5)
	if len(byTask) < 5 {
		t.Fatalf("only %d tasks evaluated", len(byTask))
	}
	total := 0
	for task, res := range byTask {
		if res.Examples == 0 {
			t.Fatalf("task %s has no examples", task)
		}
		total += res.Examples
	}
	if total != len(test) {
		t.Fatalf("per-task examples %d != test size %d", total, len(test))
	}
}
