// Benchmark harness regenerating every experiment in EXPERIMENTS.md.
// One benchmark per paper artifact:
//
//	E1 Fig. 4  BenchmarkScenarioUnderstanding   chat-based graph understanding
//	E2 Fig. 5  BenchmarkScenarioComparison      chat-based graph comparison
//	E3 Fig. 6  BenchmarkScenarioCleaning        chat-based graph cleaning
//	E4 Fig. 7  BenchmarkScenarioMonitoring      chain confirmation + monitoring
//	E5 §II-D   BenchmarkANN*                    τ-MG vs MRNG vs NSW vs brute force
//	                                            (greedy routing: internal/ann BenchmarkANNGreedyRouting)
//	E6 §II-B   BenchmarkPathCover               path-cover size/coverage
//	E7 §II-C   BenchmarkRollouts                rollout-search ablation
//	E8 Fig. 1  BenchmarkAPIRetrieval            retrieval hit rate
//
// Quality numbers (recall, hit rate, loss) are attached to the -bench output
// via b.ReportMetric, so one `go test -bench=. -benchmem` run yields both
// latency and quality columns.
package chatgraph_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"chatgraph/internal/ann"
	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/executor"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/retrieve"
	"chatgraph/internal/seq"
)

// benchSession is shared across scenario benchmarks: model training is the
// expensive part and is not what the scenarios measure.
var (
	benchOnce sync.Once
	benchSess *core.Session
	benchEnv  *apis.Env
)

func sharedSession(b *testing.B) *core.Session {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = &apis.Env{}
		reg := apis.Default(benchEnv)
		core.SeedMoleculeDB(benchEnv, 1000, rand.New(rand.NewSource(77)))
		eng, err := core.NewEngine(core.Config{Registry: reg, Env: benchEnv, TrainSeed: 77})
		if err != nil {
			panic(err)
		}
		benchSess = eng.NewSession()
	})
	return benchSess
}

// --- E1: chat-based graph understanding (Fig. 4) ---

func BenchmarkScenarioUnderstanding(b *testing.B) {
	s := sharedSession(b)
	rng := rand.New(rand.NewSource(1))
	social := graph.PlantedCommunities(4, 25, 0.4, 0.01, rng)
	mol := graph.Molecule(24, rng)
	b.Run("social_report", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Ask(context.Background(), "Write a brief report for G", social, core.AskOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("molecule_report", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Ask(context.Background(), "Write a brief report for this molecule", mol, core.AskOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E2: chat-based graph comparison (Fig. 5) ---

func BenchmarkScenarioComparison(b *testing.B) {
	s := sharedSession(b)
	rng := rand.New(rand.NewSource(2))
	query := graph.Molecule(16, rng)
	b.ReportAllocs()
	top1Similarity := 0.0
	for i := 0; i < b.N; i++ {
		turn, err := s.Ask(context.Background(), "What molecules are similar to G", query, core.AskOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = turn
	}
	// Quality: best similarity in the DB for this query.
	if ms := benchEnv.MolDB.Search(query, 1); len(ms) > 0 {
		top1Similarity = ms[0].Similarity
	}
	b.ReportMetric(top1Similarity, "top1-similarity")
}

// --- E3: chat-based graph cleaning (Fig. 6) ---

func BenchmarkScenarioCleaning(b *testing.B) {
	s := sharedSession(b)
	rng := rand.New(rand.NewSource(3))
	base := graph.KnowledgeGraph(60, 150, rng)
	corrupt := base.Clone()
	corruption := injectForBench(corrupt, rng)
	b.ReportAllocs()
	var cleaned int
	for i := 0; i < b.N; i++ {
		g := corrupt.Clone()
		if _, err := s.Ask(context.Background(), "Clean G", g, core.AskOptions{}); err != nil {
			b.Fatal(err)
		}
		cleaned = corruption - countIncorrect(g)
	}
	b.ReportMetric(float64(cleaned)/float64(corruption), "incorrect-removed-frac")
}

func injectForBench(g *graph.Graph, rng *rand.Rand) int {
	// Inline noise injection mirroring internal/kg.InjectNoise's wrong-edge
	// half, kept local so the bench controls exactly what it scores.
	rels := []string{"born_in", "works_for", "spouse_of"}
	sigs := graph.KGRelationTypes()
	injected := 0
	n := g.NumNodes()
	for injected < 12 {
		rel := rels[rng.Intn(len(rels))]
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))
		sig := sigs[rel]
		if from == to || slices.Contains(g.Freeze().OutNeighbors(from), to) {
			continue
		}
		if g.Node(from).Attrs["type"] == sig[0] && g.Node(to).Attrs["type"] == sig[1] {
			continue
		}
		if err := g.AddEdgeLabeled(from, to, rel, 1); err == nil {
			injected++
		}
	}
	return injected
}

func countIncorrect(g *graph.Graph) int {
	return len(benchEnv.Detector.DetectIncorrect(g))
}

// --- E4: chain confirmation and monitoring (Fig. 7) ---

func BenchmarkScenarioMonitoring(b *testing.B) {
	s := sharedSession(b)
	rng := rand.New(rand.NewSource(4))
	g := graph.PlantedCommunities(3, 15, 0.5, 0.02, rng)
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		turn, err := s.Ask(context.Background(), "Write a brief report for G", g, core.AskOptions{
			Confirm: func(c chain.Chain) (chain.Chain, bool) { return nil, true },
			OnEvent: func(executor.Event) { events++ },
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = turn
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// --- E5: τ-MG vs baselines (§II-D) ---

const (
	annN   = 3000
	annDim = 48
	annK   = 10
)

func annData() ([][]float32, [][]float32) {
	rng := rand.New(rand.NewSource(5))
	return ann.ClusteredVectors(annN, annDim, 16, 0.3, rng),
		ann.ClusteredVectors(200, annDim, 16, 0.3, rng)
}

func benchIndex(b *testing.B, build func(vecs [][]float32) ann.Index) {
	b.Helper()
	vecs, queries := annData()
	idx := build(vecs)
	exact := ann.NewBruteForce(vecs)
	ev := ann.Evaluate(idx, exact, queries, annK, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(queries[i%len(queries)], annK)
	}
	b.ReportMetric(ev.RecallAtK, "recall@10")
	b.ReportMetric(ev.AvgHops, "hops")
	b.ReportMetric(ev.AvgDistComps, "distcomps")
}

func BenchmarkANNBruteForce(b *testing.B) {
	benchIndex(b, func(vecs [][]float32) ann.Index { return ann.NewBruteForce(vecs) })
}

func BenchmarkANNTauMG(b *testing.B) {
	for _, tau := range []float32{0.05, 0.15} {
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			benchIndex(b, func(vecs [][]float32) ann.Index {
				idx, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: tau})
				if err != nil {
					b.Fatal(err)
				}
				return idx
			})
		})
	}
}

func BenchmarkANNMRNG(b *testing.B) {
	benchIndex(b, func(vecs [][]float32) ann.Index {
		idx, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: 0, MaxDegree: 32, Beam: 64})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	})
}

func BenchmarkANNNSW(b *testing.B) {
	benchIndex(b, func(vecs [][]float32) ann.Index {
		idx, err := ann.NewNSW(vecs, ann.NSWConfig{})
		if err != nil {
			b.Fatal(err)
		}
		return idx
	})
}

// BenchmarkANNSearchBatch is the E10 ANN side: the one-query-at-a-time
// Search loop versus SearchBatch's worker-pool fan-out over one shared
// index. On multi-core hosts the batch path approaches loop-qps × cores;
// b.ReportAllocs makes the ~0 allocs/op of the scratch-pooled graph search
// visible in the same table.
func BenchmarkANNSearchBatch(b *testing.B) {
	vecs, queries := annData()
	idx, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	ann.SearchBatch(idx, queries, annK) // warm the scratch/worker pools
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				idx.Search(q, annK)
			}
		}
		b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ann.SearchBatch(idx, queries, annK)
		}
		b.ReportMetric(float64(len(queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// --- E6: length-constrained path cover (§II-B) ---

func BenchmarkPathCover(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := graph.BarabasiAlbert(300, 2, rng)
	for _, l := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			var paths []seq.Path
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				paths = seq.Sequentialize(g, seq.Options{MaxLength: l, Levels: 1}).Paths
			}
			b.ReportMetric(float64(len(paths)), "paths")
			b.ReportMetric(float64(len(paths))/float64(g.NumNodes()), "paths/node")
		})
	}
}

// --- E7: rollout-search ablation (§II-C) ---

func BenchmarkRollouts(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ds := finetune.GenerateDataset(200, rng)
	vocab := apis.Default(nil).Names()
	m := finetune.Train(vocab, ds, finetune.TrainConfig{Epochs: 0, Seed: 9})
	tests := finetune.GenerateDataset(60, rng)
	for _, r := range []int{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var totalLoss, exact float64
			evalRng := rand.New(rand.NewSource(10))
			for _, ex := range tests {
				pred := finetune.SearchPredict(m, ex.Question, ex.Kind, ex.Truths, finetune.SearchConfig{Rollouts: r}, evalRng)
				l, _ := chain.MinLoss(pred, ex.Truths, 0.5)
				totalLoss += l
				if l == 0 {
					exact++
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := tests[i%len(tests)]
				finetune.SearchPredict(m, ex.Question, ex.Kind, ex.Truths, finetune.SearchConfig{Rollouts: r}, evalRng)
			}
			b.ReportMetric(totalLoss/float64(len(tests)), "mean-loss")
			b.ReportMetric(exact/float64(len(tests)), "exact-rate")
		})
	}
}

// BenchmarkChainPrediction measures end-to-end trained-model decoding
// quality: exact match and GED on a held-out split.
func BenchmarkChainPrediction(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	ds := finetune.GenerateDataset(400, rng)
	train, test := finetune.SplitDataset(ds, 0.25, rng)
	vocab := apis.Default(nil).Names()
	m := finetune.Train(vocab, train, finetune.TrainConfig{Epochs: 2, Search: finetune.SearchConfig{Rollouts: 4}, Seed: 12})
	res := finetune.Evaluate(m, test, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := test[i%len(test)]
		m.Decode(ex.Question, ex.Kind, 8)
	}
	b.ReportMetric(res.ExactMatch, "exact-match")
	b.ReportMetric(res.MeanGED, "mean-ged")
}

// --- E8: API retrieval quality (Fig. 1 / Fig. 3) ---

func BenchmarkAPIRetrieval(b *testing.B) {
	reg := apis.Default(nil)
	ix, err := retrieve.New(reg, retrieve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Paraphrased queries with their expected API.
	cases := []struct{ query, want string }{
		{"find the communities of the social network", "community.detect"},
		{"detect clusters in this graph", "community.detect"},
		{"who is the most influential node", "centrality.pagerank"},
		{"is the graph connected", "connectivity.components"},
		{"how toxic is this molecule", "molecule.toxicity"},
		{"will this compound dissolve in water", "molecule.solubility"},
		{"what is the molecular formula", "molecule.formula"},
		{"find similar molecules in the database", "similarity.search"},
		{"clean the knowledge graph noise", "kg.detect_all"},
		{"infer missing facts from the triples", "kg.detect_missing"},
		{"shortest path between two nodes", "path.shortest"},
		{"count the triangles of the network", "structure.triangles"},
	}
	hits := 0
	for _, c := range cases {
		for _, name := range ix.Names(c.query, 5) {
			if name == c.want {
				hits++
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.TopAPIs(cases[i%len(cases)].query, 5)
	}
	b.ReportMetric(float64(hits)/float64(len(cases)), "hit@5")
}
