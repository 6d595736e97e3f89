// Command evalchains regenerates experiments E7–E9, E11, E36, E37 and E41 as
// printed tables: the rollout-search ablation, the per-task accuracy
// breakdown of the finetuned model under its one (greedy) decoder and as
// Session.Ask serves it, the API-retrieval hit rate, the untrained-API bank's
// served chains, the prompt-fidelity table (how much of a graph the prompt
// names), the listing of E7c's misses (decoded vs served vs nearest truth),
// the multi-session engine throughput scaling, and the graph-kernel table
// (cold vs cached executor invocations).
// It is the table-oriented companion to `go test -bench`.
//
// Everything before the "== E9" header is deterministic for given flags;
// cmd/evalchains/testdata/tables.golden is that prefix at the defaults.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/executor"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/retrieve"
)

func main() {
	var (
		nTrain = flag.Int("train", 400, "training examples")
		nTest  = flag.Int("test", 100, "held-out examples for ablations")
		seed   = flag.Int64("seed", 1, "random seed")
		alpha  = flag.Float64("alpha", 0.5, "node-matching loss regularizer weight")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))
	vocab := apis.Default(nil).Names()

	fmt.Println("== E7a: rollout-search ablation (count-initialized model) ==")
	weak := finetune.Train(vocab, finetune.GenerateDataset(*nTrain/2, rng), finetune.TrainConfig{Epochs: 0, Seed: *seed})
	ablationSet := finetune.GenerateDataset(*nTest, rng)
	fmt.Printf("%-10s %12s %12s\n", "rollouts", "exact-rate", "mean-loss")
	for _, r := range []int{0, 1, 4, 16, 64} {
		evalRng := rand.New(rand.NewSource(*seed + 100))
		exact, totalLoss := 0.0, 0.0
		for _, ex := range ablationSet {
			pred := finetune.SearchPredict(weak, ex.Question, ex.Kind, ex.Truths,
				finetune.SearchConfig{Rollouts: r, Alpha: *alpha}, evalRng)
			l, _ := chain.MinLoss(pred, ex.Truths, *alpha)
			totalLoss += l
			if l == 0 {
				exact++
			}
		}
		n := float64(len(ablationSet))
		fmt.Printf("%-10d %12.3f %12.3f\n", r, exact/n, totalLoss/n)
	}

	fmt.Println("\n== E7c: per-task accuracy (greedy decoding) ==")
	ds := finetune.GenerateDataset(*nTrain, rng)
	train, test := finetune.SplitDataset(ds, 0.25, rng)
	model := finetune.Train(vocab, train, finetune.TrainConfig{
		Epochs: 2, Search: finetune.SearchConfig{Rollouts: 4, Alpha: *alpha}, Seed: *seed,
	})
	byTask := finetune.EvaluateByTask(model, test, *alpha)
	tasks := make([]string, 0, len(byTask))
	for t := range byTask {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	// served scores the chain Session.Ask hands the executor for the same
	// question on a generated graph of the task's kind.
	sv, graphs, err := servingEngine(model, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalchains:", err)
		os.Exit(1)
	}
	served := map[string]float64{}
	var misses []miss
	for _, ex := range test {
		g := graphs[ex.Kind]
		turn, err := serve(sv, ex.Question, g)
		if finetune.Exact(turn.Chain, ex.Truths) {
			served[ex.Task]++
		} else {
			misses = append(misses, miss{ex, g, turn, err})
		}
	}
	fmt.Printf("%-18s %8s %12s %10s %8s\n", "task", "examples", "exact-match", "mean-ged", "served")
	for _, t := range tasks {
		res := byTask[t]
		fmt.Printf("%-18s %8d %12.3f %10.3f %8.3f\n", t, res.Examples, res.ExactMatch, res.MeanGED, served[t]/float64(res.Examples))
	}

	fmt.Println("\n== E8: API retrieval hit rate ==")
	ix, err := retrieve.New(apis.Default(nil), retrieve.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalchains:", err)
		os.Exit(1)
	}
	queries := []struct{ query, want string }{
		{"find the communities of the social network", "community.detect"},
		{"who is the most influential node", "centrality.pagerank"},
		{"how toxic is this molecule", "molecule.toxicity"},
		{"find similar molecules in the database", "similarity.search"},
		{"clean the knowledge graph noise", "kg.detect_all"},
		{"shortest path between two nodes", "path.shortest"},
		{"which cliques exist in this graph", "structure.cliques"},
		{"what functional groups does the molecule contain", "molecule.substructure"},
	}
	fmt.Printf("%-52s %-22s %s\n", "query", "expected", "hit@5")
	hits := 0
	for _, q := range queries {
		got := ix.Names(q.query, 5)
		hit := false
		for _, name := range got {
			if name == q.want {
				hit = true
			}
		}
		if hit {
			hits++
		}
		fmt.Printf("%-52s %-22s %v\n", q.query, q.want, hit)
	}
	fmt.Printf("overall hit@5: %.3f\n", float64(hits)/float64(len(queries)))

	fmt.Println("\n== E36: untrained-API bank (E7c's model, as Session.Ask serves it) ==")
	fmt.Printf("%-64s %-26s %-26s %-74s %s\n", "question", "wanted", "top-1", "decoded", "served")
	bankHits := 0
	bank := finetune.UnseenAPIQuestions()
	for _, u := range bank {
		turn, _ := serve(sv, u.Question, graphs[u.Kind])
		c := turn.Chain
		if slices.ContainsFunc(c, func(s chain.Step) bool { return s.API == u.API }) {
			bankHits++
		}
		fmt.Printf("%-64s %-26s %-26s %-74s %s\n", u.Question, u.API, sv.Retrieval().Names(u.Question, 1)[0],
			model.Decode(u.Question, u.Kind, sv.Params().LLM.MaxChainLength), c)
	}
	fmt.Printf("served chains calling the wanted API: %d/%d\n", bankHits, len(bank))

	fmt.Println("\n== E37: prompt fidelity (what llm.BuildPrompt shows an HTTP LLM of its graph) ==")
	promptFidelity()

	fmt.Println("\n== E41: E7c misses (held-out questions whose served chain is not exact) ==")
	printMisses(sv, misses, model, sv.Params().LLM.MaxChainLength, sv.Params().ANN.TopK, *alpha)

	fmt.Println("\n== E9: multi-session engine throughput (concurrent Asks, one shared engine) ==")
	env := &apis.Env{}
	params := config.Default()
	params.Finetune.Examples = *nTrain / 2
	engine, err := core.NewEngine(core.Config{Registry: apis.Default(env), Env: env, TrainSeed: *seed, Params: &params})
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalchains:", err)
		os.Exit(1)
	}
	const asksPerSession = 8
	fmt.Printf("%-10s %12s %12s\n", "sessions", "asks/sec", "wall-ms")
	for _, nSessions := range []int{1, 2, 4, 8} {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, nSessions)
		for i := 0; i < nSessions; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				sess := engine.NewSession()
				g := graph.PlantedCommunities(2, 10, 0.5, 0.05, rand.New(rand.NewSource(seed)))
				for j := 0; j < asksPerSession; j++ {
					if _, err := sess.Ask(context.Background(), "Write a brief report for G", g, core.AskOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}(int64(i + 1))
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			fmt.Fprintln(os.Stderr, "evalchains:", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		total := float64(nSessions * asksPerSession)
		fmt.Printf("%-10d %12.1f %12.1f\n", nSessions, total/wall.Seconds(), float64(wall.Milliseconds()))
	}

	fmt.Println("\n== E11a: executor invocation cache (cold vs cached chain runs on one graph) ==")
	// Each row re-runs the same analysis chain against one unmutated graph:
	// "cold" bumps the graph version every run (full CSR freeze + recompute),
	// "cached" lets the Env invocation LRU and the frozen-view memos serve it.
	e11env := &apis.Env{}
	e11reg := apis.Default(e11env)
	exec := executor.New(e11reg, e11env)
	analysis := chain.Chain{
		{API: "graph.stats"},
		{API: "structure.kcore"},
		{API: "structure.center"},
	}
	const e11Rounds = 25
	fmt.Printf("%-10s %14s %14s %9s\n", "nodes", "cold-ms/run", "cached-ms/run", "speedup")
	for _, n := range []int{200, 800, 2000} {
		g := graph.BarabasiAlbert(n, 3, rand.New(rand.NewSource(*seed)))
		cold := time.Duration(0)
		for r := 0; r < e11Rounds; r++ {
			g.SetNodeLabel(0, "v") // version bump forces a full recompute
			start := time.Now()
			if _, err := exec.Run(context.Background(), g, analysis, executor.Options{}); err != nil {
				fmt.Fprintln(os.Stderr, "evalchains:", err)
				os.Exit(1)
			}
			cold += time.Since(start)
		}
		if _, err := exec.Run(context.Background(), g, analysis, executor.Options{}); err != nil { // warm the cache
			fmt.Fprintln(os.Stderr, "evalchains:", err)
			os.Exit(1)
		}
		start := time.Now()
		for r := 0; r < e11Rounds; r++ {
			if _, err := exec.Run(context.Background(), g, analysis, executor.Options{}); err != nil {
				fmt.Fprintln(os.Stderr, "evalchains:", err)
				os.Exit(1)
			}
		}
		cached := time.Since(start)
		fmt.Printf("%-10d %14.3f %14.3f %8.1fx\n", n,
			float64(cold.Microseconds())/1000/e11Rounds,
			float64(cached.Microseconds())/1000/e11Rounds,
			float64(cold)/float64(cached))
	}

}

// servingEngine builds an engine that serves model the way chatgraphd serves
// its own (default parameters), over a seeded molecule database, and one
// interned generated graph per kind to ask about.
func servingEngine(model *finetune.Model, seed int64) (*core.Engine, map[graph.Kind]*graph.Graph, error) {
	env := &apis.Env{}
	reg := apis.Default(env)
	rng := rand.New(rand.NewSource(seed))
	core.SeedMoleculeDB(env, 30, rng)
	eng, err := core.NewEngine(core.Config{Registry: reg, Env: env, Model: model})
	if err != nil {
		return nil, nil, err
	}
	graphs := map[graph.Kind]*graph.Graph{
		graph.KindSocial:    eng.Graphs().Intern(graph.PlantedCommunities(3, 12, 0.5, 0.05, rng)),
		graph.KindMolecule:  eng.Graphs().Intern(graph.Molecule(18, rng)),
		graph.KindKnowledge: eng.Graphs().Intern(graph.KnowledgeGraph(30, 60, rng)),
	}
	return eng, graphs, nil
}

// serve is the turn and error a fresh session's Ask returns for question on
// g: the turn's Chain is the generated chain whether or not it then
// executes, and its Candidates are retrieval's top-k.
func serve(eng *core.Engine, question string, g *graph.Graph) (core.Turn, error) {
	return eng.NewSession().Ask(context.Background(), question, g, core.AskOptions{})
}
