// Command benchann regenerates experiment E5: it sweeps dataset size and τ
// and prints a table comparing τ-MG against the MRNG and NSW baselines on
// recall, ε-approximation rate, routing hops, and distance computations —
// the quantitative backing for the paper's claim that τ-MG is the
// state-of-the-art proximity graph for the API-retrieval module.
//
// With -batch N it instead runs the batch-throughput mode: for every index
// it measures the one-query-at-a-time Search loop against SearchBatch in
// chunks of N (worker-pool fan-out over GOMAXPROCS cores) and prints
// queries/sec plus the speedup — the E10 evidence that the batched surface
// amortizes retrieval across cores.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"chatgraph/internal/ann"
)

func main() {
	var (
		sizes   = flag.String("sizes", "1000,2000,5000", "comma-separated dataset sizes")
		dim     = flag.Int("dim", 64, "vector dimensionality")
		queries = flag.Int("queries", 200, "queries per cell")
		k       = flag.Int("k", 10, "neighbors per query")
		taus    = flag.String("taus", "0,0.05,0.15", "comma-separated tau values")
		seed    = flag.Int64("seed", 1, "random seed")
		epsilon = flag.Float64("epsilon", 0.05, "epsilon for the Definition 2 approximation rate")
		batch   = flag.Int("batch", 0, "batch size for the batch-throughput mode (0 disables)")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	if *batch > 0 {
		runBatchMode(rng, *sizes, *dim, *queries, *k, *batch)
		return
	}
	fmt.Printf("%-8s %-14s %9s %9s %9s %9s %9s %10s\n",
		"n", "index", "recall@1", "recall@k", "eps-ok", "hops", "dists", "build")
	for _, n := range parseSizes(*sizes) {
		vecs := ann.ClusteredVectors(n, *dim, 16, 0.3, rng)
		qs := ann.ClusteredVectors(*queries, *dim, 16, 0.3, rng)
		exact := ann.NewBruteForce(vecs)

		row := func(name string, idx ann.Index, build time.Duration) {
			ev := ann.Evaluate(idx, exact, qs, *k, *epsilon)
			fmt.Printf("%-8d %-14s %9.3f %9.3f %9.3f %9.1f %9.1f %10s\n",
				n, name, ev.RecallAt1, ev.RecallAtK, ev.EpsilonOK, ev.AvgHops, ev.AvgDistComps, build.Round(time.Millisecond))
		}
		row("bruteforce", exact, 0)
		for _, tStr := range strings.Split(*taus, ",") {
			var tau float64
			if _, err := fmt.Sscanf(strings.TrimSpace(tStr), "%g", &tau); err != nil {
				fmt.Fprintf(os.Stderr, "benchann: bad tau %q\n", tStr)
				os.Exit(1)
			}
			start := time.Now()
			idx, err := ann.NewTauMG(vecs, ann.TauMGConfig{Tau: float32(tau)})
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchann: %v\n", err)
				os.Exit(1)
			}
			name := fmt.Sprintf("tau-mg(%.2f)", tau)
			if tau == 0 {
				name = "mrng"
			}
			row(name, idx, time.Since(start))
		}
		start := time.Now()
		nsw, err := ann.NewNSW(vecs, ann.NSWConfig{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchann: %v\n", err)
			os.Exit(1)
		}
		row("nsw", nsw, time.Since(start))
		fmt.Println()
	}
}

// parseSizes splits the -sizes flag into positive ints, exiting on garbage.
func parseSizes(sizes string) []int {
	var out []int
	for _, nStr := range strings.Split(sizes, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(nStr), "%d", &n); err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "benchann: bad size %q\n", nStr)
			os.Exit(1)
		}
		out = append(out, n)
	}
	return out
}

// runBatchMode prints the E10 batch-throughput table: per index, queries/sec
// of the sequential Search loop versus SearchBatch over batchSize chunks.
func runBatchMode(rng *rand.Rand, sizes string, dim, nq, k, batchSize int) {
	if nq <= 0 {
		fmt.Fprintf(os.Stderr, "benchann: -batch mode needs -queries > 0 (got %d)\n", nq)
		os.Exit(1)
	}
	fmt.Printf("batch-throughput mode: %d queries, batch=%d, k=%d, GOMAXPROCS-bounded workers\n\n", nq, batchSize, k)
	fmt.Printf("%-8s %-14s %12s %12s %9s\n", "n", "index", "loop-qps", "batch-qps", "speedup")
	for _, n := range parseSizes(sizes) {
		vecs := ann.ClusteredVectors(n, dim, 16, 0.3, rng)
		qs := ann.ClusteredVectors(nq, dim, 16, 0.3, rng)
		indexes := []struct {
			name  string
			build func() (ann.Index, error)
		}{
			{"bruteforce", func() (ann.Index, error) { return ann.NewBruteForce(vecs), nil }},
			{"tau-mg(0.05)", func() (ann.Index, error) { return ann.NewTauMG(vecs, ann.TauMGConfig{Tau: 0.05}) }},
		}
		for _, spec := range indexes {
			idx, err := spec.build()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchann: %v\n", err)
				os.Exit(1)
			}
			// Warm the scratch pool so both paths measure steady state.
			idx.Search(qs[0], k)

			start := time.Now()
			for _, q := range qs {
				idx.Search(q, k)
			}
			loop := time.Since(start)

			start = time.Now()
			for base := 0; base < len(qs); base += batchSize {
				hi := base + batchSize
				if hi > len(qs) {
					hi = len(qs)
				}
				ann.SearchBatch(idx, qs[base:hi], k)
			}
			batched := time.Since(start)

			loopQPS := float64(len(qs)) / loop.Seconds()
			batchQPS := float64(len(qs)) / batched.Seconds()
			fmt.Printf("%-8d %-14s %12.0f %12.0f %8.2fx\n", n, spec.name, loopQPS, batchQPS, batchQPS/loopQPS)
		}
		fmt.Println()
	}
}
