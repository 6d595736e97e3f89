// Command benchann regenerates experiment E5: it sweeps dataset size and τ
// and prints a table comparing τ-MG against the MRNG and NSW baselines on
// recall, ε-approximation rate, routing hops, and distance computations —
// the quantitative backing for the paper's claim that τ-MG is the
// state-of-the-art proximity graph for the API-retrieval module. Every
// query runs on the main goroutine, one after another.
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
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
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
