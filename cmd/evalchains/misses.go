package main

import (
	"fmt"
	"slices"
	"strings"

	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/finetune"
)

// miss is one held-out E7c question whose served chain matches no truth.
type miss struct {
	ex   finetune.Example
	turn core.Turn
}

// printMisses prints E41, one row per E7c miss, grouped by task in held-out
// order: the decoder's chain, the served chain, the truth nearest the served
// chain (chain.MinLoss) and the first step where those two differ, with
// whether that truth step's API was among retrieval's top-k candidates.
// Decoded and served tell the decoder's misses from the serve rule's (the
// simulated LLM serves its own decode unless no step of it was retrieved,
// and then the top candidate); the last column tells retrieval's.
func printMisses(misses []miss, model *finetune.Model, maxLen, topK int, alpha float64) {
	fmt.Printf("%-14s %-44s %-74s %-74s %-74s %4s %-24s %-24s %s\n",
		"task", "question", "decoded", "served", "nearest truth", "step", "served API", "truth API", fmt.Sprintf("top-%d", topK))
	slices.SortStableFunc(misses, func(a, b miss) int { return strings.Compare(a.ex.Task, b.ex.Task) })
	sameAsDecoded, retrieved := 0, 0
	for _, m := range misses {
		decoded := model.Decode(m.ex.Question, m.turn.Kind, maxLen)
		served := m.turn.Chain
		_, nearest := chain.MinLoss(served, m.ex.Truths, alpha)
		truth := m.ex.Truths[nearest]
		step := 0
		for step < len(served) && step < len(truth) && served[step].API == truth[step].API {
			step++
		}
		inTopK := "-"
		if step < len(truth) {
			inTopK = "no"
			if slices.Contains(m.turn.Candidates, truth[step].API) {
				inTopK = "yes"
				retrieved++
			}
		}
		if slices.EqualFunc(decoded, served, func(a, b chain.Step) bool { return a.API == b.API }) {
			sameAsDecoded++
		}
		fmt.Printf("%-14s %-44s %-74s %-74s %-74s %4d %-24s %-24s %s\n", m.ex.Task, m.ex.Question,
			decoded, served, truth, step, apiAt(served, step), apiAt(truth, step), inTopK)
	}
	fmt.Printf("misses: %d; served = decoded (API names): %d; truth API at the first difference in top-%d: %d\n",
		len(misses), sameAsDecoded, topK, retrieved)
}

// apiAt is c's API at step i, or "-" past its end.
func apiAt(c chain.Chain, i int) string {
	if i < len(c) {
		return c[i].API
	}
	return "-"
}
