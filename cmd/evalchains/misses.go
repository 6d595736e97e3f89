package main

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
)

// miss is one held-out E7c question whose served chain matches no truth:
// the turn Session.Ask served for it on g, and the error it returned.
type miss struct {
	ex   finetune.Example
	g    *graph.Graph
	turn core.Turn
	err  error
}

// printMisses prints E41, one row per E7c miss, grouped by task in held-out
// order: the decoder's chain, the served chain, the truth nearest the served
// chain (chain.MinLoss) and the first step where those two differ, with
// whether that truth step's API was among retrieval's top-k candidates, and
// whether the served answer is the one Session.AskWithChain gives for that
// truth on the same graph ("err" when either run fails). Decoded and served
// tell the decoder's misses from the serve rule's (the simulated LLM serves
// its own decode unless no step of it was retrieved, and then the top
// candidate); top-k tells retrieval's.
func printMisses(eng *core.Engine, misses []miss, model *finetune.Model, maxLen, topK int, alpha float64) {
	fmt.Printf("%-14s %-44s %-74s %-74s %-74s %4s %-24s %-24s %-6s %s\n",
		"task", "question", "decoded", "served", "nearest truth", "step", "served API", "truth API", fmt.Sprintf("top-%d", topK), "same answer")
	slices.SortStableFunc(misses, func(a, b miss) int { return strings.Compare(a.ex.Task, b.ex.Task) })
	sameAsDecoded, retrieved, sameAnswer := 0, 0, 0
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
		answer := "err"
		if want, err := eng.NewSession().AskWithChain(context.Background(), m.ex.Question, m.g, truth, core.AskOptions{}); m.err == nil && err == nil {
			answer = "no"
			if m.turn.Answer == want.Answer {
				answer = "yes"
				sameAnswer++
			}
		}
		fmt.Printf("%-14s %-44s %-74s %-74s %-74s %4d %-24s %-24s %-6s %s\n", m.ex.Task, m.ex.Question,
			decoded, served, truth, step, apiAt(served, step), apiAt(truth, step), inTopK, answer)
	}
	fmt.Printf("misses: %d; served = decoded (API names): %d; truth API at the first difference in top-%d: %d; same answer as the nearest truth: %d\n",
		len(misses), sameAsDecoded, topK, retrieved, sameAnswer)
}

// apiAt is c's API at step i, or "-" past its end.
func apiAt(c chain.Chain, i int) string {
	if i < len(c) {
		return c[i].API
	}
	return "-"
}
