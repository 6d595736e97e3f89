// Package core is ChatGraph itself: the session orchestrator that turns a
// natural-language prompt (plus an optional uploaded graph) into an executed
// API chain and a chat answer. One Ask call walks the full pipeline of the
// paper's Fig. 1:
//
//	prompt ──► API retrieval (embed + exact scan) ──► graph-aware request
//	       (question, graph kind, candidates, graph) ──► LLM chain
//	       generation (finetuned transition model or HTTP LLM) ──► user
//	       confirmation ──► chain execution with progress monitoring.
//
// Only the HTTP LLM renders the request into the paper's prompt text
// (sequentializer paths + motif super-graph); the simulated model reads the
// graph only through its kind.
//
// The paper indexes API embeddings with a τ-MG; at registry scale the exact
// scan is faster, so that is what retrieval serves, and the τ-MG is
// measured by cmd/benchann.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/config"
	"chatgraph/internal/executor"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/llm"
	"chatgraph/internal/retrieve"
)

// Config assembles an Engine.
type Config struct {
	// Registry is the API catalog (nil → apis.Default with a fresh Env).
	Registry *apis.Registry
	// Env is the shared substrate environment; must be the one Registry
	// was built around when both are set.
	Env *apis.Env
	// Params is the Fig. 3 parameter set the engine runs (nil →
	// config.Default()).
	Params *config.Config
	// Model is the finetuned chain-generation model (nil → trained from
	// Params.Finetune with TrainSeed, unless the engine has another Client:
	// only the SimClient reads it, so none is trained).
	Model *finetune.Model
	// Client generates chains (nil → llm.HTTPClient for llm.backend "http",
	// llm.SimClient over Model otherwise).
	Client llm.Client
	// Retrieve is read by nothing: the index is built from Params.ANN.
	// bench/oracle.go still sets its inert Quantize, and the field goes with
	// chatgraphd's -quantize no-op.
	Retrieve retrieve.Config
	// TrainSeed seeds the training dataset and RNG (used when Model is nil).
	TrainSeed int64
}

// Turn records one completed question/answer exchange.
type Turn struct {
	Question string
	// Kind is the predicted graph kind the routing used.
	Kind graph.Kind
	// Candidates are the retrieved API names offered to the LLM.
	Candidates []string
	// Chain is the chain that was executed (post-confirmation).
	Chain chain.Chain
	// Answer is the final chat answer.
	Answer string
	// Events is the execution progress log.
	Events []executor.Event
	// Elapsed covers generation plus execution.
	Elapsed time.Duration
}

// AskOptions customizes one Ask call.
type AskOptions struct {
	// Confirm reviews/edits the generated chain (nil auto-approves).
	Confirm executor.Confirmer
	// OnEvent observes execution progress live.
	OnEvent func(executor.Event)
}

// Session is one ChatGraph conversation over a shared Engine: it holds only
// the dialog history, so creating one per user is cheap. A Session
// serializes its own Ask calls (a conversation is one dialog), but distinct
// Sessions over the same Engine run fully concurrently. History reads never
// wait on an in-flight Ask, so AskOptions callbacks may call History freely.
type Session struct {
	eng *Engine
	// askMu serializes Ask/AskWithChain: one conversation is one dialog.
	askMu sync.Mutex
	// histMu guards history and is held only for appends and snapshots,
	// never across an Ask.
	histMu  sync.Mutex
	history []Turn
	// turnObs, when set, observes every completed turn (with its dense
	// history index) after it is recorded — the durability layer's hook.
	turnObs func(index int, t Turn)
}

// appendTurn records a completed exchange and notifies the turn observer.
// The observer runs outside histMu (History from inside it must not
// deadlock); Ask serialization via askMu keeps observed indexes in order.
func (s *Session) appendTurn(t Turn) {
	s.histMu.Lock()
	idx := len(s.history)
	s.history = append(s.history, t)
	obs := s.turnObs
	s.histMu.Unlock()
	if obs != nil {
		obs(idx, t)
	}
}

// SetTurnObserver registers fn to be called after every completed turn with
// the turn's dense index in the history. One observer per session; nil
// clears it. Restored history (RestoreHistory) is not observed — it was
// already durable.
func (s *Session) SetTurnObserver(fn func(index int, t Turn)) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	s.turnObs = fn
}

// RestoreHistory appends recovered turns to the session history without
// notifying the turn observer — the recovery path's bulk load.
func (s *Session) RestoreHistory(turns []Turn) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	s.history = append(s.history, turns...)
}

// History returns a snapshot of the completed turns in order.
func (s *Session) History() []Turn {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	out := make([]Turn, len(s.history))
	copy(out, s.history)
	return out
}

// alwaysCandidates are appended to every retrieval result: the glue APIs
// (classification, reporting, edit application) that chains need regardless
// of what the question's topic retrieves.
var alwaysCandidates = []string{"graph.classify", "graph.stats", "report.compose", "graph.apply_edits"}

// Ask runs the full ChatGraph pipeline for one prompt. Concurrent Ask calls
// on the same Session are serialized (one conversation is one dialog);
// sessions sharing an Engine do not block each other.
func (s *Session) Ask(ctx context.Context, question string, g *graph.Graph, opts AskOptions) (turn Turn, err error) {
	s.askMu.Lock()
	defer s.askMu.Unlock()
	start := time.Now()
	defer func() { s.eng.observeAsk(start, err) }()
	turn = Turn{Question: question}
	if strings.TrimSpace(question) == "" {
		return turn, fmt.Errorf("core: empty question")
	}
	if g == nil {
		g = graph.New()
	}
	turn.Kind = graph.Classify(g)

	// 1. API retrieval.
	turn.Candidates = s.eng.retrieveCandidates(question)

	// 2. Chain generation from the graph-aware request.
	text, err := s.eng.client.Generate(ctx, llm.Request{
		Question:     question,
		Kind:         turn.Kind,
		Candidates:   turn.Candidates,
		Descriptions: s.eng.descs,
		Graph:        g,
		Prompt:       s.eng.prompt,
	})
	if err != nil {
		return turn, fmt.Errorf("core: chain generation: %w", err)
	}
	generated, err := chain.Parse(strings.TrimSpace(text))
	if err != nil {
		return turn, fmt.Errorf("core: LLM produced unparseable chain %q: %w", text, err)
	}
	if len(generated) == 0 {
		return turn, fmt.Errorf("core: LLM produced an empty chain")
	}
	generated = repairChain(generated)
	s.eng.fillArgs(generated, question)

	// 3. Confirmation + execution with monitoring.
	err = s.execute(ctx, g, generated, opts, &turn, start)
	return turn, err
}

// AskWithChain skips generation and runs a user-supplied chain — the path
// the monitoring scenario uses after the user edits a chain by hand.
func (s *Session) AskWithChain(ctx context.Context, question string, g *graph.Graph, c chain.Chain, opts AskOptions) (turn Turn, err error) {
	s.askMu.Lock()
	defer s.askMu.Unlock()
	start := time.Now()
	defer func() { s.eng.observeAsk(start, err) }()
	turn = Turn{Question: question, Chain: c}
	if g == nil {
		g = graph.New()
	}
	turn.Kind = graph.Classify(g)
	err = s.execute(ctx, g, c, opts, &turn, start)
	return turn, err
}

// execute is the tail Ask and AskWithChain share: run c against g under the
// caller's confirmer, collecting progress events into turn, then complete
// the turn and record it in the history. A failed run records nothing.
func (s *Session) execute(ctx context.Context, g *graph.Graph, c chain.Chain, opts AskOptions, turn *Turn, start time.Time) error {
	res, err := s.eng.exec.Run(ctx, g, c, executor.Options{
		Confirm: opts.Confirm,
		OnEvent: func(e executor.Event) {
			turn.Events = append(turn.Events, e)
			if opts.OnEvent != nil {
				opts.OnEvent(e)
			}
		},
	})
	if err != nil {
		return err
	}
	turn.Chain = res.Executed
	turn.Answer = res.Final.Text
	turn.Elapsed = time.Since(start)
	s.appendTurn(*turn)
	return nil
}

// retrieveCandidates merges the top-k retrieval hits (distinct by
// construction) with the always-on glue APIs they do not already name,
// preserving relevance order.
func (e *Engine) retrieveCandidates(question string) []string {
	hits := e.index.Names(question, e.params.ANN.TopK)
	out := append(make([]string, 0, len(hits)+len(alwaysCandidates)), hits...)
	for _, a := range alwaysCandidates {
		if _, ok := e.registry.Get(a); ok && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// fillArgs patches required arguments the argless generated chain needs,
// extracting them from the question: node IDs for path/edit APIs, an
// explicit top-k for similarity search.
func (e *Engine) fillArgs(c chain.Chain, question string) {
	nums := extractInts(question)
	for i := range c {
		a, ok := e.registry.Get(c[i].API)
		if !ok {
			continue
		}
		needed := []string{}
		for _, p := range a.Params {
			if p.Required {
				if _, has := c[i].Args[p.Name]; !has {
					needed = append(needed, p.Name)
				}
			}
		}
		if len(needed) == 0 {
			continue
		}
		if c[i].Args == nil {
			c[i].Args = make(map[string]string, len(needed))
		}
		for _, name := range needed {
			switch name {
			case "from", "node", "id":
				if len(nums) > 0 {
					c[i].Args[name] = strconv.Itoa(nums[0])
				}
			case "to":
				if len(nums) > 1 {
					c[i].Args[name] = strconv.Itoa(nums[1])
				} else if len(nums) > 0 {
					c[i].Args[name] = strconv.Itoa(nums[0])
				}
			case "label", "name":
				c[i].Args[name] = "updated"
			}
		}
	}
}

// repairChain fixes structural defects in generated chains that validation
// alone cannot catch: graph.apply_edits consumes the issue list of a
// detection API, so a detection step is inserted when the model omitted it
// (and apply_edits is dropped entirely if it comes first for no reason).
func repairChain(c chain.Chain) chain.Chain {
	out := make(chain.Chain, 0, len(c)+1)
	haveDetect := false
	for _, s := range c {
		if strings.HasPrefix(s.API, "kg.detect") {
			haveDetect = true
		}
		if s.API == "graph.apply_edits" && (!haveDetect || len(out) == 0 || !strings.HasPrefix(out[len(out)-1].API, "kg.detect")) {
			out = append(out, chain.Step{API: "kg.detect_all"})
			haveDetect = true
		}
		out = append(out, s)
	}
	return out
}

// extractInts returns the non-negative integers appearing in text, in order.
func extractInts(text string) []int {
	var out []int
	cur := -1
	for _, r := range text {
		if r >= '0' && r <= '9' {
			if cur < 0 {
				cur = 0
			}
			cur = cur*10 + int(r-'0')
			continue
		}
		if cur >= 0 {
			out = append(out, cur)
			cur = -1
		}
	}
	if cur >= 0 {
		out = append(out, cur)
	}
	return out
}

// SuggestedQuestions returns the prompt suggestions the demo UI shows in
// panel 2, specialized to the uploaded graph's kind.
func SuggestedQuestions(kind graph.Kind) []string {
	switch kind {
	case graph.KindMolecule:
		return []string{
			"Write a brief report for this molecule",
			"Is this molecule toxic?",
			"What molecules are similar to G?",
			"Predict the solubility of the compound",
		}
	case graph.KindKnowledge:
		return []string{
			"Clean G",
			"What edges are missing from the knowledge graph?",
			"Detect the incorrect edges",
		}
	case graph.KindSocial:
		return []string{
			"Write a brief report for G",
			"What communities are in this network?",
			"Who are the most influential nodes?",
			"Is the network connected?",
		}
	default:
		return []string{
			"Write a brief report for G",
			"Summarize the statistics of the graph",
		}
	}
}

// SeedMoleculeDB fills the environment's molecule database with n random
// molecules so similarity search has something to compare against — the
// stand-in for the paper's real molecule collection.
func SeedMoleculeDB(env *apis.Env, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		size := 8 + rng.Intn(20)
		env.MolDB.Add(fmt.Sprintf("mol_%03d", i), graph.Molecule(size, rng))
	}
}
