package main

import (
	"context"
	"fmt"
	"math/rand"

	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/server"
)

// Daemon constants every run shares: `chatgraphd -seed 42 -molecules 200`.
const (
	daemonSeed      = 42
	daemonMolecules = 200
)

// newEngine assembles an engine exactly as cmd/chatgraphd does for
// `-seed 42 -molecules 200 [-quantize]`, with private caches. model may be
// nil (train one, ~3.5 s) or a model an earlier call trained: training
// depends only on the seed, so engines built here share one read-only model
// and differ only in their caches and retrieval tier.
func newEngine(model *finetune.Model, quantize bool) (*core.Engine, error) {
	rng := rand.New(rand.NewSource(daemonSeed))
	env := &apis.Env{}
	reg := apis.Default(env)
	core.SeedMoleculeDB(env, daemonMolecules, rng)
	cfg := core.Config{Registry: reg, Env: env, TrainSeed: daemonSeed, Model: model}
	cfg.Retrieve.Quantize = quantize
	return core.NewEngine(cfg)
}

// oracle computes, outside the timed phases, what the daemon must answer:
// the chain and answer of a fresh in-process engine asked the same question
// about the same graph, and the exact retrieval hits for each query text.
type oracle struct {
	eng  *core.Engine
	chat map[string]*chatWant
	hits map[string][]server.RetrieveHit
}

func newOracle(eng *core.Engine) *oracle {
	return &oracle{eng: eng, chat: map[string]*chatWant{}, hits: map[string][]server.RetrieveHit{}}
}

// fill puts the expected reply on every op marked for the oracle.
func (or *oracle) fill(ops []op) error {
	for i := range ops {
		o := &ops[i]
		if !o.oracle {
			continue
		}
		if o.kind == opRetrieve {
			o.wantHits = make([][]server.RetrieveHit, len(o.queries))
			for j, q := range o.queries {
				o.wantHits[j] = or.retrieve(q)
			}
			continue
		}
		want := or.chat[o.pair] // never-repeated graphs have pair "" and are not stored
		if want == nil {
			var err error
			if want, err = or.ask(o); err != nil {
				return err
			}
			if o.pair != "" {
				or.chat[o.pair] = want
			}
		}
		o.wantChat = want
	}
	return nil
}

func (or *oracle) ask(o *op) (*chatWant, error) {
	g, err := graph.ParseJSON(o.graph)
	if err != nil {
		return nil, fmt.Errorf("oracle: generated graph does not parse: %w", err)
	}
	turn, err := or.eng.NewSession().Ask(context.Background(), o.question, g, core.AskOptions{})
	if err != nil {
		return nil, fmt.Errorf("oracle: %q: %w", o.question, err)
	}
	return &chatWant{chain: turn.Chain.String(), answer: turn.Answer}, nil
}

func (or *oracle) retrieve(query string) []server.RetrieveHit {
	if h, ok := or.hits[query]; ok {
		return h
	}
	ix := or.eng.Retrieval()
	var out []server.RetrieveHit
	for _, s := range or.eng.RetrieveBatch([]string{query}, retrieveK)[0] {
		out = append(out, server.RetrieveHit{Name: s.Name, Description: ix.Description(s.Name), Distance: s.Distance})
	}
	or.hits[query] = out
	return out
}
