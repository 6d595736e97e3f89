package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/llm"
)

// The simulated model used to be fed rendered prompt text, which it parsed
// back (SimClient.Complete over llm.BuildPrompt). It now reads the request
// Ask builds. For every single-line question — the generated dataset's and
// the demo's suggestions, on all three graph kinds, with and without
// surrounding spaces — both roads must give the same reply, byte for byte.
func TestSimGenerateMatchesPromptRoundTrip(t *testing.T) {
	eng := session(t).eng
	sim, ok := eng.client.(*llm.SimClient)
	if !ok {
		t.Fatalf("default engine client is %T, want *llm.SimClient", eng.client)
	}
	var questions []string
	for _, ex := range finetune.GenerateDataset(200, rand.New(rand.NewSource(11))) {
		if !strings.Contains(ex.Question, "\n") {
			questions = append(questions, ex.Question)
		}
	}
	for _, k := range []graph.Kind{graph.KindSocial, graph.KindMolecule, graph.KindKnowledge, graph.KindUnknown} {
		questions = append(questions, SuggestedQuestions(k)...)
	}
	for _, q := range questions {
		questions = append(questions, "  "+q+" \t") // range reads the original slice only
	}
	rng := rand.New(rand.NewSource(12))
	graphs := []*graph.Graph{
		graph.PlantedCommunities(3, 12, 0.5, 0.05, rng),
		graph.Molecule(18, rng),
		graph.KnowledgeGraph(30, 60, rng),
	}
	ctx := context.Background()
	checked := 0
	for _, g := range graphs {
		kind := graph.Classify(g)
		for _, q := range questions {
			req := llm.Request{
				Question:     q,
				Kind:         kind,
				Candidates:   eng.index.Names(q, eng.params.ANN.TopK),
				Descriptions: eng.descs,
				Graph:        g,
				Prompt:       eng.prompt,
			}
			out, gotErr := sim.Generate(ctx, req)
			got := out.String()
			want, wantErr := sim.Complete(ctx, llm.BuildPrompt(req.Question, req.Graph, req.Kind, req.Candidates, req.Descriptions, req.Prompt))
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s graph, question %q:\nGenerate: %q, %v\nComplete: %q, %v", kind, q, got, gotErr, want, wantErr)
			}
			checked++
		}
	}
	if checked < 3*400 {
		t.Fatalf("only %d question/graph pairs checked", checked)
	}
}
