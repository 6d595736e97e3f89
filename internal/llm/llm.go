// Package llm abstracts the language model that turns a (question, graph)
// request into an API chain. The paper plugs HuggingFace models (ChatGLM,
// MOSS, Vicuna) into this slot; offline this package provides two
// interchangeable implementations of the same Client interface, both fed the
// same structured Request:
//
//   - SimClient — a deterministic model backed by the finetuned transition
//     model from internal/finetune. It reads the request's question, graph
//     kind and candidate APIs directly: it sees the graph only through its
//     kind, so no prompt text is built for it.
//   - HTTPClient — an OpenAI-style chat-completions client over net/http
//     for use against any locally hosted model endpoint. It is the one
//     client that renders the graph-aware prompt (BuildPrompt: question,
//     kind, candidate APIs with descriptions, and the graph's path
//     sequences at both structure levels).
package llm

import (
	"context"
	"fmt"
	"strings"

	"chatgraph/internal/chain"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
	"chatgraph/internal/seq"
)

// Message is one chat turn.
type Message struct {
	Role    string `json:"role"` // "system", "user", or "assistant"
	Content string `json:"content"`
}

// Request is one chain-generation call: the question and the graph evidence
// the pipeline has gathered for it.
type Request struct {
	// Question is the user's prompt, verbatim.
	Question string
	// Kind is the predicted graph kind.
	Kind graph.Kind
	// Candidates are the retrieved API names in relevance order; a non-empty
	// list is the set a generated chain may use.
	Candidates []string
	// Descriptions maps API names to the descriptions the prompt lists.
	Descriptions map[string]string
	// Graph is the uploaded graph the prompt serializes (nil: none).
	Graph *graph.Graph
	// Prompt tunes the serialized graph sections.
	Prompt PromptConfig
}

// Client generates an API chain, as text, for a request.
type Client interface {
	Generate(ctx context.Context, req Request) (string, error)
}

// Prompt section markers. The builder writes them and real LLMs simply see
// well-structured text; parsePrompt reads them back for SimClient.Complete.
const (
	sectionQuestion = "### Question"
	sectionKind     = "### GraphKind"
	sectionAPIs     = "### CandidateAPIs"
	sectionPaths    = "### GraphPaths"
	sectionSuper    = "### GraphMotifPaths"
)

// PromptConfig tunes prompt construction.
type PromptConfig struct {
	// MaxPathLines caps how many path lines are injected (0 → 40).
	MaxPathLines int
	// PathLength is the sequentializer's l (0 → 3).
	PathLength int
	// Levels is the sequentializer's structure-level count: 1 = paths only,
	// 2 = paths plus the motif super-graph section (0 → 2).
	Levels int
}

// BuildPrompt renders the ChatGraph prompt: the user question, the predicted
// graph kind, the retrieved candidate APIs with descriptions, and the graph
// serialized by the sequentializer at both structure levels.
func BuildPrompt(question string, g *graph.Graph, kind graph.Kind, candidates []string, descriptions map[string]string, cfg PromptConfig) []Message {
	if cfg.MaxPathLines <= 0 {
		cfg.MaxPathLines = 40
	}
	if cfg.PathLength <= 0 {
		cfg.PathLength = 3
	}
	var b strings.Builder
	b.WriteString(sectionQuestion + "\n")
	b.WriteString(question)
	b.WriteString("\n\n" + sectionKind + "\n")
	b.WriteString(kind.String())
	b.WriteString("\n\n" + sectionAPIs + "\n")
	for _, c := range candidates {
		b.WriteString("- ")
		b.WriteString(c)
		if d := descriptions[c]; d != "" {
			b.WriteString(": ")
			b.WriteString(d)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	if g != nil && g.NumNodes() > 0 {
		// Only the lines printed below are materialised; the elision counts
		// stay exact because the sequentializer counts the rest.
		res := seq.SequentializeHead(g, seq.Options{MaxLength: cfg.PathLength, Levels: cfg.Levels},
			cfg.MaxPathLines, max(1, cfg.MaxPathLines/2))
		b.WriteString(sectionPaths + "\n")
		seq.RenderHead(&b, g, res.Paths, res.NumPaths)
		b.WriteByte('\n')
		if res.NumSuperPaths > 0 {
			b.WriteString(sectionSuper + "\n")
			seq.RenderHead(&b, res.Super, res.SuperPaths, res.NumSuperPaths)
			b.WriteByte('\n')
		}
	}
	system := "You are ChatGraph. Given the user question, the graph kind, the candidate " +
		"APIs, and the graph path sequences, answer with exactly one API chain in the form " +
		"\"api1 -> api2(arg=value) -> api3\" using only candidate APIs."
	return []Message{
		{Role: "system", Content: system},
		{Role: "user", Content: b.String()},
	}
}

// parsePrompt recovers the structured fields from a BuildPrompt message list.
// Its one caller is SimClient.Complete; both go when bench/trace.go moves to
// Generate. Question text is read as prompt structure here (only its first
// line is kept, and a line starting "### " switches sections), which is why
// nothing on the serving path goes through it.
func parsePrompt(messages []Message) (question string, kind graph.Kind, candidates []string, err error) {
	var user string
	for _, m := range messages {
		if m.Role == "user" {
			user = m.Content
		}
	}
	if user == "" {
		return "", graph.KindUnknown, nil, fmt.Errorf("llm: prompt has no user message")
	}
	section := ""
	for _, line := range strings.Split(user, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "### "):
			section = trimmed
		case trimmed == "":
		default:
			switch section {
			case sectionQuestion:
				if question == "" {
					question = trimmed
				}
			case sectionKind:
				kind = graph.ParseKind(trimmed)
			case sectionAPIs:
				name := strings.TrimPrefix(trimmed, "- ")
				if i := strings.IndexByte(name, ':'); i > 0 {
					name = name[:i]
				}
				candidates = append(candidates, strings.TrimSpace(name))
			}
		}
	}
	if question == "" {
		return "", graph.KindUnknown, nil, fmt.Errorf("llm: prompt missing %s section", sectionQuestion)
	}
	return question, kind, candidates, nil
}

// SimClient is the deterministic offline LLM: it decodes an API chain from
// the finetuned transition model for the request's question and graph kind,
// restricted to the candidate APIs when candidates are present.
type SimClient struct {
	model *finetune.Model
	// maxLen caps generated chains.
	maxLen int
}

// NewSimClient wraps a finetuned model. maxLen ≤ 0 means 8.
func NewSimClient(model *finetune.Model, maxLen int) *SimClient {
	if maxLen <= 0 {
		maxLen = 8
	}
	return &SimClient{model: model, maxLen: maxLen}
}

// Generate implements Client. It reads the question, the kind and the
// candidates; the graph, the descriptions and the prompt config are not read.
func (c *SimClient) Generate(_ context.Context, req Request) (string, error) {
	question := strings.TrimSpace(req.Question)
	if question == "" {
		return "", fmt.Errorf("llm: empty question")
	}
	generated := c.model.Decode(question, req.Kind, c.maxLen)
	if len(req.Candidates) > 0 {
		allowed := make(map[string]bool, len(req.Candidates))
		for _, a := range req.Candidates {
			allowed[a] = true
		}
		filtered := generated[:0]
		for _, s := range generated {
			if allowed[s.API] {
				filtered = append(filtered, s)
			}
		}
		// If filtering removed everything, fall back to the top candidate
		// so the session always has a chain to confirm.
		if len(filtered) == 0 {
			filtered = chain.Chain{chain.Step{API: req.Candidates[0]}}
		}
		generated = filtered
	}
	if len(generated) == 0 {
		return "", fmt.Errorf("llm: model generated an empty chain for %q", question)
	}
	return generated.String(), nil
}

// Complete answers a BuildPrompt transcript: parsePrompt recovers the
// request and Generate decodes it. Only bench/trace.go calls it, timing
// BuildPrompt and the model as separate layers; it goes, with parsePrompt,
// when the trace calls Generate.
func (c *SimClient) Complete(ctx context.Context, messages []Message) (string, error) {
	question, kind, candidates, err := parsePrompt(messages)
	if err != nil {
		return "", err
	}
	return c.Generate(ctx, Request{Question: question, Kind: kind, Candidates: candidates})
}
