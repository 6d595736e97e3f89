// Package llm abstracts the language model that turns a (text, graph) prompt
// into an API chain. The paper plugs HuggingFace models (ChatGLM, MOSS,
// Vicuna) into this slot; offline this package provides two interchangeable
// implementations of the same Client interface:
//
//   - SimClient — a deterministic graph-aware model backed by the finetuned
//     transition model from internal/finetune. It consumes the exact same
//     prompt text (question, graph kind, candidate APIs, graph path
//     sequences) a real LLM would receive, so the full prompt-construction
//     code path is exercised.
//   - HTTPClient — an OpenAI-style chat-completions client over net/http
//     for use against any locally hosted model endpoint.
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

// Client generates a completion for a chat transcript.
type Client interface {
	Complete(ctx context.Context, messages []Message) (string, error)
}

// Prompt section markers. The builder writes them; SimClient parses them;
// real LLMs simply see well-structured text.
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

// SimClient is the deterministic offline LLM: it parses the structured
// prompt and decodes an API chain from the finetuned transition model,
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

// Complete implements Client.
func (c *SimClient) Complete(_ context.Context, messages []Message) (string, error) {
	question, kind, candidates, err := parsePrompt(messages)
	if err != nil {
		return "", err
	}
	generated := c.model.Decode(question, kind, c.maxLen)
	if len(candidates) > 0 {
		allowed := make(map[string]bool, len(candidates))
		for _, a := range candidates {
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
		if len(filtered) == 0 && len(candidates) > 0 {
			filtered = chain.Chain{chain.Step{API: candidates[0]}}
		}
		generated = filtered
	}
	if len(generated) == 0 {
		return "", fmt.Errorf("llm: model generated an empty chain for %q", question)
	}
	return generated.String(), nil
}
