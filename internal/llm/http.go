package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"chatgraph/internal/chain"
)

// HTTPClient talks to an OpenAI-style chat-completions endpoint
// (POST {BaseURL}/v1/chat/completions). Any locally hosted model server
// speaking that wire format (llama.cpp, vLLM, FastChat serving the paper's
// Vicuna, ...) can be plugged into ChatGraph through it.
type HTTPClient struct {
	// BaseURL is the server root, e.g. "http://localhost:8000".
	BaseURL string
	// Model is the model identifier sent in the request.
	Model string
	// APIKey, when set, is sent as a Bearer token.
	APIKey string
	// Temperature is passed through (0 recommended for chain generation).
	Temperature float64
	// HTTP is the underlying client; nil means a 30 s-timeout default.
	HTTP *http.Client
}

type completionRequest struct {
	Model       string    `json:"model"`
	Messages    []Message `json:"messages"`
	Temperature float64   `json:"temperature"`
}

type completionResponse struct {
	Choices []struct {
		Message Message `json:"message"`
	} `json:"choices"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// glue are the APIs a chain needs whatever the question's topic retrieves:
// classification, statistics, reporting and edit application.
var glue = []string{"graph.classify", "graph.stats", "report.compose", "graph.apply_edits"}

// withGlue lists candidates, then each glue API they do not name and
// descriptions knows, in glue order.
func withGlue(candidates []string, descriptions map[string]string) []string {
	out := append(make([]string, 0, len(candidates)+len(glue)), candidates...)
	for _, a := range glue {
		if _, ok := descriptions[a]; ok && !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// Generate implements Client: it renders req into the graph-aware prompt,
// offering the glue APIs after the retrieved candidates, sends it, and
// parses the reply.
func (c *HTTPClient) Generate(ctx context.Context, req Request) (chain.Chain, error) {
	text, err := c.Complete(ctx, BuildPrompt(req.Question, req.Graph, req.Kind,
		withGlue(req.Candidates, req.Descriptions), req.Descriptions, req.Prompt))
	if err != nil {
		return nil, err
	}
	out, err := chain.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("llm: unparseable chain %q: %w", text, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("llm: empty chain")
	}
	return out, nil
}

// Complete sends one chat transcript and returns the first choice's text.
func (c *HTTPClient) Complete(ctx context.Context, messages []Message) (string, error) {
	if c.BaseURL == "" {
		return "", fmt.Errorf("llm: HTTPClient requires a BaseURL")
	}
	body, err := json.Marshal(completionRequest{Model: c.Model, Messages: messages, Temperature: c.Temperature})
	if err != nil {
		return "", fmt.Errorf("llm: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/chat/completions", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("llm: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return "", fmt.Errorf("llm: request failed: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", fmt.Errorf("llm: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("llm: server returned %s: %.200s", resp.Status, data)
	}
	var cr completionResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return "", fmt.Errorf("llm: decode response: %w", err)
	}
	if cr.Error != nil {
		return "", fmt.Errorf("llm: server error: %s", cr.Error.Message)
	}
	if len(cr.Choices) == 0 {
		return "", fmt.Errorf("llm: response has no choices")
	}
	return cr.Choices[0].Message.Content, nil
}
