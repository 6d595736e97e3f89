// HTTP LLM backend: runs ChatGraph against an OpenAI-style chat-completions
// endpoint instead of the built-in simulated model. To stay runnable
// offline, this example starts an in-process mock server that answers every
// completion request with a fixed API chain — exactly the wire exchange a
// real endpoint (vLLM/FastChat serving the paper's Vicuna) would have.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
)

func main() {
	// Mock endpoint: always proposes the social-report chain.
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model    string `json:"model"`
			Messages []struct {
				Role    string `json:"role"`
				Content string `json:"content"`
			} `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Printf("mock LLM got %d message(s) for model %q\n", len(req.Messages), req.Model)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"choices": []map[string]any{{
				"message": map[string]string{
					"role":    "assistant",
					"content": "graph.classify -> community.detect -> report.compose",
				},
			}},
		})
	}))
	defer mock.Close()

	// Build the engine from a Fig. 3-style config with the HTTP backend.
	fc := config.Default()
	fc.LLM.Backend = "http"
	fc.LLM.BaseURL = mock.URL
	fc.LLM.Model = "vicuna-13b"

	eng, err := core.NewEngine(core.Config{Params: &fc})
	if err != nil {
		log.Fatal(err)
	}
	sess := eng.NewSession()

	g := graph.PlantedCommunities(3, 12, 0.5, 0.02, rand.New(rand.NewSource(99)))
	turn, err := sess.Ask(context.Background(), "Write a brief report for G", g, core.AskOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchain (from HTTP LLM): %s\n\n%s\n", turn.Chain, turn.Answer)
}
