// Package config models the tunable parameters the paper's configuration
// panel (Fig. 3) exposes: ANN search, graph sequentializer, finetuning, and
// LLM settings. Parameters validate as a unit and round-trip through JSON so
// the server can expose a configuration endpoint and the CLI can load a
// config file.
package config

import (
	"encoding/json"
	"fmt"
	"os"
)

// ANN holds the API-retrieval index parameters (left panel of Fig. 3).
type ANN struct {
	// Dim is the embedding dimensionality.
	Dim int `json:"dim"`
	// TopK is how many candidate APIs retrieval returns.
	TopK int `json:"top_k"`
}

// Sequentializer holds the graph-sequentializer parameters.
type Sequentializer struct {
	// MaxPathLength is l, the path length bound.
	MaxPathLength int `json:"max_path_length"`
	// Levels is how many structure levels to emit (1 or 2).
	Levels int `json:"levels"`
	// MaxPathLines caps how many path lines enter the prompt.
	MaxPathLines int `json:"max_path_lines"`
}

// Finetune holds the API chain-oriented finetuning parameters.
type Finetune struct {
	// Rollouts is r, the random rollouts per candidate; 0 is the
	// no-lookahead ablation and is trained as such.
	Rollouts int `json:"rollouts"`
	// Alpha weighs the one-to-one matching regularizer in Definition 1.
	// Positive: the finetuning code reads 0 as "use 0.5".
	Alpha float64 `json:"alpha"`
	// Epochs of rollout refinement, at least 1: the finetuning code reads
	// 0 as "use 2".
	Epochs int `json:"epochs"`
	// Examples sizes the synthetic dataset.
	Examples int `json:"examples"`
}

// LLM holds the model parameters (right panel of Fig. 3).
type LLM struct {
	// Backend is "sim" (built-in) or "http".
	Backend string `json:"backend"`
	// BaseURL is the HTTP endpoint when Backend is "http".
	BaseURL string `json:"base_url,omitempty"`
	// Model is the model identifier for HTTP backends.
	Model string `json:"model,omitempty"`
	// Temperature passed to HTTP backends.
	Temperature float64 `json:"temperature"`
	// MaxChainLength caps generated chains.
	MaxChainLength int `json:"max_chain_length"`
}

// Config is the complete parameter set.
type Config struct {
	ANN            ANN            `json:"ann"`
	Sequentializer Sequentializer `json:"sequentializer"`
	Finetune       Finetune       `json:"finetune"`
	LLM            LLM            `json:"llm"`
}

// Default returns the parameter values the demo ships with.
func Default() Config {
	return Config{
		ANN:            ANN{Dim: 512, TopK: 6},
		Sequentializer: Sequentializer{MaxPathLength: 3, Levels: 2, MaxPathLines: 40},
		Finetune:       Finetune{Rollouts: 4, Alpha: 0.5, Epochs: 2, Examples: 400},
		LLM:            LLM{Backend: "sim", Temperature: 0, MaxChainLength: 8},
	}
}

// Validate checks every parameter range and returns the first violation.
func (c Config) Validate() error {
	switch {
	case c.ANN.Dim < 8 || c.ANN.Dim > 4096:
		return fmt.Errorf("config: ann.dim %d outside [8, 4096]", c.ANN.Dim)
	case c.ANN.TopK < 1 || c.ANN.TopK > 64:
		return fmt.Errorf("config: ann.top_k %d outside [1, 64]", c.ANN.TopK)
	case c.Sequentializer.MaxPathLength < 1 || c.Sequentializer.MaxPathLength > 8:
		return fmt.Errorf("config: sequentializer.max_path_length %d outside [1, 8]", c.Sequentializer.MaxPathLength)
	case c.Sequentializer.Levels < 1 || c.Sequentializer.Levels > 2:
		return fmt.Errorf("config: sequentializer.levels %d outside [1, 2]", c.Sequentializer.Levels)
	case c.Sequentializer.MaxPathLines < 1:
		return fmt.Errorf("config: sequentializer.max_path_lines must be positive")
	case c.Finetune.Rollouts < 0 || c.Finetune.Rollouts > 256:
		return fmt.Errorf("config: finetune.rollouts %d outside [0, 256]", c.Finetune.Rollouts)
	case c.Finetune.Alpha <= 0:
		return fmt.Errorf("config: finetune.alpha %g must be positive", c.Finetune.Alpha)
	case c.Finetune.Epochs < 1 || c.Finetune.Epochs > 64:
		return fmt.Errorf("config: finetune.epochs %d outside [1, 64]", c.Finetune.Epochs)
	case c.Finetune.Examples < 1:
		return fmt.Errorf("config: finetune.examples must be positive")
	case c.LLM.Backend != "sim" && c.LLM.Backend != "http":
		return fmt.Errorf("config: llm.backend %q must be sim or http", c.LLM.Backend)
	case c.LLM.Backend == "http" && c.LLM.BaseURL == "":
		return fmt.Errorf("config: llm.base_url required for the http backend")
	case c.LLM.Temperature < 0 || c.LLM.Temperature > 2:
		return fmt.Errorf("config: llm.temperature %g outside [0, 2]", c.LLM.Temperature)
	case c.LLM.MaxChainLength < 1 || c.LLM.MaxChainLength > 32:
		return fmt.Errorf("config: llm.max_chain_length %d outside [1, 32]", c.LLM.MaxChainLength)
	}
	return nil
}

// Load reads and validates a config file; missing fields inherit defaults.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates JSON bytes over the defaults.
func Parse(data []byte) (Config, error) {
	c := Default()
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
