package core

import (
	"fmt"
	"math/rand"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/config"
	"chatgraph/internal/executor"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graphstore"
	"chatgraph/internal/llm"
	"chatgraph/internal/metrics"
	"chatgraph/internal/retrieve"
)

// engineMetrics are the engine-level instruments, resolved once per process
// from the default registry (every engine in a process shares them — the
// counters describe the process, not one engine instance).
type engineMetrics struct {
	asks            *metrics.Counter
	askErrors       *metrics.Counter
	askDur          *metrics.Histogram
	retrieveBatches *metrics.Counter
	retrieveQueries *metrics.Counter
}

func newEngineMetrics() *engineMetrics {
	reg := metrics.Default()
	return &engineMetrics{
		asks: reg.Counter("chatgraph_engine_asks_total",
			"Completed or failed Ask pipeline runs.", nil),
		askErrors: reg.Counter("chatgraph_engine_ask_errors_total",
			"Ask pipeline runs that returned an error.", nil),
		askDur: reg.Histogram("chatgraph_engine_ask_duration_seconds",
			"End-to-end Ask latency (retrieval + prompt + generation + execution).",
			metrics.DefBuckets, nil),
		retrieveBatches: reg.Counter("chatgraph_engine_retrieve_batches_total",
			"RetrieveBatch calls.", nil),
		retrieveQueries: reg.Counter("chatgraph_engine_retrieve_queries_total",
			"Queries answered across all RetrieveBatch calls.", nil),
	}
}

// Engine is the immutable, concurrency-safe bundle of everything expensive
// that ChatGraph conversations share: the API registry, the substrate
// environment, the finetuned chain-generation model, the API retrieval
// index (an exact flat scan), the LLM client, and the chain executor. Build
// one Engine per process (training the model and building the index happen
// here) and mint cheap per-conversation Sessions from it with NewSession. All
// Engine state is read-only after construction, so any number of Sessions may
// Ask concurrently against the same Engine.
type Engine struct {
	registry *apis.Registry
	env      *apis.Env
	model    *finetune.Model
	client   llm.Client
	index    *retrieve.Index
	exec     *executor.Executor
	// graphs interns every uploaded graph: re-uploads dedupe onto one shared
	// instance, which is what turns the content-keyed invoke cache into a
	// cross-session cache.
	graphs *graphstore.Store
	cfg    Config
	// descs is the engine's private snapshot of the retrieval index's
	// name → description map, taken once at construction so the per-Ask
	// prompt build neither copies the map nor shares mutable state.
	descs map[string]string
	// met are the process-wide engine instruments (never nil).
	met *engineMetrics
	// fileConfig is set when the engine was built by NewEngineFromConfig.
	fileConfig *config.Config
}

// NewEngine builds the shared engine from cfg, defaulting every zero-value
// field: a Default registry over a fresh Env, a model trained on a generated
// dataset, a SimClient over that model, and a retrieval index over the
// registry descriptions. The model is trained only when it will generate
// chains: with cfg.Client set and cfg.Model nil, nothing is trained.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		cfg.Env = &apis.Env{}
	}
	if cfg.Registry == nil {
		cfg.Registry = apis.Default(cfg.Env)
	}
	if cfg.Env.Cache == nil {
		// Engines always memoize: sessions asking follow-up questions about
		// one unmutated graph short-circuit repeated analyses through the
		// invocation LRU (apis.Default installs one, but a caller-supplied
		// Registry+Env pair may arrive without it).
		cfg.Env.Cache = apis.NewInvokeCache(apis.DefaultInvokeCacheSize)
	}
	if cfg.RetrievalK <= 0 {
		cfg.RetrievalK = 6
	}
	if cfg.Client == nil {
		// Only the SimClient reads the model, so an engine handed an
		// external Client trains nothing.
		if cfg.Model == nil {
			cfg.Model = trainDefaultModel(cfg)
		}
		maxLen := cfg.Prompt.MaxChainLength
		if maxLen <= 0 {
			maxLen = 8
		}
		cfg.Client = llm.NewSimClient(cfg.Model, maxLen)
	}
	ix, err := retrieve.New(cfg.Registry, cfg.Retrieve)
	if err != nil {
		return nil, fmt.Errorf("core: build retrieval index: %w", err)
	}
	return &Engine{
		registry: cfg.Registry,
		env:      cfg.Env,
		model:    cfg.Model,
		client:   cfg.Client,
		index:    ix,
		exec:     executor.New(cfg.Registry, cfg.Env),
		graphs:   graphstore.New(0),
		cfg:      cfg,
		descs:    ix.Descriptions(),
		met:      newEngineMetrics(),
	}, nil
}

// trainDefaultModel finetunes the chain-generation model with NewEngine's
// training defaults: TrainExamples (0 → 400) generated examples, 2
// rollout-refinement epochs, r = 4.
func trainDefaultModel(cfg Config) *finetune.Model {
	n := cfg.TrainExamples
	if n <= 0 {
		n = 400
	}
	return trainModel(cfg.Registry, n, cfg.TrainSeed, finetune.TrainConfig{
		Epochs: 2,
		Search: finetune.SearchConfig{Rollouts: 4},
	})
}

// trainModel finetunes a model over the registry's vocabulary on n examples
// generated from seed, which also drives the training RNG.
func trainModel(registry *apis.Registry, n int, seed int64, tc finetune.TrainConfig) *finetune.Model {
	tc.Seed = seed
	ds := finetune.GenerateDataset(n, rand.New(rand.NewSource(seed)))
	return finetune.Train(registry.Names(), ds, tc)
}

// NewEngineFromConfig builds an Engine from the Fig. 3-style parameter set:
// ANN parameters shape the retrieval index, sequentializer parameters shape
// the prompt, finetuning parameters shape model training, and the LLM block
// selects the generation backend. registry/env may be nil for defaults.
//
// The model is trained here, from the file's values as written: NewEngine
// reads a zero as "unset", and finetune.rollouts 0 (no lookahead) is a value
// Validate accepts and GET /config reports.
func NewEngineFromConfig(fc config.Config, registry *apis.Registry, env *apis.Env, seed int64) (*Engine, error) {
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	if env == nil {
		env = &apis.Env{}
	}
	if registry == nil {
		registry = apis.Default(env)
	}
	cfg := Config{
		Registry:   registry,
		Env:        env,
		RetrievalK: fc.ANN.TopK,
		Retrieve:   retrieve.Config{Dim: fc.ANN.Dim},
		Prompt: llm.PromptConfig{
			MaxPathLines:   fc.Sequentializer.MaxPathLines,
			PathLength:     fc.Sequentializer.MaxPathLength,
			Levels:         fc.Sequentializer.Levels,
			MaxChainLength: fc.LLM.MaxChainLength,
		},
	}
	if fc.LLM.Backend == "http" {
		cfg.Client = &llm.HTTPClient{
			BaseURL:     fc.LLM.BaseURL,
			Model:       fc.LLM.Model,
			Temperature: fc.LLM.Temperature,
		}
	} else {
		cfg.Model = trainModel(registry, fc.Finetune.Examples, seed, finetune.TrainConfig{
			Epochs: fc.Finetune.Epochs,
			Search: finetune.SearchConfig{
				Rollouts: fc.Finetune.Rollouts,
				Alpha:    fc.Finetune.Alpha,
			},
		})
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.fileConfig = &fc
	return e, nil
}

// NewSession mints a lightweight conversation over the shared engine. It
// allocates only history bookkeeping; any number of sessions created this
// way may Ask concurrently.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e}
}

// Registry exposes the engine's API catalog.
func (e *Engine) Registry() *apis.Registry { return e.registry }

// Retrieval exposes the engine's API-retrieval index. The index is
// immutable, so callers may search it concurrently with live sessions.
func (e *Engine) Retrieval() *retrieve.Index { return e.index }

// RetrieveBatch answers many retrieval queries in one call on the shared
// index. k ≤ 0 uses the engine's configured RetrievalK. out[i] is the ranked
// hit list for queries[i].
func (e *Engine) RetrieveBatch(queries []string, k int) [][]retrieve.Scored {
	if k <= 0 {
		k = e.cfg.RetrievalK
	}
	e.met.retrieveBatches.Inc()
	e.met.retrieveQueries.Add(uint64(len(queries)))
	return e.index.TopAPIsBatch(queries, k)
}

// observeAsk records one Ask pipeline run (success or failure) in the
// engine instruments. Called via defer from Session.Ask/AskWithChain.
func (e *Engine) observeAsk(start time.Time, err error) {
	e.met.asks.Inc()
	e.met.askDur.Observe(time.Since(start).Seconds())
	if err != nil {
		e.met.askErrors.Inc()
	}
}

// Env exposes the shared substrate environment.
func (e *Engine) Env() *apis.Env { return e.env }

// Graphs exposes the engine's graph interning store. The server routes every
// uploaded graph through it so identical content resolves to one shared
// instance.
func (e *Engine) Graphs() *graphstore.Store { return e.graphs }

// Model exposes the chain-generation model the engine was built with. It is
// nil for an externally-backed engine (Config.Client set, Config.Model not):
// such an engine generates chains through its Client and trains no model.
func (e *Engine) Model() *finetune.Model { return e.model }

// FileConfig returns the config.Config the engine was built from, or nil
// when it was assembled programmatically.
func (e *Engine) FileConfig() *config.Config { return e.fileConfig }
