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
	// params is the Fig. 3 parameter set the engine was built from and runs.
	params config.Config
	// prompt is params' sequentializer block as llm.Request carries it.
	prompt llm.PromptConfig
	// descs is the engine's private snapshot of the retrieval index's
	// name → description map, taken once at construction so a per-Ask
	// request neither copies the map nor shares mutable state (only an
	// HTTP client's prompt reads it).
	descs map[string]string
	// met are the process-wide engine instruments (never nil).
	met *engineMetrics
}

// NewEngine builds the shared engine from cfg. cfg.Params (nil →
// config.Default()) is validated and is everything tunable: the index's
// embedding dimension, the retrieval depth, the prompt's sequentializer
// parameters, and the chain generator — an HTTPClient for llm.backend
// "http", otherwise a SimClient over a model trained from the finetune block
// as written. A nil Registry is apis.Default over Env (a fresh Env when nil).
// cfg.Model and cfg.Client, when set, replace what would be built; only the
// SimClient reads a model, so an engine with any other client trains none.
func NewEngine(cfg Config) (*Engine, error) {
	p := config.Default()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
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
	if cfg.Client == nil && p.LLM.Backend == "http" {
		cfg.Client = &llm.HTTPClient{BaseURL: p.LLM.BaseURL, Model: p.LLM.Model, Temperature: p.LLM.Temperature}
	}
	if cfg.Client == nil {
		if cfg.Model == nil {
			ds := finetune.GenerateDataset(p.Finetune.Examples, rand.New(rand.NewSource(cfg.TrainSeed)))
			cfg.Model = finetune.Train(cfg.Registry.Names(), ds, finetune.TrainConfig{
				Epochs: p.Finetune.Epochs,
				Search: finetune.SearchConfig{Rollouts: p.Finetune.Rollouts, Alpha: p.Finetune.Alpha},
				Seed:   cfg.TrainSeed,
			})
		}
		cfg.Client = llm.NewSimClient(cfg.Model, p.LLM.MaxChainLength)
	}
	ix, err := retrieve.New(cfg.Registry, retrieve.Config{Dim: p.ANN.Dim})
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
		params:   p,
		prompt: llm.PromptConfig{
			MaxPathLines: p.Sequentializer.MaxPathLines,
			PathLength:   p.Sequentializer.MaxPathLength,
			Levels:       p.Sequentializer.Levels,
		},
		descs: ix.Descriptions(),
		met:   newEngineMetrics(),
	}, nil
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
// index. k ≤ 0 uses the engine's ann.top_k. out[i] is the ranked hit list
// for queries[i].
func (e *Engine) RetrieveBatch(queries []string, k int) [][]retrieve.Scored {
	if k <= 0 {
		k = e.params.ANN.TopK
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
// nil for an externally-backed engine (a Client set or built, Config.Model
// not): such an engine generates chains through its Client and trains no
// model.
func (e *Engine) Model() *finetune.Model { return e.model }

// Params returns the Fig. 3 parameter set the engine runs, the one
// GET /config reports.
func (e *Engine) Params() config.Config { return e.params }
