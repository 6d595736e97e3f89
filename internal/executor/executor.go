// Package executor runs API chains step by step, providing the confirmation
// and monitoring hooks of the paper's fourth demonstration scenario: a user
// confirms (and may edit) the generated chain before execution, then watches
// per-step progress events while it runs.
//
// Execution is memoizing: steps route through apis.Registry.Invoke, which
// serves Memoizable APIs from the Env's bounded invocation LRU keyed by
// (graph content hash, version, API, args). Re-running a chain against the
// same graph content — the same instance, or any re-upload of identical
// JSON in any session — emits the same events and outputs without
// recomputing anything; a mutation changes both hash and version, so every
// dependent lookup misses.
//
// Execution also honors the interning contract: a graph marked Shared (one
// instance served to every session that uploaded the same content) is
// cloned before any chain containing a Mutates API runs, so graph edits
// stay private to the requesting conversation.
package executor

import (
	"context"
	"fmt"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
	"chatgraph/internal/metrics"
)

// Process-wide execution instruments: resolved once so Run pays only atomic
// increments, never a registry lookup.
var (
	mChainsOK = metrics.Default().Counter("chatgraph_executor_chains_total",
		"Chain executions by outcome.", metrics.Labels{"outcome": "ok"})
	mChainsErr = metrics.Default().Counter("chatgraph_executor_chains_total",
		"Chain executions by outcome.", metrics.Labels{"outcome": "error"})
	mChainsCancelled = metrics.Default().Counter("chatgraph_executor_chains_total",
		"Chain executions by outcome.", metrics.Labels{"outcome": "cancelled"})
	mChainsRejected = metrics.Default().Counter("chatgraph_executor_chains_total",
		"Chain executions by outcome.", metrics.Labels{"outcome": "rejected"})
	mSteps = metrics.Default().Counter("chatgraph_executor_steps_total",
		"Chain steps executed.", nil)
	mStepFailures = metrics.Default().Counter("chatgraph_executor_step_failures_total",
		"Chain steps that returned an error.", nil)
)

// EventType enumerates progress notifications.
type EventType int

const (
	// EventChainStart fires once before the first step.
	EventChainStart EventType = iota
	// EventStepStart fires before each step executes.
	EventStepStart
	// EventStepDone fires after a step succeeds.
	EventStepDone
	// EventStepFailed fires when a step errors; execution stops.
	EventStepFailed
	// EventChainDone fires after the last step succeeds.
	EventChainDone
	// EventCancelled fires when the context is cancelled mid-chain.
	EventCancelled
)

// String names the event type for transcripts.
func (t EventType) String() string {
	switch t {
	case EventChainStart:
		return "chain_start"
	case EventStepStart:
		return "step_start"
	case EventStepDone:
		return "step_done"
	case EventStepFailed:
		return "step_failed"
	case EventChainDone:
		return "chain_done"
	case EventCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Event is one progress notification.
type Event struct {
	Type EventType
	// StepIndex is the 0-based step position (-1 for chain-level events).
	StepIndex int
	// Step is the step concerned (zero for chain-level events).
	Step chain.Step
	// Text carries the step output or error message.
	Text string
	// Err is set for EventStepFailed.
	Err error
	// Elapsed is the time since chain start.
	Elapsed time.Duration
}

// Confirmer reviews a chain before execution. It may return an edited chain;
// approve=false aborts without running anything. This implements the paper's
// "users need to confirm the API chain before it is executed and edit it if
// needed".
type Confirmer func(c chain.Chain) (edited chain.Chain, approve bool)

// Options configures one Run.
type Options struct {
	// Confirm reviews the chain first; nil auto-approves.
	Confirm Confirmer
	// OnEvent receives progress events; nil discards them.
	OnEvent func(Event)
}

// stepBudget caps executed steps as a runaway guard.
const stepBudget = 64

// Result is the outcome of a completed chain.
type Result struct {
	// Outputs holds every step's output in order.
	Outputs []apis.Output
	// Final is the last step's output — the chat answer.
	Final apis.Output
	// Executed is the chain that actually ran (after confirmation edits).
	Executed chain.Chain
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// ErrRejected is returned when the confirmer declines the chain.
var ErrRejected = fmt.Errorf("executor: chain rejected by user")

// Executor validates and runs chains against a registry.
type Executor struct {
	reg *apis.Registry
	env *apis.Env
}

// New returns an Executor over the given registry and environment.
func New(reg *apis.Registry, env *apis.Env) *Executor {
	return &Executor{reg: reg, env: env}
}

// Run executes c against g. The chain is validated, offered to the
// confirmer, and then executed step by step with the output of each step
// piped into the next. Context cancellation is honored between steps.
func (e *Executor) Run(ctx context.Context, g *graph.Graph, c chain.Chain, opts Options) (Result, error) {
	emit := opts.OnEvent
	if emit == nil {
		emit = func(Event) {}
	}
	if err := chain.Validate(c, e.reg); err != nil {
		return Result{}, err
	}
	if opts.Confirm != nil {
		edited, ok := opts.Confirm(c)
		if !ok {
			mChainsRejected.Inc()
			return Result{}, ErrRejected
		}
		if edited != nil {
			if err := chain.Validate(edited, e.reg); err != nil {
				return Result{}, fmt.Errorf("executor: edited chain invalid: %w", err)
			}
			c = edited
		}
	}
	if len(c) > stepBudget {
		return Result{}, fmt.Errorf("executor: chain has %d steps, budget is %d", len(c), stepBudget)
	}
	if g != nil && g.Shared() && e.reg.ChainMutates(c) {
		// g is an interned graph shared across sessions; a chain that edits
		// it gets a private copy (Graph.Clone) so no other conversation sees the
		// edits. Read-only chains keep the shared instance — that is what
		// makes the CSR, stats memo, and invoke-cache entries shared too.
		g = g.Clone()
	}
	start := time.Now()
	emit(Event{Type: EventChainStart, StepIndex: -1, Text: c.String()})
	res := Result{Executed: c, Outputs: make([]apis.Output, 0, len(c))}
	var prev apis.Output
	for i, s := range c {
		select {
		case <-ctx.Done():
			mChainsCancelled.Inc()
			emit(Event{Type: EventCancelled, StepIndex: i, Step: s, Elapsed: time.Since(start), Err: ctx.Err()})
			return res, fmt.Errorf("executor: cancelled at step %d: %w", i+1, ctx.Err())
		default:
		}
		emit(Event{Type: EventStepStart, StepIndex: i, Step: s, Elapsed: time.Since(start)})
		out, err := e.reg.Invoke(s, apis.Input{Graph: g, Prev: prev, Args: s.Args, Env: e.env})
		mSteps.Inc()
		if err != nil {
			mStepFailures.Inc()
			mChainsErr.Inc()
			emit(Event{Type: EventStepFailed, StepIndex: i, Step: s, Err: err, Elapsed: time.Since(start)})
			return res, fmt.Errorf("executor: step %d (%s): %w", i+1, s.API, err)
		}
		emit(Event{Type: EventStepDone, StepIndex: i, Step: s, Text: out.Text, Elapsed: time.Since(start)})
		res.Outputs = append(res.Outputs, out)
		prev = out
	}
	res.Final = prev
	res.Elapsed = time.Since(start)
	mChainsOK.Inc()
	emit(Event{Type: EventChainDone, StepIndex: -1, Text: res.Final.Text, Elapsed: res.Elapsed})
	return res, nil
}
