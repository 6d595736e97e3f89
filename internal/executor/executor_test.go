package executor

import (
	"context"
	"errors"
	"strings"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

func setup() (*Executor, *graph.Graph) {
	env := &apis.Env{}
	reg := apis.Default(env)
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddNode("v")
	}
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1)) //nolint:errcheck
	}
	return New(reg, env), g
}

func TestRunPipesPrevBetweenSteps(t *testing.T) {
	ex, g := setup()
	c := chain.Chain{
		chain.NewStep("structure.density"),
		chain.NewStep("report.compose"),
	}
	res, err := ex.Run(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	// report.compose embeds the previous step's text.
	if !strings.Contains(res.Final.Text, "Density") {
		t.Fatalf("prev not piped into report:\n%s", res.Final.Text)
	}
}

func TestRunEmitsEventsInOrder(t *testing.T) {
	ex, g := setup()
	var types []EventType
	c := chain.Chain{chain.NewStep("graph.stats")}
	_, err := ex.Run(context.Background(), g, c, Options{OnEvent: func(e Event) { types = append(types, e.Type) }})
	if err != nil {
		t.Fatal(err)
	}
	want := []EventType{EventChainStart, EventStepStart, EventStepDone, EventChainDone}
	if len(types) != len(want) {
		t.Fatalf("events = %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("events = %v, want %v", types, want)
		}
	}
}

func TestRunValidatesBeforeExecuting(t *testing.T) {
	ex, g := setup()
	fired := false
	c := chain.Chain{chain.NewStep("graph.stats"), chain.NewStep("no.such.api")}
	_, err := ex.Run(context.Background(), g, c, Options{OnEvent: func(Event) { fired = true }})
	if err == nil {
		t.Fatal("invalid chain ran")
	}
	if fired {
		t.Fatal("events fired for a chain that never should have started")
	}
}

func TestRunConfirmReject(t *testing.T) {
	ex, g := setup()
	c := chain.Chain{chain.NewStep("graph.stats")}
	_, err := ex.Run(context.Background(), g, c, Options{
		Confirm: func(chain.Chain) (chain.Chain, bool) { return nil, false },
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestRunConfirmEdit(t *testing.T) {
	ex, g := setup()
	c := chain.Chain{chain.NewStep("graph.stats")}
	res, err := ex.Run(context.Background(), g, c, Options{
		Confirm: func(orig chain.Chain) (chain.Chain, bool) {
			return chain.Chain{chain.NewStep("structure.density")}, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed[0].API != "structure.density" {
		t.Fatalf("executed = %s", res.Executed)
	}
}

func TestRunConfirmEditInvalid(t *testing.T) {
	ex, g := setup()
	c := chain.Chain{chain.NewStep("graph.stats")}
	_, err := ex.Run(context.Background(), g, c, Options{
		Confirm: func(chain.Chain) (chain.Chain, bool) {
			return chain.Chain{chain.NewStep("nope")}, true
		},
	})
	if err == nil || !strings.Contains(err.Error(), "edited chain invalid") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunStepFailureStopsChain(t *testing.T) {
	ex, g := setup()
	var failed, doneAfterFail bool
	c := chain.Chain{
		chain.NewStep("graph.remove_edge", "from", "0", "to", "4"), // no such edge → error
		chain.NewStep("graph.stats"),
	}
	res, err := ex.Run(context.Background(), g, c, Options{OnEvent: func(e Event) {
		if e.Type == EventStepFailed {
			failed = true
		}
		if failed && e.Type == EventStepDone {
			doneAfterFail = true
		}
	}})
	if err == nil {
		t.Fatal("failing chain succeeded")
	}
	if !failed || doneAfterFail {
		t.Fatalf("failed=%v doneAfterFail=%v", failed, doneAfterFail)
	}
	if len(res.Outputs) != 0 {
		t.Fatalf("outputs = %d, want 0", len(res.Outputs))
	}
}

func TestRunCancelledContext(t *testing.T) {
	ex, g := setup()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sawCancel bool
	_, err := ex.Run(ctx, g, chain.Chain{chain.NewStep("graph.stats")}, Options{
		OnEvent: func(e Event) {
			if e.Type == EventCancelled {
				sawCancel = true
			}
		},
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !sawCancel {
		t.Fatal("no cancelled event")
	}
}

func TestRunStepBudget(t *testing.T) {
	ex, g := setup()
	long := make(chain.Chain, stepBudget+1)
	for i := range long {
		long[i] = chain.NewStep("graph.stats")
	}
	if _, err := ex.Run(context.Background(), g, long, Options{}); err == nil {
		t.Fatal("budget not enforced")
	}
	if _, err := ex.Run(context.Background(), g, long[:stepBudget], Options{}); err != nil {
		t.Fatalf("within-budget chain failed: %v", err)
	}
}

func TestEventTypeString(t *testing.T) {
	for _, e := range []EventType{EventChainStart, EventStepStart, EventStepDone, EventStepFailed, EventChainDone, EventCancelled, EventType(99)} {
		if e.String() == "" {
			t.Fatal("empty event name")
		}
	}
}

func TestRunEmptyChain(t *testing.T) {
	ex, g := setup()
	res, err := ex.Run(context.Background(), g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Text != "" || len(res.Outputs) != 0 {
		t.Fatalf("empty chain result = %+v", res)
	}
}
