package executor

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

// sharedSetup returns an executor plus a graph marked Shared, as the
// graphstore interning layer would hand it out.
func sharedSetup() (*Executor, *graph.Graph) {
	ex, g := setup()
	g.MarkShared()
	return ex, g
}

// TestRunClonesSharedGraphForMutatingChain: a chain containing a Mutates
// API must run against a private clone of an interned graph — the answer
// reflects the edit, the shared instance never changes.
func TestRunClonesSharedGraphForMutatingChain(t *testing.T) {
	ex, g := sharedSetup()
	edges, version := g.NumEdges(), g.Version()
	c := chain.Chain{chain.NewStep("graph.add_edge", "from", "0", "to", "4")}
	res, err := ex.Run(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Final.Text, "Added edge") {
		t.Fatalf("edit did not run: %q", res.Final.Text)
	}
	if g.NumEdges() != edges || g.Version() != version {
		t.Fatalf("shared graph mutated: edges %d→%d, version %d→%d",
			edges, g.NumEdges(), version, g.Version())
	}
	if slices.Contains(g.Freeze().OutNeighbors(0), 4) {
		t.Fatal("edit leaked into the shared instance")
	}
}

// TestRunKeepsSharedGraphForReadOnlyChain: read-only chains must keep the
// shared instance — cloning would defeat the CSR/stats/invoke-cache sharing
// interning exists for. The mutation guard (race builds panic on shared
// mutation) plus a stable version is the observable contract.
func TestRunKeepsSharedGraphForReadOnlyChain(t *testing.T) {
	ex, g := sharedSetup()
	version := g.Version()
	c := chain.Chain{chain.NewStep("graph.stats"), chain.NewStep("report.compose")}
	res, err := ex.Run(context.Background(), g, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Text == "" {
		t.Fatal("empty answer")
	}
	if g.Version() != version {
		t.Fatal("read-only chain bumped the shared graph's version")
	}
}

// TestRunMutatesPrivateGraphInPlace: non-shared graphs keep the historical
// behavior — edits land on the caller's instance.
func TestRunMutatesPrivateGraphInPlace(t *testing.T) {
	ex, g := setup()
	c := chain.Chain{chain.NewStep("graph.add_edge", "from", "0", "to", "4")}
	if _, err := ex.Run(context.Background(), g, c, Options{}); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(g.Freeze().OutNeighbors(0), 4) {
		t.Fatal("edit on a private graph did not stick")
	}
}

// TestRunConfirmEditToMutatingChain: the clone decision must look at the
// chain that actually executes, including confirmation edits that turn a
// read-only chain into a mutating one.
func TestRunConfirmEditToMutatingChain(t *testing.T) {
	ex, g := sharedSetup()
	edges := g.NumEdges()
	c := chain.Chain{chain.NewStep("graph.stats")}
	_, err := ex.Run(context.Background(), g, c, Options{
		Confirm: func(chain.Chain) (chain.Chain, bool) {
			return chain.Chain{chain.NewStep("graph.add_edge", "from", "0", "to", "4")}, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != edges {
		t.Fatal("confirmation-edited mutating chain ran on the shared instance")
	}
}

// TestSharedGraphConcurrentMixedChains hammers one interned graph with
// read-only and mutating chains from many goroutines (-race): readers share
// the instance and its caches, writers clone, nobody corrupts anybody.
func TestSharedGraphConcurrentMixedChains(t *testing.T) {
	ex, g := sharedSetup()
	edges, version := g.NumEdges(), g.Version()
	chains := []chain.Chain{
		{chain.NewStep("graph.stats")},
		{chain.NewStep("structure.kcore")},
		{chain.NewStep("graph.add_edge", "from", "0", "to", "4")},
		{chain.NewStep("graph.relabel_node", "node", "2", "label", "edited")},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := chains[(w+i)%len(chains)]
				if _, err := ex.Run(context.Background(), g, c, Options{}); err != nil {
					t.Errorf("chain %s: %v", c, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if g.NumEdges() != edges || g.Version() != version {
		t.Fatalf("shared graph changed under concurrent chains: edges %d→%d, version %d→%d",
			edges, g.NumEdges(), version, g.Version())
	}
	if lbl := g.Node(2).Label; lbl != "v" {
		t.Fatalf("shared node label changed to %q", lbl)
	}
}

// TestChainMutates pins the registry-side classification, including the
// conservative answer for unknown APIs.
func TestChainMutates(t *testing.T) {
	env := &apis.Env{}
	reg := apis.Default(env)
	cases := []struct {
		c    chain.Chain
		want bool
	}{
		{chain.Chain{chain.NewStep("graph.stats")}, false},
		{chain.Chain{chain.NewStep("kg.detect_all")}, false},
		{chain.Chain{chain.NewStep("kg.detect_all"), chain.NewStep("graph.apply_edits")}, true},
		{chain.Chain{chain.NewStep("graph.add_edge", "from", "0", "to", "1")}, true},
		{chain.Chain{chain.NewStep("graph.remove_edge", "from", "0", "to", "1")}, true},
		{chain.Chain{chain.NewStep("graph.relabel_node", "node", "0", "label", "x")}, true},
		{chain.Chain{chain.NewStep("no.such.api")}, true},
		{nil, false},
	}
	for _, tc := range cases {
		if got := reg.ChainMutates(tc.c); got != tc.want {
			t.Errorf("ChainMutates(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
}
