package apis

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

// countingRegistry returns a registry with one memoizable and one
// non-memoizable API, each counting its executions.
// Len reports the number of live entries; only the tests count them.
func (c *InvokeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func countingRegistry(t *testing.T) (*Registry, *int, *int) {
	t.Helper()
	r := NewRegistry()
	memoRuns, plainRuns := new(int), new(int)
	if err := r.Register(API{
		Name:        "test.memo",
		Description: "memoizable counting API",
		Category:    "util",
		Memoizable:  true,
		Params:      []Param{{Name: "k", Kind: "int", Default: "1"}},
		Fn: func(in Input) (Output, error) {
			*memoRuns++
			return Output{Text: fmt.Sprintf("memo k=%s v=%d", in.Arg("k", "1"), in.Graph.Version())}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(API{
		Name:        "test.plain",
		Description: "non-memoizable counting API",
		Category:    "util",
		Fn: func(in Input) (Output, error) {
			*plainRuns++
			return Output{Text: "plain"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return r, memoRuns, plainRuns
}

func TestInvokeMemoization(t *testing.T) {
	r, memoRuns, plainRuns := countingRegistry(t)
	env := &Env{Cache: NewInvokeCache(8)}
	g := graph.BarabasiAlbert(20, 2, rand.New(rand.NewSource(1)))
	step := chain.Step{API: "test.memo"}
	in := Input{Graph: g, Env: env}

	out1, err := r.Invoke(step, in)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := r.Invoke(step, in)
	if err != nil {
		t.Fatal(err)
	}
	if *memoRuns != 1 {
		t.Fatalf("memoizable API ran %d times, want 1", *memoRuns)
	}
	if out1.Text != out2.Text {
		t.Fatalf("cached output %q != original %q", out2.Text, out1.Text)
	}
	if hits, misses := env.Cache.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Different args → different key.
	if _, err := r.Invoke(chain.Step{API: "test.memo", Args: map[string]string{"k": "2"}}, in); err != nil {
		t.Fatal(err)
	}
	if *memoRuns != 2 {
		t.Fatalf("distinct args reused a cache entry (%d runs)", *memoRuns)
	}

	// Mutation bumps the version → cache miss and recompute.
	g.SetNodeLabel(0, "renamed")
	if _, err := r.Invoke(step, in); err != nil {
		t.Fatal(err)
	}
	if *memoRuns != 3 {
		t.Fatalf("mutated graph served a stale entry (%d runs)", *memoRuns)
	}

	// Non-memoizable APIs always run.
	plainStep := chain.Step{API: "test.plain"}
	for i := 0; i < 3; i++ {
		if _, err := r.Invoke(plainStep, in); err != nil {
			t.Fatal(err)
		}
	}
	if *plainRuns != 3 {
		t.Fatalf("non-memoizable API ran %d times, want 3", *plainRuns)
	}

	// Nil cache disables memoization without breaking invocation.
	noCache := Input{Graph: g, Env: &Env{}}
	if _, err := r.Invoke(step, noCache); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(step, noCache); err != nil {
		t.Fatal(err)
	}
	if *memoRuns != 5 {
		t.Fatalf("nil cache still memoized (%d runs)", *memoRuns)
	}
}

// TestInvokeCacheMutatingAPIUncached: an API flagged Memoizable that
// nevertheless mutates the graph must not be stored (the version changed
// under it).
func TestInvokeCacheMutatingAPIUncached(t *testing.T) {
	r := NewRegistry()
	runs := 0
	if err := r.Register(API{
		Name:        "test.liar",
		Description: "claims memoizable but mutates",
		Category:    "util",
		Memoizable:  true,
		Fn: func(in Input) (Output, error) {
			runs++
			in.Graph.AddNode("sneaky")
			return Output{Text: "mutated"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	env := &Env{Cache: NewInvokeCache(8)}
	g := graph.New()
	g.AddNode("seed")
	in := Input{Graph: g, Env: env}
	for i := 0; i < 3; i++ {
		if _, err := r.Invoke(chain.Step{API: "test.liar"}, in); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Fatalf("mutating API was cached (%d runs, want 3)", runs)
	}
	if env.Cache.Len() != 0 {
		t.Fatalf("cache holds %d entries for a mutating API", env.Cache.Len())
	}
}

func TestInvokeCacheLRUEviction(t *testing.T) {
	c := NewInvokeCache(2)
	k := func(api string) cacheKey { return cacheKey{api: api} }
	c.put(k("a"), Output{Text: "a"})
	c.put(k("b"), Output{Text: "b"})
	if _, ok := c.get(k("a")); !ok {
		t.Fatal("a evicted prematurely")
	}
	c.put(k("c"), Output{Text: "c"}) // evicts b (least recently used)
	if _, ok := c.get(k("b")); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	for _, want := range []string{"a", "c"} {
		if out, ok := c.get(k(want)); !ok || out.Text != want {
			t.Fatalf("entry %q lost after eviction", want)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if ev := c.Evictions(); ev != 1 {
		t.Fatalf("Evictions() = %d, want 1", ev)
	}
}

func TestCanonicalArgs(t *testing.T) {
	if canonicalArgs(nil) != "" || canonicalArgs(map[string]string{}) != "" {
		t.Fatal("empty args must canonicalize to empty string")
	}
	a := canonicalArgs(map[string]string{"to": "3", "from": "1"})
	b := canonicalArgs(map[string]string{"from": "1", "to": "3"})
	if a != b {
		t.Fatalf("map order leaked into the key: %q vs %q", a, b)
	}
	if a == canonicalArgs(map[string]string{"from": "1", "to": "4"}) {
		t.Fatal("different args collided")
	}
}

// TestDefaultEnvHasCache: the built-in catalog wires a bounded cache in.
func TestDefaultEnvHasCache(t *testing.T) {
	env := &Env{}
	Default(env)
	if env.Cache == nil {
		t.Fatal("Default left Env.Cache nil")
	}
}

// TestSharedGraphInvokeRace hammers concurrent memoizable invocations over
// one shared, unmutated graph (run with -race): the frozen CSR, the stats
// memo, and the invocation cache are all shared state here.
func TestSharedGraphInvokeRace(t *testing.T) {
	env := &Env{}
	r := Default(env)
	g := graph.BarabasiAlbert(120, 3, rand.New(rand.NewSource(4)))
	steps := []chain.Step{
		{API: "graph.stats"},
		{API: "graph.classify"},
		{API: "structure.kcore"},
		{API: "structure.center"},
		{API: "centrality.pagerank"},
		{API: "structure.triangles"},
		{API: "path.shortest", Args: map[string]string{"from": "0", "to": "50"}},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s := steps[(w+i)%len(steps)]
				if _, err := r.Invoke(s, Input{Graph: g, Env: env, Args: s.Args}); err != nil {
					t.Errorf("%s: %v", s.API, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInvokeCacheCrossInstanceHit is the E12c fix in miniature: two
// *different* graph instances parsed from the same JSON must share one
// cache entry — the scenario the old pointer-scoped key could never hit
// (every upload is a fresh pointer).
func TestInvokeCacheCrossInstanceHit(t *testing.T) {
	r, memoRuns, _ := countingRegistry(t)
	env := &Env{Cache: NewInvokeCache(8)}
	data, err := json.Marshal(graph.BarabasiAlbert(20, 2, rand.New(rand.NewSource(9))))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := graph.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g2 {
		t.Fatal("test wants two distinct instances")
	}
	step := chain.Step{API: "test.memo"}
	out1, err := r.Invoke(step, Input{Graph: g1, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := r.Invoke(step, Input{Graph: g2, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if *memoRuns != 1 {
		t.Fatalf("identical content across instances recomputed (%d runs, want 1)", *memoRuns)
	}
	if out1.Text != out2.Text {
		t.Fatalf("cross-instance outputs differ: %q vs %q", out1.Text, out2.Text)
	}
	if hits, misses := env.Cache.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestInvokeCacheNoCanonicalCollisionSharing: graphs an order-erasing
// fingerprint would conflate (1-WL equivalent 6-cycle vs two triangles)
// must not share cache entries — the key's hash sees the wiring, so one
// graph's answers are never served for another.
func TestInvokeCacheNoCanonicalCollisionSharing(t *testing.T) {
	r, memoRuns, _ := countingRegistry(t)
	env := &Env{Cache: NewInvokeCache(8)}
	mk := func(edges [][2]int) *graph.Graph {
		g := graph.New()
		for i := 0; i < 6; i++ {
			g.AddNode("C")
		}
		for _, e := range edges {
			if err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	cycle := mk([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	triangles := mk([][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	step := chain.Step{API: "test.memo"}
	if _, err := r.Invoke(step, Input{Graph: cycle, Env: env}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Invoke(step, Input{Graph: triangles, Env: env}); err != nil {
		t.Fatal(err)
	}
	if *memoRuns != 2 {
		t.Fatalf("WL-equivalent graphs shared a cache entry (%d runs, want 2)", *memoRuns)
	}
}

// TestInvokeCacheContentAddressed: entries for an old content survive the
// mutation of the graph that created them (they are still correct answers
// for that content) and keep serving any fresh upload presenting that
// content — identity is the content, not the pointer.
func TestInvokeCacheContentAddressed(t *testing.T) {
	r, memoRuns, _ := countingRegistry(t)
	env := &Env{Cache: NewInvokeCache(16)}
	data, err := json.Marshal(graph.BarabasiAlbert(10, 2, rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	// Go through ParseJSON like a real upload, so the fresh re-parse below
	// lands on the same deterministic version and the keys line up.
	g, err := graph.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Graph: g, Env: env}
	for _, k := range []string{"1", "2", "3"} {
		if _, err := r.Invoke(chain.Step{API: "test.memo", Args: map[string]string{"k": k}}, in); err != nil {
			t.Fatal(err)
		}
	}
	if env.Cache.Len() != 3 {
		t.Fatalf("Len = %d, want 3", env.Cache.Len())
	}
	g.SetNodeLabel(0, "renamed")
	if _, err := r.Invoke(chain.Step{API: "test.memo"}, in); err != nil {
		t.Fatal(err)
	}
	if env.Cache.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (old-content entries stay valid)", env.Cache.Len())
	}
	// A fresh parse of the original JSON presents the old content; the
	// old entries must serve it even though their creator has moved on.
	fresh, err := graph.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	runsBefore := *memoRuns
	if _, err := r.Invoke(chain.Step{API: "test.memo", Args: map[string]string{"k": "2"}}, Input{Graph: fresh, Env: env}); err != nil {
		t.Fatal(err)
	}
	if *memoRuns != runsBefore {
		t.Fatalf("old-content entry not served to a fresh instance (%d runs, want %d)", *memoRuns, runsBefore)
	}
}

// TestCanonicalArgsSeparatorInjection: values containing the old separator
// bytes must not let two different maps collide (length prefixes).
func TestCanonicalArgsSeparatorInjection(t *testing.T) {
	a := canonicalArgs(map[string]string{"a": "b\x00c=d"})
	b := canonicalArgs(map[string]string{"a": "b", "c": "d"})
	if a == b {
		t.Fatalf("NUL-embedded value collided with a two-key map: %q", a)
	}
	c := canonicalArgs(map[string]string{"a": "1;2:x"})
	d := canonicalArgs(map[string]string{"a": "1", "2:x": ""})
	if c == d {
		t.Fatalf("separator-embedded value collided: %q", c)
	}
}
