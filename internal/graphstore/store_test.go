package graphstore

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

func graphJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	data, err := json.Marshal(graph.PlantedCommunities(2, 6, 0.7, 0.1, rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func parse(t *testing.T, data []byte) *graph.Graph {
	t.Helper()
	g, err := graph.ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInternDedupes(t *testing.T) {
	s := New(8)
	data := graphJSON(t, 1)
	g1 := s.Intern(parse(t, data))
	g2 := s.Intern(parse(t, data))
	if g1 != g2 {
		t.Fatal("identical content interned to distinct instances")
	}
	if !g1.Shared() {
		t.Fatal("interned graph not marked shared")
	}
	if hits, misses := s.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", hits, misses)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	other := s.Intern(parse(t, graphJSON(t, 2)))
	if other == g1 {
		t.Fatal("distinct content collapsed onto one instance")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestInternLRUEviction(t *testing.T) {
	s := New(2)
	a := s.Intern(parse(t, graphJSON(t, 1)))
	s.Intern(parse(t, graphJSON(t, 2)))
	// Touch a so content 2 is the LRU victim when 3 arrives.
	if got := s.Intern(parse(t, graphJSON(t, 1))); got != a {
		t.Fatal("re-intern missed")
	}
	s.Intern(parse(t, graphJSON(t, 3)))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions())
	}
	if got := s.Intern(parse(t, graphJSON(t, 1))); got != a {
		t.Fatal("survivor was evicted instead of the LRU entry")
	}
	// Content 2 was evicted: re-interning it is a miss with a new instance.
	_, missesBefore := s.Counters()
	s.Intern(parse(t, graphJSON(t, 2)))
	if _, misses := s.Counters(); misses != missesBefore+1 {
		t.Fatal("evicted content should re-intern as a miss")
	}
}

// TestInternDiscriminatesCanonicalCollisions: graphs an order-erasing
// fingerprint would conflate (1-WL equivalent: a 6-cycle vs two disjoint
// triangles, identical labels) or that are permuted insertions of the same
// logical graph must intern to separate instances — they are observably
// different through node-ID APIs, so aliasing either pair would serve one
// session another session's graph.
func TestInternDiscriminatesCanonicalCollisions(t *testing.T) {
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
	s := New(8)
	a := s.Intern(cycle)
	b := s.Intern(triangles)
	if a == b {
		t.Fatal("WL-equivalent graphs aliased onto one instance")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Each representation keeps hitting its own instance.
	if s.Intern(mk([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})) != a {
		t.Fatal("cycle re-upload missed its instance")
	}
	if s.Intern(mk([][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})) != b {
		t.Fatal("triangles re-upload missed its instance")
	}

	// Permuted node insertion: the same nodes under different dense IDs —
	// separate instances, each stable for its own ordering.
	xy := graph.New()
	xy.AddNode("x")
	xy.AddNode("y")
	yx := graph.New()
	yx.AddNode("y")
	yx.AddNode("x")
	ix, iy := s.Intern(xy), s.Intern(yx)
	if ix == iy {
		t.Fatal("permuted insertions aliased onto one instance")
	}
	if ix.Node(0).Label != "x" || iy.Node(0).Label != "y" {
		t.Fatal("interned instances lost their own node-ID assignment")
	}
}

// TestInternByteBudget: the store is bounded by estimated bytes, not just
// entry count — varied large uploads must evict instead of pinning
// unbounded memory.
func TestInternByteBudget(t *testing.T) {
	// A budget of about three of the graphs below, whatever one is
	// estimated at.
	budget := 3 * approxBytes(graph.PlantedCommunities(2, 6, 0.7, 0.1, rand.New(rand.NewSource(99))))
	s := New(1024)
	s.maxBytes = budget
	var kept []*graph.Graph
	for i := int64(0); i < 8; i++ {
		g := graph.PlantedCommunities(2, 6, 0.7, 0.1, rand.New(rand.NewSource(100+i)))
		kept = append(kept, s.Intern(g))
	}
	if s.Bytes() > budget {
		t.Fatalf("Bytes = %d exceeds the %d budget", s.Bytes(), budget)
	}
	if s.Evictions() == 0 {
		t.Fatal("byte budget never evicted")
	}
	if s.Len() >= 8 {
		t.Fatalf("Len = %d, want fewer than the 8 interned graphs", s.Len())
	}
	// The newest content must have survived: re-interning it is a hit on
	// the same instance.
	hitsBefore, _ := s.Counters()
	again := graph.PlantedCommunities(2, 6, 0.7, 0.1, rand.New(rand.NewSource(107)))
	if s.Intern(again) != kept[7] {
		t.Fatal("most recent graph evicted")
	}
	if hits, _ := s.Counters(); hits != hitsBefore+1 {
		t.Fatalf("re-interning the survivor: hits %d → %d, want +1", hitsBefore, hits)
	}
	// A single graph larger than the whole budget is still interned (the
	// store never evicts the entry it just inserted).
	huge := New(4)
	huge.maxBytes = 64
	g := huge.Intern(parse(t, graphJSON(t, 1)))
	if huge.Len() != 1 {
		t.Fatalf("oversized graph not retained: Len = %d", huge.Len())
	}
	if got := huge.Intern(parse(t, graphJSON(t, 1))); got != g {
		t.Fatal("oversized graph not shared with identical upload")
	}
}

func TestNilStoreAndNilGraphPassThrough(t *testing.T) {
	var s *Store
	g := parse(t, graphJSON(t, 1))
	if s.Intern(g) != g {
		t.Fatal("nil store must pass the graph through")
	}
	if New(1).Intern(nil) != nil {
		t.Fatal("nil graph must pass through")
	}
}

// TestInternRaceWithChains hammers the full shared-read contract under
// -race: many goroutines intern the same and different payloads while
// running memoizable analyses (shared CSR, stats memo, invocation cache)
// against whatever instance they got back.
func TestInternRaceWithChains(t *testing.T) {
	s := New(16)
	env := &apis.Env{Cache: apis.NewInvokeCache(64)}
	reg := apis.Default(env)
	payloads := [][]byte{graphJSON(t, 1), graphJSON(t, 2), graphJSON(t, 3)}
	steps := []chain.Step{
		{API: "graph.stats"},
		{API: "graph.classify"},
		{API: "structure.kcore"},
		{API: "centrality.pagerank"},
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		// canonical records the one shared instance per payload.
		canonical = make(map[int]*graph.Graph)
	)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				pi := (w + i) % len(payloads)
				g := s.Intern(parse(t, payloads[pi]))
				mu.Lock()
				if prev, ok := canonical[pi]; ok && prev != g {
					mu.Unlock()
					t.Errorf("payload %d interned to two instances", pi)
					return
				}
				canonical[pi] = g
				mu.Unlock()
				st := steps[(w+i)%len(steps)]
				if _, err := reg.Invoke(st, apis.Input{Graph: g, Env: env, Args: st.Args}); err != nil {
					t.Errorf("%s: %v", st.API, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != len(payloads) {
		t.Fatalf("store holds %d graphs, want %d", s.Len(), len(payloads))
	}
}

// TestInternWireSpellings is the dedupe contract, stated once: which
// differences between two uploads the identity layer erases (spelling — it
// never reaches the representation) and which it keeps (anything an API can
// observe, node and edge order included). Rows marked encoding/json use a
// spelling the schema scanner declines (graph/scan.go: null, case-folded
// keys), so both parse roads are shown to end in the one hash.
func TestInternWireSpellings(t *testing.T) {
	const (
		ann   = `{"id":0,"label":"ann","attrs":{"type":"person","age":"41"}}`
		bob   = `{"id":1,"label":"bob"}`
		knows = `{"from":0,"to":1,"label":"knows","weight":2.5}`
		plain = `{"from":1,"to":2}`
		base  = `{"name":"G","directed":false,"nodes":[` + ann + `,` + bob + `,{"id":2,"label":"cat"}],"edges":[` + knows + `,` + plain + `]}`
	)
	// sub respells one piece of base.
	sub := func(old, new string) string {
		if strings.Count(base, old) != 1 {
			t.Fatalf("%q does not occur exactly once in the base upload", old)
		}
		return strings.Replace(base, old, new, 1)
	}
	rows := []struct {
		name string
		same bool
		json string
	}{
		{"byte-identical", true, base},
		{"extra whitespace", true, ` { "name" : "G" , "directed" : false ,
			"nodes" : [ { "id" : 0 , "label" : "ann" , "attrs" : { "type" : "person" , "age" : "41" } } , ` + bob + `, {"id":2,"label":"cat"} ] ,
			"edges" : [ ` + knows + ` , { "from" : 1 , "to" : 2 } ] } `},
		{"object members reordered", true, `{"edges":[{"weight":2.5,"label":"knows","to":1,"from":0},{"to":2,"from":1}],` +
			`"nodes":[{"attrs":{"age":"41","type":"person"},"label":"ann","id":0},{"label":"bob","id":1},{"label":"cat","id":2}],` +
			`"directed":false,"name":"G"}`},
		{"default weight spelled 1", true, sub(plain, `{"from":1,"to":2,"weight":1}`)},
		{"default weight spelled 1.0", true, sub(plain, `{"from":1,"to":2,"weight":1.0}`)},
		{"sparse ids in the same order", true, `{"name":"G","directed":false,` +
			`"nodes":[{"id":10,"label":"ann","attrs":{"type":"person","age":"41"}},{"id":20,"label":"bob"},{"id":30,"label":"cat"}],` +
			`"edges":[{"from":10,"to":20,"label":"knows","weight":2.5},{"from":20,"to":30}]}`},
		{"empty attrs object", true, sub(bob, `{"id":1,"label":"bob","attrs":{}}`)},
		{"null attrs (encoding/json)", true, sub(bob, `{"id":1,"label":"bob","attrs":null}`)},
		{"case-folded key (encoding/json)", true, sub(`"nodes"`, `"NODES"`)},

		{"nodes listed in another order", false, sub(ann+`,`+bob, bob+`,`+ann)},
		{"edges listed in another order", false, sub(knows+`,`+plain, plain+`,`+knows)},
		{"undirected endpoints swapped", false, sub(plain, `{"from":2,"to":1}`)},
		{"one label bit", false, sub(`"cat"`, `"cau"`)},
		{"one attribute bit (encoding/json)", false, sub(ann, `{"id":0,"label":"ann","Attrs":{"type":"person","age":"40"}}`)},
		{"one weight ulp", false, sub(`2.5`, `2.5000000000000004`)},
		{"directed flipped", false, sub(`"directed":false`, `"directed":true`)},
		{"name changed", false, sub(`"name":"G"`, `"name":"H"`)},
	}
	s := New(64)
	first := s.Intern(parse(t, []byte(base)))
	apart := 1
	for _, row := range rows {
		got := s.Intern(parse(t, []byte(row.json)))
		if row.same && got != first {
			t.Errorf("%s: interned apart from the base upload; a respelling must dedupe", row.name)
		}
		if !row.same {
			apart++
			if got == first {
				t.Errorf("%s: interned onto the base upload; an observable difference must not dedupe", row.name)
			}
		}
	}
	// The rows that stay apart from the base stay apart from each other too.
	if s.Len() != apart {
		t.Fatalf("store holds %d graphs, want %d", s.Len(), apart)
	}
}
