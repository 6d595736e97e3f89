package graphstore

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"chatgraph/internal/graph"
)

// TestBytesTracksRetention: Store.Bytes, the estimate the byte budget evicts
// by, stays within 25 % of what interned graphs really keep alive. It
// interns 64 KnowledgeGraph(300, 900) and 64 planted 4×50 uploads, each
// carrying the most a chat leaves on it (the frozen CSR, its Stats, the
// kind), and
// compares the estimate with the heap the store holds after a GC. It also
// holds every parse to exact-size slabs: an interned graph must not retain
// the decoder's presized scratch.
func TestBytesTracksRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what the heap retains")
	}
	var bodies [][]byte
	for seed := int64(1); seed <= 64; seed++ {
		for _, g := range []*graph.Graph{
			graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(seed))),
			graph.PlantedCommunities(4, 50, .3, .02, rand.New(rand.NewSource(seed))),
		} {
			data, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, data)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(0)
	for _, data := range bodies {
		g := parse(t, data)
		if cap(g.Nodes()) != g.NumNodes() || cap(g.Edges()) != g.NumEdges() {
			t.Fatalf("%s parsed into slabs of cap %d / %d for %d nodes / %d edges",
				g.Name, cap(g.Nodes()), cap(g.Edges()), g.NumNodes(), g.NumEdges())
		}
		g = s.Intern(g)
		g.Freeze().Stats()
		graph.Classify(g)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(bodies)
	est := s.Bytes()
	t.Logf("%d graphs: Bytes() %d B, heap retained %d B (× %.2f)", s.Len(), est, retained, float64(est)/float64(retained))
	if s.Len() != len(bodies) {
		t.Fatalf("%d graphs interned, want %d", s.Len(), len(bodies))
	}
	if d := est - retained; 4*d > retained || 4*d < -retained {
		t.Fatalf("Bytes() %d B for %d B retained: off by more than 25 %%", est, retained)
	}
}
