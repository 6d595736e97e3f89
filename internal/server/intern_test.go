package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
)

func deleteSession(t *testing.T, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, testServer(t).URL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
}

func chatAnswer(t *testing.T, sessionID, question string, gj []byte) ChatResponse {
	t.Helper()
	resp := postSessionChat(t, sessionID, "", ChatRequest{Question: question, Graph: gj})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chat status = %d", resp.StatusCode)
	}
	var cr ChatResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestReuploadAfterSessionDeleteNoStaleCrossTalk is the regression test for
// the pointer-keyed cache hazard: with pointer keys, a session's graph
// could be freed and a later upload could (in principle) reuse its address,
// aliasing stale entries. Content keys make the scenario well-defined:
// re-uploading the same content after the owning session is deleted must
// HIT (same answer, served from cache), and uploading different content
// must never see the dead session's entries.
func TestReuploadAfterSessionDeleteNoStaleCrossTalk(t *testing.T) {
	gj1 := socialGraphJSON(t, 21)
	gj2 := socialGraphJSON(t, 22)
	const q = "Summarize the statistics of the graph"

	s1 := createSession(t)
	answer1 := chatAnswer(t, s1.SessionID, q, gj1).Answer
	deleteSession(t, s1.SessionID)

	// Different content in a fresh session: no cross-talk with the deleted
	// session's cached results.
	s2 := createSession(t)
	if a := chatAnswer(t, s2.SessionID, q, gj2).Answer; a == answer1 {
		t.Fatal("different graph content produced the deleted session's answer")
	}

	// Same content re-uploaded: identical answer, and the invoke cache
	// served it (hits advanced, misses did not).
	hitsBefore, missesBefore := srvEngine.Env().Cache.Counters()
	s3 := createSession(t)
	if a := chatAnswer(t, s3.SessionID, q, gj1).Answer; a != answer1 {
		t.Fatalf("re-upload after delete changed the answer:\n%q\nvs\n%q", a, answer1)
	}
	hits, misses := srvEngine.Env().Cache.Counters()
	if hits <= hitsBefore {
		t.Fatalf("re-upload did not hit the invoke cache (hits %d → %d)", hitsBefore, hits)
	}
	if misses != missesBefore {
		t.Fatalf("re-upload of identical content missed (misses %d → %d)", missesBefore, misses)
	}
}

// TestUploadsInternToOneInstance: two sessions uploading the same payload
// share one graph instance in the engine store.
func TestUploadsInternToOneInstance(t *testing.T) {
	gj := socialGraphJSON(t, 31)
	const q = "Is the network connected?"
	a := createSession(t)
	b := createSession(t)
	chatAnswer(t, a.SessionID, q, gj)
	hitsBefore, _ := srvEngine.Graphs().Counters()
	chatAnswer(t, b.SessionID, q, gj)
	if hits, _ := srvEngine.Graphs().Counters(); hits <= hitsBefore {
		t.Fatalf("second upload did not intern-hit (hits %d → %d)", hitsBefore, hits)
	}
	g, err := graph.ParseJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	interned := srvEngine.Graphs().Intern(g)
	if interned == g {
		t.Fatal("uploaded content not in the store")
	}
	if !interned.Shared() {
		t.Fatal("interned graph not marked shared")
	}
}

// stripTimings removes every elapsed_ms field so wall-clock noise does not
// defeat the byte-identity comparison.
func stripTimings(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "elapsed_ms")
		for k, val := range x {
			x[k] = stripTimings(val)
		}
	case []any:
		for i := range x {
			x[i] = stripTimings(x[i])
		}
	}
	return v
}

func canonicalResponse(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode response: %v\n%s", err, body)
	}
	out, err := json.Marshal(stripTimings(v))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func parityEngine(t *testing.T, seed int64) *core.Engine {
	t.Helper()
	env := &apis.Env{}
	reg := apis.Default(env)
	core.SeedMoleculeDB(env, 20, rand.New(rand.NewSource(seed)))
	eng, err := core.NewEngine(core.Config{Registry: reg, Env: env, TrainSeed: seed, TrainExamples: 150})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestInternParity: the same request sequence through the interning server
// and straight into an identically seeded engine — one conversation,
// every graph freshly parsed and private — must produce byte-identical chat
// responses (modulo wall-clock timings). Interning is a cache layer; it
// must never be observable in answers, chains, or events.
func TestInternParity(t *testing.T) {
	interned := httptest.NewServer(New(parityEngine(t, 77), Options{}).Handler())
	defer interned.Close()
	// One conversation per side carries the whole sequence, so history
	// growth is part of what must not differ.
	chatURL := interned.URL + "/v1/sessions/" + mustCreateSession(t, interned).SessionID + "/chat"
	ref := parityEngine(t, 77).NewSession()

	social, err := json.Marshal(graph.PlantedCommunities(2, 8, 0.7, 0.1, rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	kg, err := json.Marshal(graph.KnowledgeGraph(10, 18, rand.New(rand.NewSource(6))))
	if err != nil {
		t.Fatal(err)
	}
	requests := []ChatRequest{
		{Question: "Summarize the statistics of the graph", Graph: social},
		{Question: "Summarize the statistics of the graph", Graph: social}, // re-upload: intern + cache hit on the server
		{Question: "Is the network connected?", Graph: social},
		{Question: "Clean G", Graph: kg}, // cleaning chain may mutate → clone path
		{Question: "Clean G", Graph: kg}, // re-upload after a mutating chain
	}
	for i, req := range requests {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(chatURL, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		if _, err := raw.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw.Bytes())
		}

		g, err := graph.ParseJSON(req.Graph)
		if err != nil {
			t.Fatal(err)
		}
		turn, err := ref.Ask(context.Background(), req.Question, g, core.AskOptions{})
		if err != nil {
			t.Fatalf("request %d: engine: %v", i, err)
		}
		want, err := json.Marshal(chatResponse(turn))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonicalResponse(t, raw.Bytes()), canonicalResponse(t, want); !bytes.Equal(got, want) {
			t.Fatalf("request %d: interning server and engine responses differ:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestConcurrentInternedChats hammers the interning path end to end under
// -race: many sessions re-uploading the same payload (plus a few distinct
// ones) chat concurrently; every response for the same (question, graph)
// pair must agree.
func TestConcurrentInternedChats(t *testing.T) {
	const workers = 8
	payloads := [][]byte{socialGraphJSON(t, 41), socialGraphJSON(t, 42)}
	sessions := make([]SessionInfo, workers)
	for i := range sessions {
		sessions[i] = createSession(t)
	}
	answers := make(map[string]map[string]bool) // payload idx+question → answers seen
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				pi := (w + i) % len(payloads)
				q := "Summarize the statistics of the graph"
				cr := chatAnswer(t, sessions[w].SessionID, q, payloads[pi])
				if cr.Answer == "" {
					t.Errorf("empty answer for payload %d", pi)
					return
				}
				key := fmt.Sprintf("%d/%s", pi, q)
				mu.Lock()
				if answers[key] == nil {
					answers[key] = make(map[string]bool)
				}
				answers[key][cr.Answer] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for key, set := range answers {
		if len(set) != 1 {
			t.Fatalf("%s produced %d distinct answers", key, len(set))
		}
	}
}
