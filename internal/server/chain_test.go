package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
	"chatgraph/internal/llm"
)

// The daemon sets no Confirm, so a mutating chain that a read question
// proposes is auto-approved. Its edits land on the executor's private clone
// of the interned graph and only that chat's answer reports them: the same
// bytes uploaded again intern to the same, unedited graph, and a read chat
// answers exactly as it did before the mutating one.
func TestMutatingChainLeavesTheInternedGraph(t *testing.T) {
	testServer(t)
	gj, err := json.Marshal(graph.KnowledgeGraph(30, 60, rand.New(rand.NewSource(41))))
	if err != nil {
		t.Fatal(err)
	}
	const read = "What edges are missing from the knowledge graph?"
	sid := createSession(t).SessionID
	before := chatAnswer(t, sid, read, gj)
	if srvEngine.Registry().ChainMutates(mustParseChain(t, before.Chain)) {
		t.Fatalf("read question served the mutating chain %s", before.Chain)
	}
	g, err := graph.ParseJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	interned := srvEngine.Graphs().Intern(g)
	hash := interned.ContentHash()

	mut := chatAnswer(t, sid, "Detect the incorrect edges", gj)
	if !srvEngine.Registry().ChainMutates(mustParseChain(t, mut.Chain)) {
		t.Fatalf("\"Detect the incorrect edges\" served %s: the premise is a mutating chain", mut.Chain)
	}

	hits, _ := srvEngine.Graphs().Counters()
	after := chatAnswer(t, sid, read, gj)
	if h, _ := srvEngine.Graphs().Counters(); h != hits+1 {
		t.Fatalf("re-upload after the mutating chat: intern hits %d → %d, want one hit", hits, h)
	}
	g2, err := graph.ParseJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	if again := srvEngine.Graphs().Intern(g2); again != interned || again.ContentHash() != hash {
		t.Fatalf("re-upload interned to %p (hash %v), want the unedited %p (hash %v)", again, again.ContentHash(), interned, hash)
	}
	if after.Answer != before.Answer {
		t.Fatalf("read answer changed after the mutating chat:\n%q\nvs\n%q", after.Answer, before.Answer)
	}
}

func mustParseChain(t *testing.T, text string) chain.Chain {
	t.Helper()
	c, err := chain.Parse(text)
	if err != nil {
		t.Fatalf("chain %q: %v", text, err)
	}
	return c
}

// No served chain is rewritten: an HTTP LLM whose chain applies edits with
// no detection step before them fails the chat on the executor's typed
// check (graph.apply_edits consumes a []kg.Issue), and the failed chat
// records no turn.
func TestApplyEditsWithoutDetectionFails(t *testing.T) {
	for _, reply := range []string{"graph.apply_edits", "graph.classify -> graph.apply_edits"} {
		t.Run(reply, func(t *testing.T) {
			llmSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
					"choices": []any{map[string]any{"message": map[string]string{"role": "assistant", "content": reply}}},
				})
			}))
			defer llmSrv.Close()
			env := &apis.Env{}
			eng, err := core.NewEngine(core.Config{Registry: apis.Default(env), Env: env, Client: &llm.HTTPClient{BaseURL: llmSrv.URL}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newServer(t, eng, Options{}).Handler())
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			var info SessionInfo
			json.NewDecoder(resp.Body).Decode(&info) //nolint:errcheck
			resp.Body.Close()

			gj, err := json.Marshal(graph.KnowledgeGraph(30, 60, rand.New(rand.NewSource(42))))
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(ChatRequest{Question: "Clean G", Graph: gj})
			if err != nil {
				t.Fatal(err)
			}
			resp, err = http.Post(ts.URL+"/v1/sessions/"+info.SessionID+"/chat", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(eb.Error, "[]kg.Issue") {
				t.Fatalf("chat = %d %q, want 422 naming []kg.Issue", resp.StatusCode, eb.Error)
			}

			resp, err = http.Get(ts.URL + "/v1/sessions/" + info.SessionID + "/history")
			if err != nil {
				t.Fatal(err)
			}
			var hist struct {
				Turns []HistoryTurn `json:"turns"`
			}
			err = json.NewDecoder(resp.Body).Decode(&hist)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(hist.Turns) != 0 {
				t.Fatalf("history = %d %+v (%v), want 200 and no turns", resp.StatusCode, hist.Turns, err)
			}
		})
	}
}
