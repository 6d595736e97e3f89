package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
)

var (
	srvOnce   sync.Once
	srvTest   *httptest.Server
	srvEngine *core.Engine
)

func testServer(t testing.TB) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		env := &apis.Env{}
		reg := apis.Default(env)
		core.SeedMoleculeDB(env, 30, rand.New(rand.NewSource(1)))
		eng, err := core.NewEngine(core.Config{Registry: reg, Env: env, TrainSeed: 1, TrainExamples: 250})
		if err != nil {
			panic(err)
		}
		srvEngine = eng
		srvTest = httptest.NewServer(New(eng, Options{}).Handler())
	})
	return srvTest
}

// postChat chats once on a fresh session of the shared server.
func postChat(t *testing.T, body any) (*http.Response, ChatResponse) {
	t.Helper()
	resp := postSessionChat(t, createSession(t).SessionID, "", body)
	defer resp.Body.Close()
	var cr ChatResponse
	json.NewDecoder(resp.Body).Decode(&cr) //nolint:errcheck
	return resp, cr
}

func TestChatEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.PlantedCommunities(2, 10, 0.5, 0.05, rng)
	gj, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, cr := postChat(t, ChatRequest{Question: "Write a brief report for G", Graph: gj})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cr.Kind != "social" || cr.Answer == "" || cr.Chain == "" {
		t.Fatalf("response = %+v", cr)
	}
	if len(cr.Events) < 4 {
		t.Fatalf("events = %d", len(cr.Events))
	}
	if cr.Events[0].Type != "chain_start" {
		t.Fatalf("first event = %s", cr.Events[0].Type)
	}
}

func TestChatValidation(t *testing.T) {
	resp, _ := postChat(t, ChatRequest{Question: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty question status = %d", resp.StatusCode)
	}
	resp, _ = postChat(t, map[string]any{"question": "hi", "graph": map[string]any{"nodes": []any{map[string]any{"id": 1}}, "edges": []any{map[string]any{"from": 1, "to": 9}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad graph status = %d", resp.StatusCode)
	}
	r, err := http.Get(testServer(t).URL + "/v1/sessions/" + createSession(t).SessionID + "/chat")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on the chat route status = %d", r.StatusCode)
	}
}

func TestChatMalformedJSON(t *testing.T) {
	url := testServer(t).URL + "/v1/sessions/" + createSession(t).SessionID + "/chat"
	resp, err := http.Post(url, "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAPIsEndpoint(t *testing.T) {
	resp, err := http.Get(testServer(t).URL + "/apis")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []APIInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) < 25 {
		t.Fatalf("apis = %d", len(infos))
	}
	for _, i := range infos {
		if i.Name == "" || i.Description == "" {
			t.Fatalf("bad entry %+v", i)
		}
	}
}

func TestSuggestEndpoint(t *testing.T) {
	for _, kind := range []string{"social", "molecule", "knowledge", "unknown", ""} {
		resp, err := http.Get(testServer(t).URL + "/suggest?kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string][]string
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
		resp.Body.Close()
		if len(out["questions"]) < 2 {
			t.Fatalf("kind %q suggestions = %v", kind, out)
		}
	}
}

func TestHealthz(t *testing.T) {
	resp, err := http.Get(testServer(t).URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestConfigEndpoint(t *testing.T) {
	resp, err := http.Get(testServer(t).URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got config.Config
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ANN.TopK == 0 || got.LLM.Backend == "" {
		t.Fatalf("config = %+v", got)
	}
}
