package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chatgraph/internal/apis"
	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/graph"
)

var (
	srvOnce   sync.Once
	srvTest   *httptest.Server
	srvShared *Server
	srvEngine *core.Engine
)

// serverGoroutines name, as runtime.Stack prints them, the goroutines a
// Server starts: the session/job sweeper and the job pool's workers.
var serverGoroutines = []string{"internal/server.(*Server).sweep(", "internal/jobs.(*Manager).worker("}

// TestMain closes the shared test server after the run, then fails the
// package if a goroutine some Server started is still alive: a server a test
// left running keeps its sweeper and workers for the rest of the run, and
// they make every goroutine count after it order-dependent.
func TestMain(m *testing.M) {
	code := m.Run()
	if srvTest != nil {
		srvTest.Close()
		srvShared.Close()
	}
	if leaked := serverLeaks(); leaked != "" && code == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: goroutines a Server started are alive after the tests:\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// serverLeaks returns the stacks of the live serverGoroutines, waiting up
// to a second for goroutines that are on their way out.
func serverLeaks() string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		var leaked []string
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			for _, fn := range serverGoroutines {
				if strings.Contains(g, fn) {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
	}
}

// newServer builds a Server that is closed when t ends. Every test in the
// package builds its servers through it.
func newServer(t testing.TB, eng *core.Engine, opts Options) *Server {
	t.Helper()
	srv := New(eng, opts)
	t.Cleanup(srv.Close)
	return srv
}

func testServer(t testing.TB) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		env := &apis.Env{}
		reg := apis.Default(env)
		core.SeedMoleculeDB(env, 30, rand.New(rand.NewSource(1)))
		eng, err := core.NewEngine(core.Config{Registry: reg, Env: env, TrainSeed: 1, Params: examples(250)})
		if err != nil {
			panic(err)
		}
		srvEngine = eng
		srvShared = New(eng, Options{})
		srvTest = httptest.NewServer(srvShared.Handler())
	})
	return srvTest
}

// examples is the default parameter set with a training dataset of n
// generated examples.
func examples(n int) *config.Config {
	p := config.Default()
	p.Finetune.Examples = n
	return &p
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

// TestConfigIsWhatTheEngineRuns: an engine built in code answers GET /config
// with its own parameters, and serves them — ann.top_k 4 is the depth of a
// k = 0 retrieval. Such an engine used to report config.Default().
func TestConfigIsWhatTheEngineRuns(t *testing.T) {
	p := examples(40)
	p.ANN.TopK = 4
	eng, err := core.NewEngine(core.Config{TrainSeed: 1, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, eng, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	var got config.Config
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got != *p {
		t.Fatalf("/config = %+v, engine runs %+v", got, *p)
	}

	resp, err = http.Post(ts.URL+"/v1/retrieve", "application/json", strings.NewReader(`{"queries":["detect communities in the network"],"k":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out RetrieveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0]) != 4 {
		t.Fatalf("k = 0 retrieval answered %+v, want 4 hits", out.Results)
	}
}
