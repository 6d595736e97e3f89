package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chatgraph/internal/config"
	"chatgraph/internal/executor"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
)

// TestEngineSharedConcurrentSessions is the keystone concurrency contract:
// N sessions minted from one engine run Ask in parallel with no data race
// (run under -race) and each accumulates only its own history.
func TestEngineSharedConcurrentSessions(t *testing.T) {
	eng := session(t).eng
	const nSessions, asksEach = 4, 3
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		sessions[i] = eng.NewSession()
	}
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			g := graph.PlantedCommunities(2, 8, 0.6, 0.05, rand.New(rand.NewSource(int64(i+1))))
			for j := 0; j < asksEach; j++ {
				if _, err := s.Ask(context.Background(), "Write a brief report for G", g, AskOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		if got := len(s.History()); got != asksEach {
			t.Fatalf("session %d history = %d turns, want %d", i, got, asksEach)
		}
	}
}

func TestEngineSessionIsolation(t *testing.T) {
	eng := session(t).eng
	a, b := eng.NewSession(), eng.NewSession()
	if a.eng != eng || b.eng != eng {
		t.Fatal("sessions do not share the engine")
	}
	g := graph.New()
	g.AddNode("x")
	if _, err := a.Ask(context.Background(), "Summarize the statistics of the graph", g, AskOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(a.History()) != 1 {
		t.Fatalf("a history = %d", len(a.History()))
	}
	if len(b.History()) != 0 {
		t.Fatalf("b history leaked %d turns from a", len(b.History()))
	}
}

// TestHistoryDuringAsk confirms AskOptions callbacks (which run while the
// Ask serialization lock is held) can still read the session: History must
// not wait on an in-flight Ask.
func TestHistoryDuringAsk(t *testing.T) {
	s := session(t).eng.NewSession()
	g := graph.New()
	g.AddNode("x")
	sawHistory := -1
	if _, err := s.Ask(context.Background(), "Summarize the statistics of the graph", g, AskOptions{
		OnEvent: func(executor.Event) {
			if sawHistory < 0 {
				sawHistory = len(s.History())
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if sawHistory != 0 {
		t.Fatalf("History() inside OnEvent = %d turns, want 0 (turn not yet committed)", sawHistory)
	}
}

// TestEngineRetrieveBatch: the engine's batched retrieval must agree with
// the per-query index lookups and honor the configured default k.
func TestEngineRetrieveBatch(t *testing.T) {
	eng := session(t).eng
	queries := []string{
		"detect the communities of this social network",
		"how toxic is this molecule",
	}
	batch := eng.RetrieveBatch(queries, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d lists", len(batch))
	}
	for i, q := range queries {
		want := eng.Retrieval().TopAPIs(q, 4)
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d hit %d: %+v, want %+v", i, j, batch[i][j], want[j])
			}
		}
	}
	// k ≤ 0 falls back to the engine's RetrievalK default.
	if def := eng.RetrieveBatch(queries[:1], 0); len(def[0]) == 0 {
		t.Fatal("default-k batch returned no hits")
	}
}

// TestExternalClientTrainsNoModel: only the SimClient reads the model, so an
// engine handed its Client (chatgraphd -llm URL) has none, unless the caller
// supplied one.
func TestExternalClientTrainsNoModel(t *testing.T) {
	eng, err := NewEngine(Config{Client: failingClient{}})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Model() != nil {
		t.Fatal("engine with an external client trained a model nothing reads")
	}
	m := finetune.NewModel(eng.Registry().Names())
	if eng, err = NewEngine(Config{Client: failingClient{}, Model: m}); err != nil {
		t.Fatal(err)
	}
	if eng.Model() != m {
		t.Fatal("engine dropped the model it was given")
	}
}

// TestNewSessionShim keeps its name from the one-call constructor it used to
// cover; what it pins now is the path that replaced it: an all-defaults
// Config builds a working engine, and Engine.NewSession mints a conversation
// backed by that engine.
func TestNewSessionShim(t *testing.T) {
	eng, err := NewEngine(Config{TrainSeed: 9, TrainExamples: 40})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession()
	if s.eng != eng || eng.Model() == nil {
		t.Fatal("minted session is not backed by the trained engine")
	}
	if eng.FileConfig() != nil {
		t.Fatal("programmatic engine reports a file config")
	}
}

// TestConfigZerosAreTrainedOrRefused: a zero in the finetune block is either
// refused by name or trained as written. It used to be accepted, echoed by
// GET /config, and read as "unset" on the way to finetune.Train, so the
// daemon ran a model identical to the default's.
func TestConfigZerosAreTrainedOrRefused(t *testing.T) {
	base := config.Default()
	base.Finetune.Examples = 80
	def, err := NewEngineFromConfig(base, nil, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	for field, zero := range map[string]func(*config.Finetune){
		"finetune.rollouts": func(f *config.Finetune) { f.Rollouts = 0 },
		"finetune.epochs":   func(f *config.Finetune) { f.Epochs = 0 },
		"finetune.alpha":    func(f *config.Finetune) { f.Alpha = 0 },
	} {
		fc := base
		zero(&fc.Finetune)
		eng, err := NewEngineFromConfig(fc, nil, nil, 11)
		if err != nil {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%s = 0 refused without naming the field: %v", field, err)
			}
			continue
		}
		if reflect.DeepEqual(eng.Model(), def.Model()) {
			t.Errorf("%s = 0 was accepted and ignored: the model equals the default configuration's", field)
		}
	}
}

// sequentializer.levels must reach the prompt the LLM backend receives:
// levels 1 drops the motif super-graph section, levels 2 keeps it. The
// backend is an httptest chat-completions endpoint, so the assertion is on
// the bytes that actually leave an engine built by NewEngineFromConfig.
func TestConfigLevelsReachPrompt(t *testing.T) {
	var prompt string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Messages []struct{ Role, Content string }
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, m := range req.Messages {
			if m.Role == "user" {
				prompt = m.Content
			}
		}
		w.Write([]byte(`{"choices":[{"message":{"role":"assistant","content":"graph.stats"}}]}`)) //nolint:errcheck
	}))
	defer srv.Close()
	g := graph.PlantedCommunities(2, 8, 0.8, 0.1, rand.New(rand.NewSource(3)))
	for _, tc := range []struct {
		levels    int
		wantMotif bool
	}{{1, false}, {2, true}} {
		fc := config.Default()
		fc.Finetune.Examples = 30
		fc.Finetune.Epochs = 1
		fc.Sequentializer.Levels = tc.levels
		fc.LLM.Backend = "http"
		fc.LLM.BaseURL = srv.URL
		eng, err := NewEngineFromConfig(fc, nil, nil, 7)
		if err != nil {
			t.Fatal(err)
		}
		prompt = ""
		if _, err := eng.NewSession().Ask(context.Background(), "Summarize the statistics of the graph", g, AskOptions{}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(prompt, "### GraphPaths") {
			t.Fatalf("levels=%d: backend saw no path section:\n%s", tc.levels, prompt)
		}
		if got := strings.Contains(prompt, "### GraphMotifPaths"); got != tc.wantMotif {
			t.Fatalf("levels=%d: motif section present = %v, want %v", tc.levels, got, tc.wantMotif)
		}
	}
}
