package llm

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
)

func trainedModel() *finetune.Model {
	rng := rand.New(rand.NewSource(1))
	ds := finetune.GenerateDataset(300, rng)
	return finetune.Train(apis.Default(nil).Names(), ds, finetune.TrainConfig{Epochs: 1, Search: finetune.SearchConfig{Rollouts: 2}, Seed: 2})
}

func TestBuildPromptSections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Molecule(12, rng)
	msgs := BuildPrompt("Is this molecule toxic", g, graph.KindMolecule,
		[]string{"molecule.toxicity"}, map[string]string{"molecule.toxicity": "Predict toxicity."}, PromptConfig{})
	if len(msgs) != 2 || msgs[0].Role != "system" || msgs[1].Role != "user" {
		t.Fatalf("messages = %+v", msgs)
	}
	u := msgs[1].Content
	for _, want := range []string{sectionQuestion, sectionKind, sectionAPIs, sectionPaths, "molecule.toxicity", "Is this molecule toxic", "molecule"} {
		if !strings.Contains(u, want) {
			t.Fatalf("prompt missing %q:\n%s", want, u)
		}
	}
}

func TestBuildPromptNoGraph(t *testing.T) {
	msgs := BuildPrompt("hello", nil, graph.KindUnknown, nil, nil, PromptConfig{})
	if strings.Contains(msgs[1].Content, sectionPaths) {
		t.Fatal("paths section emitted without a graph")
	}
}

// sectionLines returns the non-empty lines of one "### " prompt section.
func sectionLines(prompt, section string) []string {
	_, rest, ok := strings.Cut(prompt, section+"\n")
	if !ok {
		return nil
	}
	body, _, _ := strings.Cut(rest, "\n\n")
	return strings.Split(body, "\n")
}

// max_path_lines: 1 is a valid config; its motif cap (1/2 = 0) used to read
// as "no cap" and print every super-path into the prompt.
func TestBuildPromptMotifCapNeverUncapped(t *testing.T) {
	g := graph.KnowledgeGraph(60, 180, rand.New(rand.NewSource(5)))
	for _, tc := range []struct{ maxLines, wantPaths, wantMotif int }{
		{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {0, 40, 20},
	} {
		u := BuildPrompt("Clean G", g, graph.KindKnowledge, nil, nil, PromptConfig{MaxPathLines: tc.maxLines})[1].Content
		for _, sec := range []struct {
			name string
			want int
		}{{sectionPaths, tc.wantPaths}, {sectionSuper, tc.wantMotif}} {
			lines := sectionLines(u, sec.name)
			// want path lines plus the elision marker.
			if len(lines) != sec.want+1 || !strings.HasSuffix(lines[len(lines)-1], "more paths)") {
				t.Fatalf("max_path_lines=%d: %s has %d lines, want %d + elision:\n%s",
					tc.maxLines, sec.name, len(lines), sec.want, strings.Join(lines, "\n"))
			}
		}
	}
}

func TestBuildPromptLevels(t *testing.T) {
	g := graph.PlantedCommunities(2, 8, 0.8, 0.1, rand.New(rand.NewSource(6)))
	for _, tc := range []struct {
		levels    int
		wantMotif bool
	}{{0, true}, {1, false}, {2, true}} {
		u := BuildPrompt("q", g, graph.KindSocial, nil, nil, PromptConfig{Levels: tc.levels})[1].Content
		if got := strings.Contains(u, sectionSuper); got != tc.wantMotif {
			t.Fatalf("Levels=%d: motif section present = %v, want %v", tc.levels, got, tc.wantMotif)
		}
		if !strings.Contains(u, sectionPaths) {
			t.Fatalf("Levels=%d: paths section missing", tc.levels)
		}
	}
}

func TestParsePromptRoundTrip(t *testing.T) {
	msgs := BuildPrompt("Clean G", nil, graph.KindKnowledge,
		[]string{"kg.detect_all", "graph.apply_edits"},
		map[string]string{"kg.detect_all": "Detect issues."}, PromptConfig{})
	q, kind, cands, err := parsePrompt(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if q != "Clean G" || kind != graph.KindKnowledge {
		t.Fatalf("parsed %q, %v", q, kind)
	}
	if len(cands) != 2 || cands[0] != "kg.detect_all" {
		t.Fatalf("candidates = %v", cands)
	}
}

func TestParsePromptErrors(t *testing.T) {
	if _, _, _, err := parsePrompt(nil); err == nil {
		t.Fatal("empty messages accepted")
	}
	if _, _, _, err := parsePrompt([]Message{{Role: "user", Content: "no sections"}}); err == nil {
		t.Fatal("unstructured prompt accepted")
	}
}

func TestSimClientGeneratesValidChain(t *testing.T) {
	m := trainedModel()
	c := NewSimClient(m, 0)
	msgs := BuildPrompt("Clean G", nil, graph.KindKnowledge,
		[]string{"graph.classify", "kg.detect_all", "graph.apply_edits", "kg.detect_incorrect"},
		nil, PromptConfig{})
	out, err := c.Complete(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := chain.Parse(out)
	if err != nil {
		t.Fatalf("unparseable chain %q: %v", out, err)
	}
	if len(parsed) == 0 {
		t.Fatal("empty chain")
	}
	allowed := map[string]bool{"graph.classify": true, "kg.detect_all": true, "graph.apply_edits": true, "kg.detect_incorrect": true}
	for _, s := range parsed {
		if !allowed[s.API] {
			t.Fatalf("chain used non-candidate API %s", s.API)
		}
	}
	if !strings.Contains(out, "kg.detect") {
		t.Fatalf("cleaning chain lacks detection: %s", out)
	}
}

func TestSimClientFallbackToTopCandidate(t *testing.T) {
	// Model knows nothing relevant; candidates force the fallback.
	m := finetune.NewModel([]string{"a.b"})
	c := NewSimClient(m, 4)
	msgs := BuildPrompt("whatever", nil, graph.KindUnknown, []string{"x.y"}, nil, PromptConfig{})
	out, err := c.Complete(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if out != "x.y" {
		t.Fatalf("fallback = %q", out)
	}
}

func TestHTTPClientCompletes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/chat/completions" {
			http.NotFound(w, r)
			return
		}
		if got := r.Header.Get("Authorization"); got != "Bearer secret" {
			http.Error(w, "no auth", http.StatusUnauthorized)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"choices":[{"message":{"role":"assistant","content":"graph.stats -> report.compose"}}]}`)) //nolint:errcheck
	}))
	defer srv.Close()
	c := &HTTPClient{BaseURL: srv.URL, Model: "vicuna-13b", APIKey: "secret"}
	out, err := c.Complete(context.Background(), []Message{{Role: "user", Content: "hi"}})
	if err != nil {
		t.Fatal(err)
	}
	if out != "graph.stats -> report.compose" {
		t.Fatalf("out = %q", out)
	}
}

func TestHTTPClientErrors(t *testing.T) {
	c := &HTTPClient{}
	if _, err := c.Complete(context.Background(), nil); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c = &HTTPClient{BaseURL: srv.URL}
	if _, err := c.Complete(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v", err)
	}
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"choices":[]}`)) //nolint:errcheck
	}))
	defer empty.Close()
	c = &HTTPClient{BaseURL: empty.URL}
	if _, err := c.Complete(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "no choices") {
		t.Fatalf("err = %v", err)
	}
	apiErr := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"error":{"message":"model overloaded"}}`)) //nolint:errcheck
	}))
	defer apiErr.Close()
	c = &HTTPClient{BaseURL: apiErr.URL}
	if _, err := c.Complete(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPClientContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &HTTPClient{BaseURL: srv.URL}
	if _, err := c.Complete(ctx, nil); err == nil {
		t.Fatal("cancelled request succeeded")
	}
}
