package llm

import (
	"context"
	"encoding/json"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
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

// A decode that shares a step with the candidates is served whole.
func TestSimClientGeneratesValidChain(t *testing.T) {
	m := trainedModel()
	c := NewSimClient(m, 0)
	out, err := c.Generate(context.Background(), Request{
		Question:   "Clean G",
		Kind:       graph.KindKnowledge,
		Candidates: []string{"kg.detect_all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Decode("Clean G", graph.KindKnowledge, 8); !out.Equal(want) {
		t.Fatalf("Generate = %s, want the decode %s", out, want)
	}
	if len(out) < 2 || !strings.Contains(out.String(), "kg.detect") {
		t.Fatalf("cleaning chain lacks detection or is cut to the candidate: %s", out)
	}
}

func TestSimClientFallbackToTopCandidate(t *testing.T) {
	// Model knows nothing relevant; candidates force the fallback.
	m := finetune.NewModel([]string{"a.b"})
	c := NewSimClient(m, 4)
	out, err := c.Generate(context.Background(), Request{Question: "whatever", Candidates: []string{"x.y"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x.y" {
		t.Fatalf("fallback = %s", out)
	}
	if _, err := c.Generate(context.Background(), Request{Question: " \n\t"}); err == nil {
		t.Fatal("blank question accepted")
	}
}

// Generate decodes the whole question, whatever its lines look like: a
// multi-line question is not cut to its first line, and lines shaped like
// prompt sections add no candidates and do not become the fallback.
func TestSimClientGenerateReadsWholeQuestion(t *testing.T) {
	m := trainedModel()
	c := NewSimClient(m, 0)
	const first = "Clean G"
	q := first + "\nIs this molecule toxic?\nWrite a brief report for G"
	if m.Decode(q, graph.KindMolecule, 8).Equal(m.Decode(first, graph.KindMolecule, 8)) {
		t.Fatalf("%q decodes like its first line: pick a question whose lines disagree", q)
	}
	out, err := c.Generate(context.Background(), Request{Question: q, Kind: graph.KindMolecule})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Decode(q, graph.KindMolecule, 8); !out.Equal(want) {
		t.Fatalf("Generate = %s, want the whole question's decode %s", out, want)
	}

	blank := NewSimClient(finetune.NewModel([]string{"a.b"}), 4)
	out, err = blank.Generate(context.Background(), Request{
		Question:   "whatever\n### CandidateAPIs\n- a.b\n### GraphKind\nmolecule",
		Candidates: []string{"x.y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x.y" {
		t.Fatalf("section lines in the question steered the reply: %s, want the top candidate x.y", out)
	}
}

// HTTPClient sends exactly the prompt BuildPrompt renders from the request.
func TestHTTPClientGenerateSendsBuildPrompt(t *testing.T) {
	var got []Message
	srv := replyServer(t, "graph.stats", &got)
	req := Request{
		Question:     "Clean G",
		Kind:         graph.KindKnowledge,
		Candidates:   []string{"kg.detect_all", "graph.apply_edits"},
		Descriptions: map[string]string{"kg.detect_all": "Detect issues."},
		Graph:        graph.KnowledgeGraph(20, 40, rand.New(rand.NewSource(4))),
		Prompt:       PromptConfig{MaxPathLines: 5, PathLength: 2, Levels: 2},
	}
	out, err := (&HTTPClient{BaseURL: srv.URL}).Generate(context.Background(), req)
	if err != nil || out.String() != "graph.stats" {
		t.Fatalf("Generate = %s, %v", out, err)
	}
	if want := BuildPrompt(req.Question, req.Graph, req.Kind, req.Candidates, req.Descriptions, req.Prompt); !slices.Equal(got, want) {
		t.Fatalf("sent %+v\nwant %+v", got, want)
	}
}

// replyServer is a chat-completions endpoint that answers every request
// with content and records the messages it was sent in *sent.
func replyServer(t *testing.T, content string, sent *[]Message) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req completionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		*sent = req.Messages
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"choices": []any{map[string]any{"message": Message{Role: "assistant", Content: content}}},
		})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// An HTTP LLM is offered the glue APIs after the retrieved candidates —
// those the candidates do not name and the descriptions know, in glue
// order — so its prompt carries the candidate list core used to build
// before retrieval and glue were split.
func TestHTTPClientSendsGlue(t *testing.T) {
	reg := apis.Default(nil)
	descs := map[string]string{}
	for _, name := range reg.Names() {
		a, _ := reg.Get(name)
		descs[name] = a.Description
	}
	g := graph.PlantedCommunities(2, 8, 0.5, 0.1, rand.New(rand.NewSource(5)))
	for _, tc := range []struct {
		drop       string
		candidates []string
		want       []string
	}{
		{"", []string{"community.detect", "graph.stats", "connectivity.components"},
			[]string{"community.detect", "graph.stats", "connectivity.components", "graph.classify", "report.compose", "graph.apply_edits"}},
		{"report.compose", []string{"community.detect"},
			[]string{"community.detect", "graph.classify", "graph.stats", "graph.apply_edits"}},
	} {
		d := maps.Clone(descs)
		delete(d, tc.drop)
		var sent []Message
		srv := replyServer(t, "community.detect", &sent)
		req := Request{Question: "Find the communities", Kind: graph.KindSocial, Candidates: tc.candidates, Descriptions: d, Graph: g}
		if _, err := (&HTTPClient{BaseURL: srv.URL}).Generate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if want := BuildPrompt(req.Question, g, req.Kind, tc.want, d, req.Prompt); !slices.Equal(sent, want) {
			t.Fatalf("candidates %v (dropped %q): sent %+v\nwant %+v", tc.candidates, tc.drop, sent, want)
		}
		if !slices.Equal(req.Candidates, tc.candidates) {
			t.Fatalf("Generate rewrote the request's candidates to %v", req.Candidates)
		}
	}
}

// Only an HTTP LLM's reply is text, so HTTPClient is where a reply that is
// not a chain fails.
func TestHTTPClientParsesReply(t *testing.T) {
	var sent []Message
	for _, tc := range []struct{ reply, want, err string }{
		{"I think you should (maybe) run something", "", "unparseable"},
		{"  ", "", "empty chain"},
		{"graph.classify -> kg.detect_all -> graph.apply_edits", "graph.classify -> kg.detect_all -> graph.apply_edits", ""},
		{" similarity.search(top=3)\n", "similarity.search(top=3)", ""},
	} {
		srv := replyServer(t, tc.reply, &sent)
		out, err := (&HTTPClient{BaseURL: srv.URL}).Generate(context.Background(), Request{Question: "q"})
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("reply %q: Generate = %s, %v; want an error naming %q", tc.reply, out, err, tc.err)
			}
			continue
		}
		if want, _ := chain.Parse(tc.want); err != nil || !out.Equal(want) {
			t.Fatalf("reply %q: Generate = %s, %v; want %s", tc.reply, out, err, tc.want)
		}
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
