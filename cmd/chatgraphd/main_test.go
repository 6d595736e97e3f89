package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/server"
)

func TestEffectiveConfig(t *testing.T) {
	file := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(file, []byte(`{"ann":{"top_k":4,"rerank_factor":2},"llm":{"backend":"http","base_url":"http://file.example/v1","model":"from-file","temperature":0,"max_chain_length":8}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const rerankBound = "config: ann.rerank_factor 4611686018427387904 outside [0, 256]"
	for _, tc := range []struct {
		name     string
		cfgPath  string
		quantize bool
		rerank   int
		llmURL   string
		want     func(*config.Config)
		wantErr  string
	}{
		{name: "no file, no flags", want: func(*config.Config) {}},
		{name: "no file, flags", quantize: true, rerank: 8, llmURL: "http://flag.example/v1", want: func(c *config.Config) {
			c.ANN.Quantize, c.ANN.RerankFactor = true, 8
			c.LLM.Backend, c.LLM.BaseURL, c.LLM.Model = "http", "http://flag.example/v1", "flag-model"
		}},
		{name: "file", cfgPath: file, want: func(c *config.Config) {
			c.ANN.TopK, c.ANN.RerankFactor = 4, 2
			c.LLM.Backend, c.LLM.BaseURL, c.LLM.Model = "http", "http://file.example/v1", "from-file"
		}},
		// Quantization flags layer over the file; the file's llm block
		// overrides -llm/-model.
		{name: "file + flags", cfgPath: file, quantize: true, rerank: 8, llmURL: "http://flag.example/v1", want: func(c *config.Config) {
			c.ANN.TopK, c.ANN.Quantize, c.ANN.RerankFactor = 4, true, 8
			c.LLM.Backend, c.LLM.BaseURL, c.LLM.Model = "http", "http://file.example/v1", "from-file"
		}},
		{name: "bad rerank, no file", quantize: true, rerank: 1 << 62, wantErr: rerankBound},
		{name: "bad rerank, file", cfgPath: file, quantize: true, rerank: 1 << 62, wantErr: rerankBound},
		{name: "missing file", cfgPath: file + ".absent", wantErr: "no such file"},
	} {
		got, err := effectiveConfig(tc.cfgPath, tc.quantize, tc.rerank, tc.llmURL, "flag-model")
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := config.Default()
		tc.want(&want)
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestConfigEndpointReportsFlags: GET /config must describe the daemon that
// is running. A daemon started with flags only (-quantize -rerank-factor 8
// -llm URL) used to answer the compiled-in defaults.
func TestConfigEndpointReportsFlags(t *testing.T) {
	fc, err := effectiveConfig("", true, 8, "http://127.0.0.1:1/v1", "flag-model")
	if err != nil {
		t.Fatal(err)
	}
	// The http backend generates chains remotely, so nothing is trained.
	eng, err := core.NewEngineFromConfig(fc, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got config.Config
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != fc || !got.ANN.Quantize || got.ANN.RerankFactor != 8 || got.LLM.Backend != "http" {
		t.Fatalf("/config = %+v, daemon runs %+v", got, fc)
	}
}
