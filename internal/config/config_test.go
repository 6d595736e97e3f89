package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesEveryField(t *testing.T) {
	mut := []struct {
		name string
		f    func(*Config)
		want string
	}{
		{"dim", func(c *Config) { c.ANN.Dim = 4 }, "ann.dim"},
		{"topk", func(c *Config) { c.ANN.TopK = 0 }, "ann.top_k"},
		{"pathlen", func(c *Config) { c.Sequentializer.MaxPathLength = 0 }, "max_path_length"},
		{"levels", func(c *Config) { c.Sequentializer.Levels = 3 }, "levels"},
		{"pathlines", func(c *Config) { c.Sequentializer.MaxPathLines = 0 }, "max_path_lines"},
		{"rollouts", func(c *Config) { c.Finetune.Rollouts = -1 }, "rollouts"},
		{"alpha", func(c *Config) { c.Finetune.Alpha = -0.1 }, "alpha"},
		{"epochs", func(c *Config) { c.Finetune.Epochs = 100 }, "epochs"},
		{"examples", func(c *Config) { c.Finetune.Examples = 0 }, "examples"},
		{"backend", func(c *Config) { c.LLM.Backend = "magic" }, "backend"},
		{"baseurl", func(c *Config) { c.LLM.Backend = "http"; c.LLM.BaseURL = "" }, "base_url"},
		{"temp", func(c *Config) { c.LLM.Temperature = 3 }, "temperature"},
		{"chainlen", func(c *Config) { c.LLM.MaxChainLength = 0 }, "max_chain_length"},
	}
	for _, m := range mut {
		c := Default()
		m.f(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: err = %v, want mention of %s", m.name, err, m.want)
		}
	}
}

// The input keeps an "epsilon" key: the field it once set is gone (nothing
// read it), and files written before that must keep loading — unknown keys
// are ignored.
func TestParseOverDefaults(t *testing.T) {
	c, err := Parse([]byte(`{"ann":{"dim":256,"tau":0.1,"epsilon":0.05,"top_k":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.ANN.Dim != 256 || c.ANN.TopK != 8 {
		t.Fatalf("parsed ANN = %+v", c.ANN)
	}
	// Untouched sections keep defaults.
	if c.Finetune.Rollouts != Default().Finetune.Rollouts {
		t.Fatalf("finetune defaults lost: %+v", c.Finetune)
	}
}

// TestRetiredANNFieldsLoadAndAreNotReported: "quantize" and "rerank_factor"
// selected a retrieval tier that is deleted, and "tau" shaped a τ-MG that
// retrieval no longer builds. A file written for them must keep loading,
// whatever the values, and the encoding GET /config serves must not list the
// keys.
func TestRetiredANNFieldsLoadAndAreNotReported(t *testing.T) {
	c, err := Parse([]byte(`{"ann":{"dim":256,"quantize":true,"rerank_factor":8,"tau":-1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.ANN.Dim != 256 {
		t.Fatalf("parsed ANN = %+v", c.ANN)
	}
	out, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"quantize", "rerank_factor", "tau"} {
		if strings.Contains(string(out), key) {
			t.Errorf("encoded config still lists %q: %s", key, out)
		}
	}
}

func TestParseRejectsBadJSONAndValues(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"llm":{"backend":"alien","temperature":0,"max_chain_length":8}}`)); err == nil {
		t.Fatal("invalid backend accepted")
	}
}

// TestLoadRoundTrip: the encoding GET /config serves, written to a file,
// loads back to the same configuration.
func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	orig := Default()
	orig.ANN.TopK = 9
	orig.Finetune.Rollouts = 16
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, orig)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}
