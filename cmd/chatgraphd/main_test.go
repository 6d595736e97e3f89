package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chatgraph/internal/config"
	"chatgraph/internal/core"
	"chatgraph/internal/server"
)

// TestMain lets a test run the daemon's main in a child process: the child
// is this test binary, re-executed with the variable set and the daemon's
// arguments as its own.
func TestMain(m *testing.M) {
	if os.Getenv("CHATGRAPHD_TEST_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runMain runs the daemon's main with args in a child process and returns
// what it printed and its exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CHATGRAPHD_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("run %v: %v; output:\n%s", args, err, out)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestStrayArgumentRefused: flag parsing stops at the first non-flag, so
// `chatgraphd stray -data-dir d` used to boot an in-memory daemon that
// acknowledged turns it would never persist. It must exit 2 naming the
// argument, before anything is built or opened.
func TestStrayArgumentRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	out, code := runMain(t, "-addr", "127.0.0.1:0", "-molecules", "5", "stray", "-data-dir", dir)
	if code != 2 {
		t.Fatalf("exit status %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, `"stray"`) {
		t.Errorf("output does not name the stray argument:\n%s", out)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("data dir was touched (stat err = %v)", err)
	}
}

// TestDurabilityFlagsNeedDataDir: -wal-sync, -wal-sync-interval and
// -snapshot-interval were read only inside `if *dataDir != ""`, so without
// -data-dir even `-wal-sync bogus` booted an in-memory daemon and logged
// nothing. Each, set explicitly, must exit 2 naming the flag.
func TestDurabilityFlagsNeedDataDir(t *testing.T) {
	for _, args := range [][]string{
		{"-wal-sync", "always"},
		{"-wal-sync-interval", "1s"},
		{"-snapshot-interval", "0"},
		{"-snapshot-interval", "1s", "-wal-sync", "bogus"}, // named in flag.Visit's (lexical) order
	} {
		out, code := runMain(t, append([]string{"-addr", "127.0.0.1:0", "-molecules", "5"}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2; output:\n%s", args, code, out)
		}
		if want := args[0] + " needs -data-dir"; !strings.Contains(out, want) {
			t.Errorf("%v: output lacks %q:\n%s", args, want, out)
		}
	}
}

// TestSizingFlagsMustBePositive: the session and job layers read a
// non-positive size as "unset", so `chatgraphd -job-workers 0 -job-queue 0
// -max-sessions 0 -session-ttl 0` logged "session ttl 0s, max 0 sessions, …
// 0 job workers, job queue 0" and served with 30 m / 4,096 / 2 / 64. Each
// must exit 2 naming the flag.
func TestSizingFlagsMustBePositive(t *testing.T) {
	for _, args := range [][]string{
		{"-session-ttl", "0"},
		{"-max-sessions", "0"},
		{"-job-workers", "0"},
		{"-job-queue", "-1"},
		{"-job-retention", "0"},
	} {
		out, code := runMain(t, append([]string{"-addr", "127.0.0.1:0", "-molecules", "5"}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2; output:\n%s", args, code, out)
		}
		if want := args[0] + " must be positive"; !strings.Contains(out, want) {
			t.Errorf("%v: output lacks %q:\n%s", args, want, out)
		}
	}
}

func TestEffectiveConfig(t *testing.T) {
	file := filepath.Join(t.TempDir(), "config.json")
	if err := os.WriteFile(file, []byte(`{"ann":{"top_k":4},"llm":{"backend":"http","base_url":"http://file.example/v1","model":"from-file","temperature":0,"max_chain_length":8}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfgPath string
		llmURL  string
		want    func(*config.Config)
		wantErr string
	}{
		{name: "no file, no flags", want: func(*config.Config) {}},
		{name: "no file, flags", llmURL: "http://flag.example/v1", want: func(c *config.Config) {
			c.LLM.Backend, c.LLM.BaseURL, c.LLM.Model = "http", "http://flag.example/v1", "flag-model"
		}},
		{name: "file", cfgPath: file, want: func(c *config.Config) {
			c.ANN.TopK = 4
			c.LLM.Backend, c.LLM.BaseURL, c.LLM.Model = "http", "http://file.example/v1", "from-file"
		}},
		// The file's llm block overrides -llm/-model.
		{name: "file + flags", cfgPath: file, llmURL: "http://flag.example/v1", want: func(c *config.Config) {
			c.ANN.TopK = 4
			c.LLM.Backend, c.LLM.BaseURL, c.LLM.Model = "http", "http://file.example/v1", "from-file"
		}},
		{name: "missing file", cfgPath: file + ".absent", wantErr: "no such file"},
	} {
		got, err := effectiveConfig(tc.cfgPath, tc.llmURL, "flag-model")
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
// is running. A daemon started with flags only (-llm URL) used to answer the
// compiled-in defaults.
func TestConfigEndpointReportsFlags(t *testing.T) {
	fc, err := effectiveConfig("", "http://127.0.0.1:1/v1", "flag-model")
	if err != nil {
		t.Fatal(err)
	}
	// The http backend generates chains remotely, so nothing is trained.
	eng, err := core.NewEngine(core.Config{Params: &fc})
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
	if got != fc || got.LLM.Backend != "http" {
		t.Fatalf("/config = %+v, daemon runs %+v", got, fc)
	}
}
