package chatgraph_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateHelp = flag.Bool("update", false, "rewrite testdata/help/*.golden from the binaries' current -h output")

// helpBinaries are the commands whose flag set is an interface: CI jobs,
// EXPERIMENTS.md and the bench harness spell their flags.
var helpBinaries = []string{"chatgraphd", "chatgraph-router", "loadgen", "benchann"}

// buildCmds builds the named commands into a temporary directory and returns
// it.
func buildCmds(t *testing.T, names ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the daemon, the router, loadgen and benchann")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return dir
}

// runCmd runs a built command with argv[0] set to its bare name, so usage
// text does not depend on where it was built, and returns its combined output
// and exit status.
func runCmd(t *testing.T, dir, name string, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(dir, name), args...)
	cmd.Args[0] = name
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestHelpIsStable: `-h` of the four interface binaries is pinned byte for
// byte, so a flag cannot appear, vanish or change its text without the
// golden file changing in the same diff. Run with -update to rewrite them.
func TestHelpIsStable(t *testing.T) {
	dir := buildCmds(t, helpBinaries...)
	for _, name := range helpBinaries {
		out, code := runCmd(t, dir, name, "-h")
		if code != 0 {
			t.Errorf("%s -h: exit status %d, want 0", name, code)
		}
		golden := filepath.Join("testdata", "help", name+".golden")
		if *updateHelp {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(out), want) {
			t.Errorf("%s -h differs from %s (run go test -run TestHelpIsStable -update . to accept):\n%s", name, golden, out)
		}
	}
}

// TestLoadgenStrayArgumentRefused: flag parsing stops at the first
// non-flag, so `loadgen -duration 1s stray -strict` would run without
// -strict. It must exit 2 naming the argument, before any request is made.
func TestLoadgenStrayArgumentRefused(t *testing.T) {
	dir := buildCmds(t, "loadgen")
	out, code := runCmd(t, dir, "loadgen", "-addr", "http://127.0.0.1:1", "stray", "-strict")
	if code != 2 {
		t.Fatalf("exit status %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, `"stray"`) {
		t.Errorf("output does not name the stray argument:\n%s", out)
	}
}
