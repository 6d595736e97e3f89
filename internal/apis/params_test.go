package apis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

// TestPageRankHonoursDamping: centrality.pagerank declares a damping
// parameter, the chain validator type-checks it and the invoke cache keys on
// it — and the implementation used to run at 0.85 whatever it said.
func TestPageRankHonoursDamping(t *testing.T) {
	// A star: the hub's share of the rank grows with the damping factor.
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.AddNode("v")
	}
	for i := 1; i < 6; i++ {
		g.AddEdge(0, graph.NodeID(i)) //nolint:errcheck
	}
	r := reg()
	run := func(damping string) (Output, error) {
		return r.Invoke(chain.NewStep("centrality.pagerank", "damping", damping), Input{Graph: g})
	}
	low, err := run("0.5")
	if err != nil {
		t.Fatal(err)
	}
	high, err := run("0.85")
	if err != nil {
		t.Fatal(err)
	}
	if low.Text == high.Text {
		t.Fatalf("damping 0.5 and 0.85 answer the same scores: %s", low.Text)
	}
	def, err := r.Invoke(chain.NewStep("centrality.pagerank"), Input{Graph: g})
	if err != nil || def.Text != high.Text {
		t.Fatalf("default damping: %q, %v; want the 0.85 answer %q", def.Text, err, high.Text)
	}
	for _, bad := range []string{"0", "1", "-0.5", "1.5", "NaN", "Inf"} {
		if _, err := run(bad); err == nil || !strings.Contains(err.Error(), "outside (0, 1)") {
			t.Errorf("damping %s: err = %v, want a range error", bad, err)
		}
	}
}

// TestEveryDeclaredParamIsRead scans the package source: every parameter an
// API literal declares must be read by that literal's Fn through in.Arg,
// in.IntArg or in.FloatArg with the same name. A declared parameter the
// implementation ignores still validates and still splits the invoke cache,
// so nothing else notices it. The scan must see every API Default registers.
func TestEveryDeclaredParamIsRead(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	scanned := map[string]bool{}
	for _, src := range sources {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		scanAPILiterals(t, file, scanned)
	}
	for _, a := range reg().All() {
		if !scanned[a.Name] {
			t.Errorf("%s is registered but not an API{...} literal the scan can see", a.Name)
		}
	}
}

// litField returns the value of the named field of a keyed composite
// literal, or nil.
func litField(lit *ast.CompositeLit, name string) ast.Expr {
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == name {
			return kv.Value
		}
	}
	return nil
}

// litString returns the value of a string literal, or "" for anything else.
func litString(e ast.Expr) string {
	b, ok := e.(*ast.BasicLit)
	if !ok || b.Kind != token.STRING {
		return ""
	}
	s, _ := strconv.Unquote(b.Value)
	return s
}

// scanAPILiterals checks every API{...} literal of file and records its name
// in scanned.
func scanAPILiterals(t *testing.T, file *ast.File, scanned map[string]bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "API" {
			return true
		}
		api := litString(litField(lit, "Name"))
		if api == "" {
			return true
		}
		scanned[api] = true
		read := map[string]bool{}
		if fn := litField(lit, "Fn"); fn != nil {
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Arg", "IntArg", "FloatArg":
						read[litString(call.Args[0])] = true
					}
				}
				return true
			})
		}
		if params, ok := litField(lit, "Params").(*ast.CompositeLit); ok {
			for _, p := range params.Elts {
				if name := litString(litField(p.(*ast.CompositeLit), "Name")); !read[name] {
					t.Errorf("%s declares parameter %q but its Fn never reads it", api, name)
				}
			}
		}
		return true
	})
}
