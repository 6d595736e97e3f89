// The reachability gates. Every function and method declared in a non-test
// file under internal/ or cmd/ must be reached, through non-test code, from
// some binary's main (cmd/, examples/), an init, or a package-level
// initializer: a function only its own tests call is code no program runs;
// it goes, or it moves into a _test.go file (TestEveryFunctionIsReached).
// And every option field under internal/ must be set by non-test code: a
// field nothing sets is a constant (TestEveryOptionIsSet). Both gates load
// bench/ but count it as a test: what only the benchmark reaches or sets
// needs a benchKeep entry.
package chatgraph_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachKeep lists the functions the scan cannot see a caller for and that
// stay anyway. Each entry names the test (in another package, so the
// function cannot move into a _test.go file of its own) that needs it. An
// entry the scan no longer needs fails the gate too, so the list cannot rot.
var reachKeep = map[string]string{
	"(*internal/durable.Store).Abort":      "the kill -9 stand-in of internal/server's TestCrashRecovery, TestRecoverExpiredSessions and TestRecoverInterruptedJob: closes the segment without the final sync or snapshot",
	"(internal/chain.Chain).Equal":         "whole-chain comparison in internal/finetune's TestDenseModelMatchesMapModel, internal/core's and internal/durable's round-trip tests",
	"(*internal/graph.Graph).AddNodeAttrs": "builds the typed knowledge-graph fixtures of internal/kg's and internal/apis' tests (kg_test.go's and mining_test.go's builders, TestDetectMissingAPI)",
	"internal/graph.ErdosRenyi":            "the random fixture of internal/seq's TestPathCoverQuadraticBound, TestQuickPathsAreWalks, TestQuickSuperGraphPartition and TestSuperGraphPartitionParity",
}

// benchKeep lists the functions (spelled as in reachKeep) and option fields
// (spelled as in optionKeep) that only bench/ reaches or sets, each with the
// bench/ file that does. bench/ is the benchmark harness and changes only in
// a benchmark-only change, so its callers keep nothing alive by themselves:
// a new bench-only survivor shows up as a new entry here. An entry the scan
// no longer needs, or whose file no longer reaches it, fails the gate too.
var benchKeep = map[string]string{
	"(*internal/apis.InvokeCache).Counters":  "bench/trace.go",
	"(*internal/apis.InvokeCache).Evictions": "bench/trace.go",
	"(*internal/core.Engine).Env":            "bench/trace.go",
	"(*internal/core.Engine).Model":          "bench/main.go",
	"(*internal/durable.Store).PersistGraph": "bench/trace.go",
	"(*internal/graph.Graph).MarshalJSON":    "bench/trace.go",
	"(*internal/graphstore.Store).Counters":  "bench/trace.go",
	"(*internal/graphstore.Store).Evictions": "bench/trace.go",
	"(*internal/jobs.Job).Done":              "bench/trace.go",
	"(*internal/jobs.Manager).Submit":        "bench/trace.go",
	"(*internal/llm.SimClient).Complete":     "bench/trace.go",
	"(*internal/retrieve.Index).Description": "bench/oracle.go",
	"internal/llm.parsePrompt":               "bench/trace.go",
	"internal/seq.RenderAll":                 "bench/trace.go",
	"internal/seq.Sequentialize":             "bench/trace.go",
	"internal/cluster.Options.Registry":      "bench/trace.go",
	"internal/durable.Options.Metrics":       "bench/trace.go",
	"internal/retrieve.Config.Quantize":      "bench/oracle.go",
	"internal/server.Options.Metrics":        "bench/trace.go",
}

// isOptionName reports whether a benchKeep entry names an option field
// (pkg.Type.Field) rather than a function (pkg.Func or (recv).Method).
func isOptionName(name string) bool {
	return !strings.HasPrefix(name, "(") && strings.Count(name[strings.LastIndex(name, "/")+1:], ".") == 2
}

// inBench reports whether a module directory is bench/ or below it.
func inBench(dir string) bool {
	dir = filepath.ToSlash(dir)
	return dir == "bench" || strings.HasPrefix(dir, "bench/")
}

// reachStdInterfaces are the standard-library interfaces whose methods only
// the library calls: a module type that implements one keeps those methods
// without a visible caller. (Error, ServeHTTP, Write and the like need no
// entry: module code calls them through their interfaces too.)
var reachStdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},   // fmt verbs call String
	{"sort", "Interface"}, // sort.Sort calls Len / Less / Swap
}

const reachModule = "chatgraph"

// reachPkg is one type-checked package of the module, non-test files only.
type reachPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// reachLoader type-checks module packages from source, once each, and hands
// everything else to the standard library's source importer.
type reachLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg // by directory relative to the module root
	errs []error
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, reachModule+"/"); ok {
		return l.load(rel).types, nil
	}
	return l.std.Import(path)
}

func (l *reachLoader) load(dir string) *reachPkg {
	if p, ok := l.pkgs[dir]; ok {
		return p
	}
	p := &reachPkg{info: &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}}
	l.pkgs[dir] = p
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			l.errs = append(l.errs, err)
			continue
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	path := reachModule
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	p.types, _ = conf.Check(path, l.fset, p.files, p.info)
	return p
}

// reachName prints a function the way reachKeep spells it: FullName without
// the module prefix.
func reachName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), reachModule+"/", "")
}

// reachModuleOnce holds the type-checked module: both gates read it, one
// load (≈ 4 s) serves them.
var reachModuleOnce struct {
	sync.Once
	l   *reachLoader
	err error
}

// loadModule type-checks every directory of the module that holds non-test
// Go.
func loadModule(t *testing.T) *reachLoader {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	m := &reachModuleOnce
	m.Do(func() {
		if build.Default.GOROOT == "" {
			// A -trimpath test binary (CI's GOFLAGS) does not know where the
			// standard library's source is; the go command that built it does.
			out, err := exec.Command("go", "env", "GOROOT").Output()
			if err != nil {
				m.err = fmt.Errorf("go env GOROOT: %w", err)
				return
			}
			build.Default.GOROOT = strings.TrimSpace(string(out))
			defer func() { build.Default.GOROOT = "" }()
		}
		l := &reachLoader{
			fset: token.NewFileSet(),
			pkgs: make(map[string]*reachPkg),
		}
		l.std = importer.ForCompiler(l.fset, "source", nil)
		m.err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata" || path == filepath.Join("bench", "out")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				l.load(filepath.Dir(path))
			}
			return nil
		})
		if m.err == nil && len(l.errs) > 0 {
			m.err = fmt.Errorf("type-checking the module: %v (and %d more)", l.errs[0], len(l.errs)-1)
		}
		m.l = l
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.l
}

func TestEveryFunctionIsReached(t *testing.T) {
	l := loadModule(t)

	// The reference graph: for each declared function, the functions its
	// body names (called or taken as a value); the roots are what runs
	// without being named — main, init, package-level initializers.
	type decl struct {
		fn    *types.Func
		file  string
		lines int
	}
	var (
		decls []decl
		refs  = make(map[*types.Func][]*types.Func)
		roots []*types.Func
		named []types.Type // every concrete named type of the module, for interface dispatch
		// What each bench/ file names, and the functions bench/ declares: the
		// benchmark is walked file by file, apart from the roots.
		benchSeeds = make(map[string][]*types.Func)
		benchFuncs = make(map[*types.Func]bool)
	)
	collect := func(info *types.Info, n ast.Node) (out []*types.Func) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
			return true
		})
		return out
	}
	for dir, p := range l.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn.Type())
			}
		}
		checked := strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "internal/")
		bench := inBench(dir)
		for _, f := range p.files {
			file := filepath.ToSlash(l.fset.File(f.Pos()).Name())
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						break
					}
					if bench {
						benchSeeds[file] = append(benchSeeds[file], collect(p.info, d)...)
					} else {
						roots = append(roots, collect(p.info, d)...)
					}
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					if d.Body != nil {
						refs[fn] = collect(p.info, d.Body)
					}
					if bench {
						benchFuncs[fn] = true
						benchSeeds[file] = append(benchSeeds[file], refs[fn]...)
					} else if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, fn)
					} else if checked {
						pos := l.fset.Position(d.Pos())
						decls = append(decls, decl{fn, pos.Filename, l.fset.Position(d.End()).Line - pos.Line + 1})
					}
				}
			}
		}
	}

	// methodsFor resolves an interface's methods on every module type that
	// implements it.
	methodsFor := func(iface *types.Interface, only string) (out []*types.Func) {
		for _, T := range named {
			for _, typ := range []types.Type{T, types.NewPointer(T)} {
				if !types.Implements(typ, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if only != "" && m.Name() != only {
						continue
					}
					if obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name()); obj != nil {
						if fn, ok := obj.(*types.Func); ok {
							out = append(out, fn.Origin())
						}
					}
				}
				break
			}
		}
		return out
	}
	for _, si := range reachStdInterfaces {
		pkg, err := l.std.Import(si.pkg)
		if err != nil {
			t.Fatalf("import %s: %v", si.pkg, err)
		}
		iface, ok := pkg.Scope().Lookup(si.name).Type().Underlying().(*types.Interface)
		if !ok {
			t.Fatalf("%s.%s is not an interface", si.pkg, si.name)
		}
		roots = append(roots, methodsFor(iface, "")...)
	}

	// walk marks in reached everything work reaches, expanding no function
	// stop reports.
	walk := func(work []*types.Func, reached map[*types.Func]bool, stop func(*types.Func) bool) {
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			if reached[fn] || stop(fn) {
				continue
			}
			reached[fn] = true
			work = append(work, refs[fn]...)
			// A call through an interface reaches that method on every module
			// type that implements the interface.
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					work = append(work, methodsFor(iface, fn.Name())...)
				}
			}
		}
	}
	reached := make(map[*types.Func]bool)
	walk(roots, reached, func(*types.Func) bool { return false })
	// benchFiles[fn] lists the bench/ files that reach fn, directly or
	// through module code, when nothing else does.
	benchFiles := make(map[*types.Func][]string)
	for file, seeds := range benchSeeds {
		from := make(map[*types.Func]bool)
		walk(seeds, from, func(fn *types.Func) bool { return reached[fn] || benchFuncs[fn] })
		for fn := range from {
			benchFiles[fn] = append(benchFiles[fn], file)
		}
	}

	sort.Slice(decls, func(i, j int) bool { return reachName(decls[i].fn) < reachName(decls[j].fn) })
	kept := make(map[string]bool)
	dead := 0
	for _, d := range decls {
		if reached[d.fn] {
			continue
		}
		name := reachName(d.fn)
		if _, ok := reachKeep[name]; ok {
			kept[name] = true
			continue
		}
		files := benchFiles[d.fn]
		sort.Strings(files)
		if file, ok := benchKeep[name]; ok {
			kept[name] = true
			if !slices.Contains(files, file) {
				t.Errorf("benchKeep says %s reaches %s; the bench/ files that reach it: %v", file, name, files)
			}
			continue
		}
		dead += d.lines
		if len(files) > 0 {
			t.Errorf("%s (%s, %d lines) is reached only from %v, and bench/ counts as a test: delete it with its bench/ caller in a benchmark-only change, or list it in benchKeep with the file that reaches it", name, d.file, d.lines, files)
			continue
		}
		t.Errorf("%s (%s, %d lines) is declared in non-test code and nothing but tests reaches it: delete it, move it into a _test.go file, or list it in reachKeep with the test that needs it", name, d.file, d.lines)
	}
	if dead > 0 {
		t.Logf("%d lines of unreached functions", dead)
	}
	for name := range reachKeep {
		if !kept[name] {
			t.Errorf("reachKeep lists %s, which is reached from non-test code or no longer exists: drop the entry", name)
		}
	}
	for name := range benchKeep {
		if !kept[name] && !isOptionName(name) {
			t.Errorf("benchKeep lists %s, which is reached from non-bench code or no longer exists: drop the entry", name)
		}
	}
}

// optionKeep lists the option fields no non-test code sets and that stay
// anyway, each with the test that needs the knob. An entry the scan no longer
// needs fails the gate too.
var optionKeep = map[string]string{
	"internal/ann.NSWConfig.EFConstruction":     "internal/ann's TestGraphIndexParity builds with the construction beam opened to n so the graph is connected and NSW must equal brute force",
	"internal/ann.NSWConfig.Beam":               "internal/ann's TestGraphIndexParity searches with the beam opened to n (exhaustive routing)",
	"internal/ann.TauMGConfig.MaxDegree":        "internal/ann's TestTauMGGuaranteeWithinTau: Definition 3's guarantee holds only for a build without the degree cap",
	"internal/ann.TauMGConfig.CandidatePool":    "internal/ann's TestTauMGGuaranteeWithinTau: the guarantee needs every other node as a candidate",
	"internal/ann.TauMGConfig.RandomCandidates": "internal/ann's TestTauMGGuaranteeWithinTau switches the sampled candidates off (-1) so the build is the exhaustive one",
	"internal/ann.TauMGConfig.Beam":             "internal/ann's TestGraphIndexParity (beam opened to n) and root BenchmarkANNMRNG",
	"internal/core.Config.Retrieve":             "read by nothing since NewEngine builds the index from Params.ANN; bench/oracle.go still assigns its inert Quantize, and bench/ changes only in benchmark-only PRs; it goes with chatgraphd's -quantize no-op",
	"internal/cluster.Options.Transport":        "the router's http.RoundTripper seam: ROADMAP item 3(c)'s faulting transport plugs in here; no test sets it yet, and it goes if that item lands without it",
}

// TestEveryOptionIsSet is the reachability gate asked of option fields: every
// untagged field of an exported struct named *Options, *Config or Policy
// under internal/ must be set by non-test code outside bench/ — as a
// composite-literal key (or position) anywhere, or by an assignment,
// increment or address-of outside the field's own package; an in-package
// `if x == 0 { x = d }` is a default, not a caller. A field nothing sets has
// one value in every binary: it becomes that constant. Tagged fields are set
// by the files they decode.
func TestEveryOptionIsSet(t *testing.T) {
	l := loadModule(t)

	// The fields under the rule, by object.
	fields := make(map[*types.Var]string)
	for dir, p := range l.pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || name == "Policy") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				// An embedded struct is its own fields, promoted.
				if st.Tag(i) == "" && !st.Field(i).Embedded() {
					fields[st.Field(i)] = filepath.ToSlash(dir) + "." + name + "." + st.Field(i).Name()
				}
			}
		}
	}

	set := make(map[*types.Var]bool)
	benchSet := make(map[string][]string) // field name → the bench/ files that set it
	for dir, p := range l.pkgs {
		for _, file := range p.files {
			mark := func(f *types.Var) { set[f] = true }
			if inBench(dir) {
				name := filepath.ToSlash(l.fset.File(file.Pos()).Name())
				mark = func(f *types.Var) {
					if field, ok := fields[f]; ok && !slices.Contains(benchSet[field], name) {
						benchSet[field] = append(benchSet[field], name)
					}
				}
			}
			// written marks the field a selector expression names, when the
			// write happens outside the package that declares the field.
			written := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					if f, ok := p.info.Uses[sel.Sel].(*types.Var); ok && f.IsField() && f.Pkg() != p.types {
						mark(f)
					}
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := p.info.Types[n].Type
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem() // an elided &T{…} inside a []*T literal
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); !ok {
							mark(st.Field(i))
						} else if f, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(f)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		files := benchSet[name]
		sort.Strings(files)
		if _, ok := optionKeep[name]; ok {
			continue
		}
		if file, ok := benchKeep[name]; ok {
			if !slices.Contains(files, file) {
				t.Errorf("benchKeep says %s sets %s; the bench/ files that set it: %v", file, name, files)
			}
			continue
		}
		if len(files) > 0 {
			t.Errorf("%s is an option only %v sets, and bench/ counts as a test: make it a constant with its bench/ setter gone in a benchmark-only change, or list it in benchKeep with the file that sets it", name, files)
			continue
		}
		t.Errorf("%s is an option no non-test code sets: make it the constant it has always been, or list it in optionKeep with the test that needs it", name)
	}
	for name := range optionKeep {
		if _, ok := slices.BinarySearch(unset, name); !ok {
			t.Errorf("optionKeep lists %s, which non-test code sets or which no longer exists: drop the entry", name)
		}
	}
	for name := range benchKeep {
		if _, ok := slices.BinarySearch(unset, name); isOptionName(name) && !ok {
			t.Errorf("benchKeep lists %s, which non-bench code sets or which no longer exists: drop the entry", name)
		}
	}
}
