// Package apis defines the graph-analysis API registry ChatGraph retrieves
// from and executes against. Each API carries natural-language metadata (the
// text the retrieval module embeds) and an executable implementation over
// the internal/graph substrate. The registry covers the four demonstration
// scenarios: social understanding, molecule chemistry, similarity
// comparison, and knowledge-graph cleaning.
package apis

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
	"chatgraph/internal/kg"
	"chatgraph/internal/moldb"
)

// Output is the result of one API invocation. Text is always set and is what
// chat transcripts show; Data carries the machine-readable payload piped to
// the next chain step.
type Output struct {
	Text string
	Data any
}

// Input is what an API implementation receives.
type Input struct {
	// Graph is the user-uploaded graph the chain operates on. APIs that
	// edit graphs mutate this instance.
	Graph *graph.Graph
	// Prev is the previous step's Output (zero for the first step).
	Prev Output
	// Args are the invocation arguments from the chain step.
	Args map[string]string
	// Env exposes shared resources (molecule DB, KG detector).
	Env *Env
}

// Arg returns the named argument or def when absent.
func (in Input) Arg(name, def string) string {
	if v, ok := in.Args[name]; ok && v != "" {
		return v
	}
	return def
}

// IntArg returns the named argument parsed as int, or def when absent or
// malformed arguments were already rejected by validation.
func (in Input) IntArg(name string, def int) int {
	v, ok := in.Args[name]
	if !ok || v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// FloatArg is IntArg for "float" parameters.
func (in Input) FloatArg(name string, def float64) float64 {
	if f, err := strconv.ParseFloat(in.Arg(name, ""), 64); err == nil {
		return f
	}
	return def
}

// Env carries the shared substrate resources APIs may need.
type Env struct {
	// MolDB is the molecule database for similarity search (scenario 2).
	MolDB *moldb.DB
	// Detector finds knowledge-graph defects (scenario 3).
	Detector *kg.Detector
	// Cache memoizes invocations of Memoizable APIs per graph version, so a
	// session asking follow-up questions about an unmutated graph never
	// re-runs an identical analysis. Nil disables memoization.
	Cache *InvokeCache
}

// Param documents one API argument.
type Param struct {
	Name        string
	Description string
	Required    bool
	Default     string
	// Kind is "int", "float", "string", or "enum".
	Kind string
	// Enum lists legal values when Kind == "enum".
	Enum []string
}

// API is one registered graph-analysis operation.
type API struct {
	// Name is the dotted registry key, e.g. "community.detect".
	Name string
	// Description is the sentence the retrieval module embeds.
	Description string
	// Category groups APIs: "understand", "molecule", "compare", "clean",
	// "util".
	Category string
	// Params documents accepted arguments.
	Params []Param
	// Memoizable marks APIs whose Output is a pure function of (graph
	// content, args): they read only the graph and their arguments — never
	// Prev, never mutable Env state — and do not mutate the graph. Only
	// these are eligible for the Env invocation cache.
	Memoizable bool
	// Mutates marks APIs that edit the graph they receive. The executor
	// uses it to clone interned (shared) graphs before running a chain that
	// contains one, so graph edits stay private to the requesting session.
	// Mutates and Memoizable are mutually exclusive.
	Mutates bool
	// Fn executes the API.
	Fn func(Input) (Output, error)
}

// Registry is a concurrency-safe API catalog; it implements chain.Validator.
type Registry struct {
	mu   sync.RWMutex
	apis map[string]API
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{apis: make(map[string]API)}
}

// Register adds an API; re-registering an existing name is an error.
func (r *Registry) Register(a API) error {
	if a.Name == "" || a.Fn == nil {
		return fmt.Errorf("apis: API must have a name and an implementation")
	}
	if a.Memoizable && a.Mutates {
		return fmt.Errorf("apis: %q cannot be both Memoizable and Mutates", a.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.apis[a.Name]; dup {
		return fmt.Errorf("apis: %q already registered", a.Name)
	}
	r.apis[a.Name] = a
	return nil
}

// mustRegister panics on registration conflicts — used only for the built-in
// catalog, where a duplicate is a programming error.
func (r *Registry) mustRegister(a API) {
	if err := r.Register(a); err != nil {
		panic(err)
	}
}

// Get returns the named API.
func (r *Registry) Get(name string) (API, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.apis[name]
	return a, ok
}

// Len reports how many APIs are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.apis)
}

// All returns every API sorted by name.
func (r *Registry) All() []API {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]API, 0, len(r.apis))
	for _, a := range r.apis {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns every API name sorted.
func (r *Registry) Names() []string {
	all := r.All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// ValidateStep implements chain.Validator: the API must exist, required
// params must be present, and enum/int params must parse.
func (r *Registry) ValidateStep(s chain.Step) error {
	a, ok := r.Get(s.API)
	if !ok {
		return fmt.Errorf("unknown API %q", s.API)
	}
	known := make(map[string]Param, len(a.Params))
	for _, p := range a.Params {
		known[p.Name] = p
		v, present := s.Args[p.Name]
		if !present {
			if p.Required {
				return fmt.Errorf("missing required argument %q", p.Name)
			}
			continue
		}
		switch p.Kind {
		case "int":
			if _, err := strconv.Atoi(v); err != nil {
				return fmt.Errorf("argument %q must be an integer, got %q", p.Name, v)
			}
		case "float":
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				return fmt.Errorf("argument %q must be a number, got %q", p.Name, v)
			}
		case "enum":
			ok := false
			for _, e := range p.Enum {
				if e == v {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("argument %q must be one of %v, got %q", p.Name, p.Enum, v)
			}
		}
	}
	for arg := range s.Args {
		if _, ok := known[arg]; !ok {
			return fmt.Errorf("unexpected argument %q", arg)
		}
	}
	return nil
}

// Invoke validates and executes one step against in. Memoizable APIs are
// served from (and stored into) the Env invocation cache keyed by the
// graph's content hash, so repeating a step on the same graph content —
// whether the same instance, a re-upload in another session, or a fresh
// parse of identical JSON — short-circuits without re-running the
// implementation. A result is only cached when the graph version is
// unchanged after the call — a safety net against an API marked Memoizable
// that mutates anyway.
func (r *Registry) Invoke(s chain.Step, in Input) (Output, error) {
	if err := r.ValidateStep(s); err != nil {
		return Output{}, err
	}
	a, _ := r.Get(s.API)
	if in.Args == nil {
		in.Args = s.Args
	}
	if a.Memoizable && in.Graph != nil && in.Env != nil && in.Env.Cache != nil {
		key := cacheKey{hash: in.Graph.ContentHash(), api: a.Name, args: canonicalArgs(in.Args)}
		if out, ok := in.Env.Cache.get(key); ok {
			return out, nil
		}
		version := in.Graph.Version()
		out, err := a.Fn(in)
		if err == nil && in.Graph.Version() == version {
			in.Env.Cache.put(key, out)
		}
		return out, err
	}
	return a.Fn(in)
}

// ChainMutates reports whether any step of c names an API flagged Mutates.
// Unknown APIs are treated as mutating — validation will reject the chain
// anyway, and a conservative answer never shares what it should not.
func (r *Registry) ChainMutates(c chain.Chain) bool {
	for _, s := range c {
		a, ok := r.Get(s.API)
		if !ok || a.Mutates {
			return true
		}
	}
	return false
}

// Default builds the full built-in catalog wired to env. A nil env gets
// empty substrate resources (similarity search will report an empty DB).
func Default(env *Env) *Registry {
	if env == nil {
		env = &Env{}
	}
	if env.MolDB == nil {
		env.MolDB = moldb.New(3)
	}
	if env.Detector == nil {
		env.Detector = kg.NewDetector()
	}
	if env.Cache == nil {
		env.Cache = NewInvokeCache(DefaultInvokeCacheSize)
	}
	r := NewRegistry()
	registerUtil(r, env)
	registerUnderstand(r, env)
	registerMolecule(r, env)
	registerCompare(r, env)
	registerClean(r, env)
	registerExtended(r, env)
	return r
}
