// Package chain models API chains — the sequences of graph-analysis API
// invocations ChatGraph generates from user prompts — together with the two
// training signals of the paper's §II-C: the graph edit distance between a
// generated chain and a ground truth, and the node-matching-based loss of
// Definition 1 built on an optimal one-to-one matching (computed here with
// the Hungarian algorithm).
package chain

import (
	"fmt"
	"sort"
	"strings"
)

// Step is one API invocation in a chain.
type Step struct {
	// API is the registry name of the invoked API, e.g. "community.detect".
	API string
	// Args are the invocation arguments (literal strings; the executor
	// interprets them against the API signature).
	Args map[string]string
}

// NewStep builds a Step from alternating key, value argument pairs; it
// panics on an odd number of kv elements (a programming error).
func NewStep(api string, kv ...string) Step {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("chain: NewStep(%s) called with odd kv list", api))
	}
	s := Step{API: api}
	if len(kv) > 0 {
		s.Args = make(map[string]string, len(kv)/2)
		for i := 0; i < len(kv); i += 2 {
			s.Args[kv[i]] = kv[i+1]
		}
	}
	return s
}

// String renders the step as "api(k=v,k2=v2)" with sorted keys.
func (s Step) String() string {
	if len(s.Args) == 0 {
		return s.API
	}
	keys := make([]string, 0, len(s.Args))
	for k := range s.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + s.Args[k]
	}
	return s.API + "(" + strings.Join(parts, ",") + ")"
}

// Equal reports whether two steps call the same API with the same args.
func (s Step) Equal(o Step) bool {
	if s.API != o.API || len(s.Args) != len(o.Args) {
		return false
	}
	for k, v := range s.Args {
		if o.Args[k] != v {
			return false
		}
	}
	return true
}

// Chain is an ordered sequence of API invocations. The output of step i is
// piped into step i+1 by the executor, which is the linear pipeline form the
// paper generates and monitors.
type Chain []Step

// String renders the chain as "a -> b(k=v) -> c".
func (c Chain) String() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = s.String()
	}
	return strings.Join(parts, " -> ")
}

// Equal reports element-wise equality. Only tests compare whole chains: the
// finetune parity tests against their oracle, core's and durable's round
// trips.
func (c Chain) Equal(o Chain) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if !c[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone deep-copies the chain.
func (c Chain) Clone() Chain {
	out := make(Chain, len(c))
	for i, s := range c {
		ns := Step{API: s.API}
		if s.Args != nil {
			ns.Args = make(map[string]string, len(s.Args))
			for k, v := range s.Args {
				ns.Args[k] = v
			}
		}
		out[i] = ns
	}
	return out
}

// Parse inverts String: "a -> b(k=v,k2=v2)" → Chain. Whitespace around the
// arrow and arguments is tolerated; malformed steps return an error.
func Parse(text string) (Chain, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	var c Chain
	for _, raw := range strings.Split(text, "->") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return nil, fmt.Errorf("chain: empty step in %q", text)
		}
		step, err := parseStep(raw)
		if err != nil {
			return nil, err
		}
		c = append(c, step)
	}
	return c, nil
}

func parseStep(raw string) (Step, error) {
	open := strings.IndexByte(raw, '(')
	if open < 0 {
		if strings.ContainsAny(raw, ")=,") {
			return Step{}, fmt.Errorf("chain: malformed step %q", raw)
		}
		return Step{API: raw}, nil
	}
	if !strings.HasSuffix(raw, ")") {
		return Step{}, fmt.Errorf("chain: unterminated args in %q", raw)
	}
	name := strings.TrimSpace(raw[:open])
	if name == "" {
		return Step{}, fmt.Errorf("chain: step %q missing API name", raw)
	}
	body := raw[open+1 : len(raw)-1]
	s := Step{API: name}
	if strings.TrimSpace(body) == "" {
		return s, nil
	}
	s.Args = make(map[string]string)
	for _, pair := range strings.Split(body, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return Step{}, fmt.Errorf("chain: malformed argument %q in %q", pair, raw)
		}
		k := strings.TrimSpace(kv[0])
		if k == "" {
			return Step{}, fmt.Errorf("chain: empty argument key in %q", raw)
		}
		s.Args[k] = strings.TrimSpace(kv[1])
	}
	return s, nil
}

// Validator checks steps against an API registry. It is an interface so the
// chain package does not depend on internal/apis.
type Validator interface {
	// ValidateStep returns an error when the named API does not exist or
	// the arguments do not fit its signature.
	ValidateStep(s Step) error
}

// Validate checks every step of c against v and returns the first error,
// annotated with the step position.
func Validate(c Chain, v Validator) error {
	for i, s := range c {
		if err := v.ValidateStep(s); err != nil {
			return fmt.Errorf("chain: step %d (%s): %w", i+1, s.API, err)
		}
	}
	return nil
}
