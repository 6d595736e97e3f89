// Package kg provides the knowledge-graph analysis behind the paper's
// chat-based graph cleaning scenario (Fig. 6): detecting incorrect edges,
// inferring missing edges with logical rules, injecting synthetic noise for
// evaluation, and producing an edit plan the executor applies after user
// confirmation.
//
// A detector pass reads the graph through a view (node types in a slice,
// signature relations numbered in label order) and works on integers from
// there: triples are 12-byte comparable map keys, the valid triples' adjacency
// is one offset array indexed by relation·n + subject, and rule conclusions
// are sorted as 16-byte records before any Issue is built. The string-keyed
// detectors this replaced are the reference in parity_test.go; the issue
// lists are identical. Apply is label-aware in both directions: it removes
// the edge carrying the issue's relation and adds a missing triple unless that
// very triple is stored, whatever other relations join the same two entities.
package kg

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"chatgraph/internal/graph"
)

// Issue is one suspected defect in a knowledge graph.
type Issue struct {
	// Kind is "incorrect" (edge should be removed) or "missing" (edge
	// should be added).
	Kind   string
	From   graph.NodeID
	To     graph.NodeID
	Label  string
	Reason string
}

// String renders the issue for chat transcripts and confirmation prompts.
func (i Issue) String() string {
	verb := "remove"
	if i.Kind == "missing" {
		verb = "add"
	}
	return fmt.Sprintf("%s edge %d -[%s]-> %d (%s)", verb, i.From, i.Label, i.To, i.Reason)
}

// TypeSignatures maps a relation label to the (subject type, object type)
// pair it requires; edges violating their signature are flagged incorrect.
type TypeSignatures map[string][2]string

// Rule is a Horn-style inference rule over relation labels.
type Rule struct {
	// Name describes the rule in reports.
	Name string
	// Kind selects the template: "symmetric" (r(x,y) ⇒ r(y,x)),
	// "transitive" (r(x,y) ∧ r(y,z) ⇒ r(x,z)), or "composition"
	// (Body1(x,y) ∧ Body2(y,z) ⇒ Head(x,z)).
	Kind string
	// Rel is the relation for symmetric/transitive rules.
	Rel string
	// Body1, Body2, Head configure composition rules.
	Body1, Body2, Head string
}

// DefaultRules are the inference rules matching the synthetic KG vocabulary
// in internal/graph (KnowledgeGraph generator).
func DefaultRules() []Rule {
	return []Rule{
		{Name: "spouse symmetry", Kind: "symmetric", Rel: "spouse_of"},
		{Name: "located transitivity", Kind: "transitive", Rel: "located_in"},
		{Name: "part_of transitivity", Kind: "transitive", Rel: "part_of"},
		{Name: "capital implies located", Kind: "composition", Body1: "capital_of", Body2: "located_in", Head: "located_in"},
		{Name: "member works composition", Kind: "composition", Body1: "member_of", Body2: "part_of", Head: "member_of"},
	}
}

// Detector finds incorrect and missing edges.
type Detector struct {
	Signatures TypeSignatures
	Rules      []Rule
}

// NewDetector returns a Detector with the default signatures (matching the
// synthetic generator) and rules.
func NewDetector() *Detector {
	return &Detector{Signatures: TypeSignatures(graph.KGRelationTypes()), Rules: DefaultRules()}
}

// triple identifies one stored or inferred fact within a detector pass, its
// relation by the view's id: a 12-byte comparable map key, so looking one up
// builds nothing.
type triple struct {
	from, to, rel int32
}

// view is what one detector pass reads a graph through, so that the
// per-triple work is array indexing: each node's "type" attribute looked up
// once, and the signature relations numbered in label order (a relation's id
// is its index in names, so sorting by id sorts by label).
type view struct {
	types []string    // node → "type" attribute
	names []string    // relation id → label, ascending
	sigs  [][2]string // relation id → required (subject, object) types
	// ids maps a label to its relation id. incorrect numbers the labels that
	// have no signature as it meets them, after the ones that do, so that a
	// duplicate of such an edge still collides with it.
	ids map[string]int32
}

func (d *Detector) view(g *graph.Graph) *view {
	v := &view{
		types: make([]string, g.NumNodes()),
		names: make([]string, 0, len(d.Signatures)),
		sigs:  make([][2]string, len(d.Signatures)),
		ids:   make(map[string]int32, len(d.Signatures)),
	}
	for i, n := range g.Nodes() {
		v.types[i] = n.Attrs["type"]
	}
	for rel := range d.Signatures {
		v.names = append(v.names, rel)
	}
	sort.Strings(v.names)
	for id, rel := range v.names {
		v.sigs[id] = d.Signatures[rel]
		v.ids[rel] = int32(id)
	}
	return v
}

// rel returns the id of a relation that has a signature.
func (v *view) rel(label string) (id int32, ok bool) {
	id, ok = v.ids[label]
	return id, ok && int(id) < len(v.names)
}

// valid reports whether the triple satisfies relation rel's type signature.
func (v *view) valid(from graph.NodeID, rel int32, to graph.NodeID) bool {
	return v.types[from] == v.sigs[rel][0] && v.types[to] == v.sigs[rel][1]
}

// DetectIncorrect flags edges whose endpoint types violate the relation
// signature and duplicate edges (same endpoints and label stored twice).
func (d *Detector) DetectIncorrect(g *graph.Graph) []Issue {
	issues, _ := d.incorrect(g, d.view(g))
	return issues
}

// incorrect also returns the set of triples g stores, which it has to build
// to find the duplicates and which missing needs next.
func (d *Detector) incorrect(g *graph.Graph, v *view) ([]Issue, map[triple]struct{}) {
	var issues []Issue
	stored := make(map[triple]struct{}, g.NumEdges())
	for _, e := range g.Edges() {
		rel, seen := v.ids[e.Label]
		if !seen {
			rel = int32(len(v.ids))
			v.ids[e.Label] = rel
		}
		key := triple{int32(e.From), int32(e.To), rel}
		if _, dup := stored[key]; dup {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: "duplicate triple",
			})
			continue
		}
		stored[key] = struct{}{}
		if int(rel) >= len(v.names) {
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: "unknown relation",
			})
			continue
		}
		if !v.valid(e.From, rel, e.To) {
			sig := v.sigs[rel]
			issues = append(issues, Issue{
				Kind: "incorrect", From: e.From, To: e.To, Label: e.Label,
				Reason: fmt.Sprintf("type violation: %s(%s,%s) requires (%s,%s)", e.Label, v.types[e.From], v.types[e.To], sig[0], sig[1]),
			})
		}
	}
	return issues, stored
}

// DetectMissing applies the inference rules and reports conclusions not
// present in the graph.
func (d *Detector) DetectMissing(g *graph.Graph) []Issue {
	v := d.view(g)
	stored := make(map[triple]struct{}, g.NumEdges())
	for _, e := range g.Edges() {
		// No rule concludes a relation that has no signature.
		if rel, ok := v.rel(e.Label); ok {
			stored[triple{int32(e.From), int32(e.To), rel}] = struct{}{}
		}
	}
	return d.missing(g, v, stored, nil)
}

// inferred is one rule conclusion before it becomes an Issue: small enough
// to sort by value, with from<<32|to as one word and the relation id
// standing in for label order.
type inferred struct {
	ends      uint64
	rel, rule int32
}

// missing appends the rule conclusions absent from stored to issues, ordered
// by (from, to, label). stored gains every conclusion reported.
func (d *Detector) missing(g *graph.Graph, v *view, stored map[triple]struct{}, issues []Issue) []Issue {
	// Adjacency of the signature-valid triples, one row per (relation,
	// subject): row k = rel·n + from is tos[off[k]:off[k+1]]. Only valid
	// triples feed the rules: inferring over an incorrect edge would launder
	// its error into plausible-looking "missing" conclusions. The counting
	// sort runs one slot ahead — counts land in off[k+2], so after the prefix
	// sums off[k+1] is row k's start, and filling advances it to row k's end,
	// which is row k+1's start.
	n := g.NumNodes()
	off := make([]int32, len(v.names)*n+2)
	edges := g.Edges()
	rels := make([]int32, len(edges)) // edge → relation id, -1 if it feeds no rule
	for i, e := range edges {
		rel, ok := v.rel(e.Label)
		if !ok || !v.valid(e.From, rel, e.To) {
			rels[i] = -1
			continue
		}
		rels[i] = rel
		off[int(rel)*n+int(e.From)+2]++
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	tos := make([]int32, off[len(off)-1])
	for i, e := range edges {
		if rels[i] >= 0 {
			k := int(rels[i])*n + int(e.From) + 1
			tos[off[k]] = int32(e.To)
			off[k]++
		}
	}
	row := func(rel int32, from int) []int32 {
		k := int(rel)*n + from
		return tos[off[k]:off[k+1]]
	}

	var found []inferred
	emit := func(from, to int32, rel int32, rule int) {
		key := triple{from, to, rel}
		if _, ok := stored[key]; from == to || ok {
			return
		}
		if !v.valid(graph.NodeID(from), rel, graph.NodeID(to)) {
			return
		}
		stored[key] = struct{}{} // dedup across rules
		found = append(found, inferred{uint64(from)<<32 | uint64(to), rel, int32(rule)})
	}
	for ri, r := range d.Rules {
		// A transitive rule is the composition of its relation with itself.
		body1, body2, head := r.Rel, r.Rel, r.Rel
		if r.Kind == "composition" {
			body1, body2, head = r.Body1, r.Body2, r.Head
		}
		b1, ok1 := v.rel(body1)
		b2, ok2 := v.rel(body2)
		h, ok3 := v.rel(head)
		if !ok1 || !ok2 || !ok3 {
			continue // a relation without a signature has no valid triples
		}
		switch r.Kind {
		case "symmetric":
			for from := 0; from < n; from++ {
				for _, to := range row(b1, from) {
					emit(to, int32(from), h, ri)
				}
			}
		case "transitive", "composition":
			for x := 0; x < n; x++ {
				for _, y := range row(b1, x) {
					for _, z := range row(b2, int(y)) {
						emit(int32(x), z, h, ri)
					}
				}
			}
		}
	}
	slices.SortFunc(found, func(a, b inferred) int {
		return cmp.Or(cmp.Compare(a.ends, b.ends), cmp.Compare(a.rel, b.rel))
	})
	issues = slices.Grow(issues, len(found))
	for _, f := range found {
		issues = append(issues, Issue{
			Kind: "missing", From: graph.NodeID(f.ends >> 32), To: graph.NodeID(uint32(f.ends)),
			Label: v.names[f.rel], Reason: d.Rules[f.rule].Name,
		})
	}
	return issues
}

// Detect runs both detectors, incorrect first.
func (d *Detector) Detect(g *graph.Graph) []Issue {
	v := d.view(g)
	issues, stored := d.incorrect(g, v)
	return d.missing(g, v, stored, issues)
}

// tripleKey renders "from|rel|to"; rule mining and Score key their triple
// sets on it.
func tripleKey(from graph.NodeID, rel string, to graph.NodeID) string {
	var b strings.Builder
	b.Grow(len(rel) + 16)
	b.WriteString(strconv.Itoa(int(from)))
	b.WriteByte('|')
	b.WriteString(rel)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(to)))
	return b.String()
}

// Apply edits g in place according to the accepted issues: incorrect edges
// are removed, missing edges added. It returns how many edits succeeded.
func Apply(g *graph.Graph, issues []Issue) int {
	missing := 0
	for _, is := range issues {
		if is.Kind == "missing" {
			missing++
		}
	}
	g.Grow(0, missing)
	applied := 0
	for _, is := range issues {
		switch is.Kind {
		case "incorrect":
			// Label-aware removal: parallel edges with other relations
			// between the same entities must survive.
			if g.RemoveEdgeLabeled(is.From, is.To, is.Label) {
				applied++
			}
		case "missing":
			// Label-aware too: another relation between the same entities
			// does not stand in for the missing one.
			if !g.HasEdgeLabeled(is.From, is.To, is.Label) {
				if err := g.AddEdgeLabeled(is.From, is.To, is.Label, 1); err == nil {
					applied++
				}
			}
		}
	}
	return applied
}

// Corruption records the noise InjectNoise introduced, so experiments can
// score detection precision/recall.
type Corruption struct {
	AddedWrong   []Issue // edges injected that violate signatures
	RemovedTrue  []Issue // edges deleted whose absence rules can re-infer
	CleanTriples int
}

// InjectNoise corrupts g in place: nWrong type-violating edges are added and
// nDrop existing edges removed. It returns what was done for scoring.
func InjectNoise(g *graph.Graph, nWrong, nDrop int, rng *rand.Rand) Corruption {
	var c Corruption
	c.CleanTriples = g.NumEdges()
	rels := make([]string, 0, len(graph.KGRelationTypes()))
	for r := range graph.KGRelationTypes() {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	n := g.NumNodes()
	// Drop first so a drop can never delete an edge injected below.
	for dropped := 0; dropped < nDrop && g.NumEdges() > 0; dropped++ {
		es := g.Edges()
		e := es[rng.Intn(len(es))]
		g.RemoveEdge(e.From, e.To)
		c.RemovedTrue = append(c.RemovedTrue, Issue{Kind: "missing", From: e.From, To: e.To, Label: e.Label})
	}
	for added := 0; added < nWrong; {
		rel := rels[rng.Intn(len(rels))]
		sig := graph.KGRelationTypes()[rel]
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))
		if from == to || g.HasEdge(from, to) {
			continue
		}
		// Only inject if it actually violates the signature, so ground
		// truth is unambiguous.
		if g.Node(from).Attrs["type"] == sig[0] && g.Node(to).Attrs["type"] == sig[1] {
			continue
		}
		if err := g.AddEdgeLabeled(from, to, rel, 1); err != nil {
			continue
		}
		c.AddedWrong = append(c.AddedWrong, Issue{Kind: "incorrect", From: from, To: to, Label: rel})
		added++
	}
	return c
}

// Score compares detected issues against a known corruption and returns
// precision and recall over the injected incorrect edges.
func Score(detected []Issue, c Corruption) (precision, recall float64) {
	injected := make(map[string]bool, len(c.AddedWrong))
	for _, is := range c.AddedWrong {
		injected[tripleKey(is.From, is.Label, is.To)] = true
	}
	tp, fp := 0, 0
	for _, is := range detected {
		if is.Kind != "incorrect" {
			continue
		}
		if injected[tripleKey(is.From, is.Label, is.To)] {
			tp++
		} else {
			fp++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if len(c.AddedWrong) > 0 {
		recall = float64(tp) / float64(len(c.AddedWrong))
	}
	return precision, recall
}
