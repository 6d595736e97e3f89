// Package kg provides the knowledge-graph analysis behind the paper's
// chat-based graph cleaning scenario (Fig. 6): detecting incorrect edges,
// inferring missing edges with logical rules, injecting synthetic noise for
// evaluation, and producing an edit plan the executor applies after user
// confirmation.
//
// A detector pass reads the graph through a view (node types and relations
// numbered, each edge's relation id looked up once for both passes) and
// works on integers from there, with no map or sort over triples:
// duplicates are found by grouping the edges by (subject, object) pair, and
// rule conclusions are generated subject by subject over forward and
// reverse (node, relation) rows of the valid triples, checked and
// deduplicated against a stamp array, so only each subject's own
// conclusions are sorted and the issue list grows once. The string-keyed
// detectors and the map-keyed ones these replaced are the references in
// parity_test.go; the issue lists are identical. Apply is label-aware in
// both directions: it removes the edge carrying the issue's relation and
// adds a missing triple unless that very triple is stored, whatever other
// relations join the same two entities; it edits the whole plan in one
// pass, with the one-issue-at-a-time version as its reference in
// parity_test.go.
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

// view is what one detector pass reads a graph through, so that the
// per-triple work is integer comparison: node types and signature types
// numbered once, the signature relations numbered in label order (a
// relation's id is its index in names, so sorting by id sorts by label),
// the labels without a signature numbered after them as they are met, and
// each edge's relation id looked up once for both passes.
type view struct {
	types []int32    // node → signature type id, -1 for a type no signature names
	names []string   // signature relation id → label, ascending
	sigs  [][2]int32 // signature relation id → required (subject, object) type ids
	rels  []int32    // edge → relation id
	// ids maps a label to its relation id: the signatures' first, then every
	// other label an edge carries.
	ids map[string]int32
}

func (d *Detector) view(g *graph.Graph) *view {
	v := &view{
		types: make([]int32, g.NumNodes()),
		names: make([]string, 0, len(d.Signatures)),
		sigs:  make([][2]int32, len(d.Signatures)),
		rels:  make([]int32, g.NumEdges()),
	}
	for rel := range d.Signatures {
		v.names = append(v.names, rel)
	}
	sort.Strings(v.names)
	typeIDs := make(map[string]int32, 2*len(v.names))
	typeID := func(t string) int32 {
		id, ok := typeIDs[t]
		if !ok {
			id = int32(len(typeIDs))
			typeIDs[t] = id
		}
		return id
	}
	v.ids = make(map[string]int32, len(v.names))
	for id, rel := range v.names {
		sig := d.Signatures[rel]
		v.sigs[id] = [2]int32{typeID(sig[0]), typeID(sig[1])}
		v.ids[rel] = int32(id)
	}
	for i, n := range g.Nodes() {
		t, ok := typeIDs[n.Attrs["type"]]
		if !ok {
			t = -1
		}
		v.types[i] = t
	}
	for i, e := range g.Edges() {
		rel, ok := v.ids[e.Label]
		if !ok {
			rel = int32(len(v.ids))
			v.ids[e.Label] = rel
		}
		v.rels[i] = rel
	}
	return v
}

// rel returns the id of a relation that has a signature.
func (v *view) rel(label string) (id int32, ok bool) {
	id, ok = v.ids[label]
	return id, ok && int(id) < len(v.names)
}

// valid reports whether the triple's relation has a signature and its
// endpoints' types satisfy it.
func (v *view) valid(from graph.NodeID, rel int32, to graph.NodeID) bool {
	return int(rel) < len(v.names) && v.types[from] == v.sigs[rel][0] && v.types[to] == v.sigs[rel][1]
}

// DetectIncorrect flags edges whose endpoint types violate the relation
// signature and duplicate edges (same endpoints and label stored twice).
func (d *Detector) DetectIncorrect(g *graph.Graph) []Issue {
	return d.incorrect(g, d.view(g))
}

func (d *Detector) incorrect(g *graph.Graph, v *view) []Issue {
	var issues []Issue
	dup := v.duplicates(g)
	for i, e := range g.Edges() {
		rel := v.rels[i]
		var reason string
		switch {
		case dup != nil && dup[i]:
			reason = "duplicate triple"
		case int(rel) >= len(v.names):
			reason = "unknown relation"
		case !v.valid(e.From, rel, e.To):
			sig := d.Signatures[e.Label]
			reason = fmt.Sprintf("type violation: %s(%s,%s) requires (%s,%s)",
				e.Label, g.Node(e.From).Attrs["type"], g.Node(e.To).Attrs["type"], sig[0], sig[1])
		default:
			continue
		}
		issues = append(issues, Issue{Kind: "incorrect", From: e.From, To: e.To, Label: e.Label, Reason: reason})
	}
	return issues
}

// duplicates reports which edges store the triple of an earlier edge, or
// nil when no two edges join the same (subject, object) pair. It hashes
// nothing: numberPairs numbers the pairs, byFirst groups the edges by pair
// in edge order, and within one pair seen[rel] tells whether the relation
// was met already.
func (v *view) duplicates(g *graph.Graph) []bool {
	edges := g.Edges()
	ends := make([][2]int32, len(edges))
	for i, e := range edges {
		ends[i] = [2]int32{int32(e.From), int32(e.To)}
	}
	pair, _, pairs := numberPairs(g.NumNodes(), ends, nil)
	if int(pairs) == len(edges) {
		return nil
	}
	for i := range ends {
		ends[i] = [2]int32{pair[i], v.rels[i]}
	}
	start, idx := byFirst(ends, int(pairs))
	dup := make([]bool, len(edges))
	seen := make([]int32, len(v.ids)) // relation → 1 + the pair it was last met in
	for p := int32(0); p < pairs; p++ {
		for _, i := range idx[start[p]:start[p+1]] {
			if r := v.rels[i]; seen[r] == p+1 {
				dup[i] = true
			} else {
				seen[r] = p + 1
			}
		}
	}
	return dup
}

// DetectMissing applies the inference rules and reports conclusions not
// present in the graph.
func (d *Detector) DetectMissing(g *graph.Graph) []Issue {
	return d.missing(g, d.view(g), nil)
}

// rows is the adjacency of the signature-valid triples, one row per (node,
// relation): row k = node·len(names) + rel is nodes[off[k]:off[k+1]], in
// edge order. Only valid triples feed the rules: inferring over an
// incorrect edge would launder its error into plausible-looking "missing"
// conclusions.
type rows struct {
	off   []int32
	nodes []int32
	nrel  int
}

func (r rows) row(node int, rel int32) []int32 {
	k := node*r.nrel + int(rel)
	return r.nodes[r.off[k]:r.off[k+1]]
}

// rowsOf builds the forward rows (a subject's objects) and, if reverse is
// set, the reverse ones (an object's subjects) in the same two passes over
// the edges. The counting sort runs one slot ahead — counts land in
// off[k+2], so after the prefix sums off[k+1] is row k's start, and filling
// advances it to row k's end, which is row k+1's start.
func (v *view) rowsOf(g *graph.Graph, reverse bool) (fwd, rev rows) {
	n, nrel, edges := g.NumNodes(), len(v.names), g.Edges()
	fwd = rows{off: make([]int32, n*nrel+2), nrel: nrel}
	if reverse {
		rev = rows{off: make([]int32, n*nrel+2), nrel: nrel}
	}
	valid := 0
	for i, e := range edges {
		if rel := v.rels[i]; v.valid(e.From, rel, e.To) {
			valid++
			fwd.off[int(e.From)*nrel+int(rel)+2]++
			if reverse {
				rev.off[int(e.To)*nrel+int(rel)+2]++
			}
		}
	}
	for _, r := range []rows{fwd, rev} {
		for k := 2; k < len(r.off); k++ {
			r.off[k] += r.off[k-1]
		}
	}
	fwd.nodes = make([]int32, valid)
	if reverse {
		rev.nodes = make([]int32, valid)
	}
	for i, e := range edges {
		rel := v.rels[i]
		if !v.valid(e.From, rel, e.To) {
			continue
		}
		k := int(e.From)*nrel + int(rel) + 1
		fwd.nodes[fwd.off[k]] = int32(e.To)
		fwd.off[k]++
		if reverse {
			k = int(e.To)*nrel + int(rel) + 1
			rev.nodes[rev.off[k]] = int32(e.From)
			rev.off[k]++
		}
	}
	return fwd, rev
}

// missing appends the rule conclusions g does not store to issues, ordered
// by (from, to, label); a conclusion several rules reach carries the first
// one's name. It works subject by subject: stamp[rel·n + to] holds 1 + the
// subject that stores or has concluded (subject, rel, to), so a conclusion
// is checked against the graph and deduplicated by one array read, and only
// the subject's own conclusions are sorted. Each is kept as to<<32 | rank,
// where a rule's rank orders the rules by head relation, then position:
// within one subject no two conclusions share (to, head), so sorting those
// words sorts by (to, label), and the rank names the rule.
func (d *Detector) missing(g *graph.Graph, v *view, issues []Issue) []Issue {
	type rule struct {
		sym       bool
		b1, b2, h int32
		name      string
		pos, rank int
	}
	var rules []rule
	for _, r := range d.Rules {
		// A transitive rule is the composition of its relation with itself.
		body1, body2, head := r.Rel, r.Rel, r.Rel
		switch r.Kind {
		case "symmetric", "transitive":
		case "composition":
			body1, body2, head = r.Body1, r.Body2, r.Head
		default:
			continue
		}
		b1, ok1 := v.rel(body1)
		b2, ok2 := v.rel(body2)
		h, ok3 := v.rel(head)
		if ok1 && ok2 && ok3 { // a relation without a signature has no valid triples
			rules = append(rules, rule{sym: r.Kind == "symmetric", b1: b1, b2: b2, h: h, name: r.Name, pos: len(rules)})
		}
	}
	if len(rules) == 0 {
		return issues
	}
	byRank := slices.Clone(rules)
	slices.SortStableFunc(byRank, func(a, b rule) int { return cmp.Compare(a.h, b.h) })
	var heads []int32
	sym := false
	for k, r := range byRank {
		rules[r.pos].rank = k
		if k == 0 || byRank[k-1].h != r.h {
			heads = append(heads, r.h)
		}
		sym = sym || r.sym
	}

	n := g.NumNodes()
	fwd, rev := v.rowsOf(g, sym)
	stamp := make([]int32, len(v.names)*n)
	var found []uint64
	bounds := make([]int32, n+1) // subject x's conclusions are found[bounds[x]:bounds[x+1]]
	for x := 0; x < n; x++ {
		s := int32(x + 1)
		for _, h := range heads {
			stamp[int(h)*n+x] = s // no self-loops
			for _, z := range fwd.row(x, h) {
				stamp[int(h)*n+int(z)] = s
			}
		}
		first := len(found)
		for _, r := range rules {
			sig := v.sigs[r.h]
			if v.types[x] != sig[0] {
				continue // x is not the subject of any valid r.h triple
			}
			mark, rank := stamp[int(r.h)*n:int(r.h+1)*n], uint64(r.rank)
			if r.sym {
				for _, y := range rev.row(x, r.b1) {
					if mark[y] != s && v.types[y] == sig[1] {
						mark[y] = s
						found = append(found, uint64(y)<<32|rank)
					}
				}
				continue
			}
			for _, y := range fwd.row(x, r.b1) {
				for _, z := range fwd.row(int(y), r.b2) {
					if mark[z] != s && v.types[z] == sig[1] {
						mark[z] = s
						found = append(found, uint64(z)<<32|rank)
					}
				}
			}
		}
		slices.Sort(found[first:])
		bounds[x+1] = int32(len(found))
	}

	issues = slices.Grow(issues, len(found))
	for x := 0; x < n; x++ {
		for _, f := range found[bounds[x]:bounds[x+1]] {
			r := byRank[uint32(f)]
			issues = append(issues, Issue{
				Kind: "missing", From: graph.NodeID(x), To: graph.NodeID(f >> 32),
				Label: v.names[r.h], Reason: r.name,
			})
		}
	}
	return issues
}

// Detect runs both detectors, incorrect first.
func (d *Detector) Detect(g *graph.Graph) []Issue {
	v := d.view(g)
	return d.missing(g, v, d.incorrect(g, v))
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
//
// The result is exactly that of applying the issues one at a time, in
// order: a removal takes the first live edge, in edge order, that joins the
// issue's endpoints (either way round on an undirected graph) and carries
// its relation — parallel edges with other relations survive; a missing
// triple is added unless an edge carrying its relation already joins them,
// whatever other relations do; an issue naming an unknown node or a
// self-loop is not applied. Version advances once per applied edit.
//
// It is done in one pass over the plan. Each endpoint pair the plan names
// gets a number (numberPairs) and a chain of the edges joining it, in edge
// order (survivors, then additions); an issue walks its pair's chain,
// comparing labels there only. The result is written once, at its exact
// size, through Graph.SetEdges.
func Apply(g *graph.Graph, issues []Issue) int {
	n, edges, directed := g.NumNodes(), g.Edges(), g.Directed()
	// ends orders a pair's endpoints: as given on a directed graph, smaller
	// first on an undirected one.
	ends := func(a, b graph.NodeID) [2]int32 {
		if !directed && a > b {
			a, b = b, a
		}
		return [2]int32{int32(a), int32(b)}
	}
	issueEnds := make([][2]int32, len(issues))
	for k, is := range issues {
		issueEnds[k] = [2]int32{-1, -1} // edits nothing: another kind, an unknown node, a self-loop
		if (is.Kind == "incorrect" || is.Kind == "missing") &&
			is.From >= 0 && int(is.From) < n && is.To >= 0 && int(is.To) < n && is.From != is.To {
			issueEnds[k] = ends(is.From, is.To)
		}
	}
	edgeEnds := make([][2]int32, len(edges))
	for i, e := range edges {
		edgeEnds[i] = ends(e.From, e.To)
	}
	issuePair, edgePair, pairs := numberPairs(n, issueEnds, edgeEnds)
	if pairs == 0 {
		return 0
	}

	// A link names an edge: i < len(edges) is edges[i], and len(edges)+k is
	// the edge issue k adds. Pair p's chain runs head[p] → next → … → -1.
	type link struct{ edge, next int32 }
	links := make([]link, 0, len(issues))
	head, tail := make([]int32, pairs), make([]int32, pairs)
	for p := range head {
		head[p], tail[p] = -1, -1
	}
	push := func(p, edge int32) {
		l := int32(len(links))
		links = append(links, link{edge, -1})
		if tail[p] < 0 {
			head[p] = l
		} else {
			links[tail[p]].next = l
		}
		tail[p] = l
	}
	for i, p := range edgePair {
		if p >= 0 {
			push(p, int32(i))
		}
	}

	// live[e] tells whether edge e (numbered as in links) is in the result.
	live := make([]bool, len(edges)+len(issues))
	for i := range edges {
		live[i] = true
	}
	label := func(edge int32) string {
		if int(edge) < len(edges) {
			return edges[edge].Label
		}
		return issues[int(edge)-len(edges)].Label
	}
	applied, size := 0, len(edges)
	for k, is := range issues {
		p := issuePair[k]
		if p < 0 {
			continue
		}
		l := head[p]
		for l >= 0 && !(live[links[l].edge] && label(links[l].edge) == is.Label) {
			l = links[l].next
		}
		switch {
		case is.Kind == "incorrect" && l >= 0:
			live[links[l].edge] = false
			size--
			applied++
		case is.Kind == "missing" && l < 0:
			live[len(edges)+k] = true
			push(p, int32(len(edges)+k))
			size++
			applied++
		}
	}
	if applied == 0 {
		return 0
	}

	// Survivors are copied a run at a time: a plan of additions only (what
	// "Clean G" on a clean upload is) copies the old list in one move.
	out := make([]graph.Edge, 0, size)
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && live[j] {
			j++
		}
		out = append(out, edges[i:j]...)
		for i = j; i < len(edges) && !live[i]; i++ {
		}
	}
	for k, is := range issues {
		if live[len(edges)+k] {
			out = append(out, graph.Edge{From: is.From, To: is.To, Label: is.Label, Weight: 1})
		}
	}
	if err := g.SetEdges(out, applied); err != nil {
		panic(err) // every edge was g's own or had its endpoints checked above
	}
	return applied
}

// numberPairs numbers the distinct endpoint pairs of issueEnds (entries
// with a negative first node name none) 0, 1, … and returns each issue's
// and each edge's pair number, or -1 for an edge joining no such pair.
// Nodes are below n. It hashes nothing: issues and edges are grouped by
// first node, and within one first node an array indexed by the second
// node holds the numbers, then is cleared for the next.
func numberPairs(n int, issueEnds, edgeEnds [][2]int32) (issuePair, edgePair []int32, pairs int32) {
	issueStart, issueIdx := byFirst(issueEnds, n)
	edgeStart, edgeIdx := byFirst(edgeEnds, n)
	issuePair, edgePair = make([]int32, len(issueEnds)), make([]int32, len(edgeEnds))
	mark := make([]int32, n)
	for _, s := range [][]int32{issuePair, edgePair, mark} {
		for i := range s {
			s[i] = -1
		}
	}
	for a := 0; a < n; a++ {
		mine := issueIdx[issueStart[a]:issueStart[a+1]]
		if len(mine) == 0 {
			continue
		}
		for _, k := range mine {
			b := issueEnds[k][1]
			if mark[b] < 0 {
				mark[b] = pairs
				pairs++
			}
			issuePair[k] = mark[b]
		}
		for _, i := range edgeIdx[edgeStart[a]:edgeStart[a+1]] {
			edgePair[i] = mark[edgeEnds[i][1]]
		}
		for _, k := range mine {
			mark[issueEnds[k][1]] = -1
		}
	}
	return issuePair, edgePair, pairs
}

// byFirst sorts the indexes of ends by first node, stably, leaving out
// negative ones: the indexes with first node a are idx[start[a]:start[a+1]].
// The counting runs one slot ahead, as Detector.missing's does.
func byFirst(ends [][2]int32, n int) (start, idx []int32) {
	start = make([]int32, n+2)
	for _, e := range ends {
		if e[0] >= 0 {
			start[e[0]+2]++
		}
	}
	for a := 2; a < len(start); a++ {
		start[a] += start[a-1]
	}
	idx = make([]int32, start[n+1])
	for i, e := range ends {
		if e[0] >= 0 {
			idx[start[e[0]+1]] = int32(i)
			start[e[0]+1]++
		}
	}
	return start[:n+1], idx
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
	// The links are tracked here, not asked of g, whose adjacency reads
	// rebuild its CSR after every added edge.
	linked := make(map[[2]graph.NodeID]bool, g.NumEdges()+nWrong)
	for _, e := range g.Edges() {
		linked[[2]graph.NodeID{e.From, e.To}] = true
	}
	for added := 0; added < nWrong; {
		rel := rels[rng.Intn(len(rels))]
		sig := graph.KGRelationTypes()[rel]
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))
		if from == to || linked[[2]graph.NodeID{from, to}] || !g.Directed() && linked[[2]graph.NodeID{to, from}] {
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
		linked[[2]graph.NodeID{from, to}] = true
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
