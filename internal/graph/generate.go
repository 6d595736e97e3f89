package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// The generators below produce the synthetic workloads the demonstration
// scenarios run on: social networks with planted communities (scenario 1),
// molecule-like graphs (scenarios 1–2), and knowledge graphs (scenario 3).
// All take an explicit *rand.Rand so experiments are reproducible.

// ErdosRenyi returns G(n, p): each unordered pair joined independently with
// probability p. No scenario runs on it; it is the random fixture of the
// internal/seq property and parity tests (TestQuickPathsAreWalks,
// TestSuperGraphPartitionParity) and of this package's own.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	g := New()
	g.Name = fmt.Sprintf("er_%d", n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j)) //nolint:errcheck // endpoints valid by construction
			}
		}
	}
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: each new node
// attaches to m existing nodes chosen proportionally to degree. The result
// has the heavy-tailed degree distribution typical of social networks.
func BarabasiAlbert(n, m int, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	g := New()
	g.Name = fmt.Sprintf("ba_%d_%d", n, m)
	// Seed clique of m+1 nodes.
	seed := m + 1
	if seed > n {
		seed = n
	}
	for i := 0; i < seed; i++ {
		g.AddNode(fmt.Sprintf("u%d", i))
	}
	var stubs []NodeID // one entry per edge endpoint, sampling ∝ degree
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			g.AddEdge(NodeID(i), NodeID(j)) //nolint:errcheck
			stubs = append(stubs, NodeID(i), NodeID(j))
		}
	}
	for i := seed; i < n; i++ {
		u := g.AddNode(fmt.Sprintf("u%d", i))
		// Targets in draw order, so one seed builds one graph: they extend
		// stubs, which every later node samples from.
		targets := make([]NodeID, 0, m)
		for len(targets) < m {
			var t NodeID
			if len(stubs) == 0 || rng.Float64() < 0.05 {
				t = NodeID(rng.Intn(int(u)))
			} else {
				t = stubs[rng.Intn(len(stubs))]
			}
			if t != u && !slices.Contains(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			g.AddEdge(u, t) //nolint:errcheck
			stubs = append(stubs, u, t)
		}
	}
	return g
}

// PlantedCommunities returns a social-style graph of k communities of size
// csize with intra-community edge probability pin and inter probability pout.
// Node attrs record the planted community for evaluation.
func PlantedCommunities(k, csize int, pin, pout float64, rng *rand.Rand) *Graph {
	g := New()
	g.Name = fmt.Sprintf("sbm_%dx%d", k, csize)
	n := k * csize
	for i := 0; i < n; i++ {
		id := g.AddNode(fmt.Sprintf("p%d", i))
		g.SetNodeAttr(id, "community", fmt.Sprintf("%d", i/csize))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pout
			if i/csize == j/csize {
				p = pin
			}
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j)) //nolint:errcheck
			}
		}
	}
	return g
}

// atomSpec weights the atoms that appear in generated molecules roughly like
// organic chemistry: mostly carbon with scattered heteroatoms.
var atomSpec = []struct {
	symbol  string
	valence int
	weight  int
}{
	{"C", 4, 70},
	{"N", 3, 10},
	{"O", 2, 12},
	{"S", 2, 4},
	{"Cl", 1, 2},
	{"F", 1, 2},
}

// Molecule returns a connected molecule-like graph with nAtoms atoms: a
// random spanning tree respecting valences, plus extra ring-closing bonds.
// Node labels are element symbols; the "element" attr duplicates the label so
// relabeling (graph cleaning) cannot destroy chemistry information.
func Molecule(nAtoms int, rng *rand.Rand) *Graph {
	if nAtoms < 1 {
		nAtoms = 1
	}
	g := New()
	g.Name = fmt.Sprintf("mol_%d", nAtoms)
	total := 0
	for _, a := range atomSpec {
		total += a.weight
	}
	pick := func() (string, int) {
		r := rng.Intn(total)
		for _, a := range atomSpec {
			if r < a.weight {
				return a.symbol, a.valence
			}
			r -= a.weight
		}
		return "C", 4
	}
	valLeft := make([]int, nAtoms)
	for i := 0; i < nAtoms; i++ {
		sym, val := pick()
		id := g.AddNode(sym)
		g.SetNodeAttr(id, "element", sym)
		valLeft[i] = val
	}
	// Spanning tree: attach node i to a random earlier node with free valence.
	for i := 1; i < nAtoms; i++ {
		cands := make([]int, 0, i)
		for j := 0; j < i; j++ {
			if valLeft[j] > 0 {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			// All saturated (possible with many halogens); bond to previous
			// anyway so the molecule stays connected.
			cands = append(cands, i-1)
		}
		j := cands[rng.Intn(len(cands))]
		g.AddEdgeLabeled(NodeID(j), NodeID(i), "bond", 1) //nolint:errcheck
		valLeft[j]--
		valLeft[i]--
	}
	// Ring closures: about one ring per 6 atoms, never doubling a bond. The
	// bonds are tracked here, not asked of g, whose adjacency reads rebuild
	// its CSR after every added edge.
	bonded := make(map[[2]NodeID]bool, nAtoms+nAtoms/6)
	for _, e := range g.Edges() {
		bonded[[2]NodeID{min(e.From, e.To), max(e.From, e.To)}] = true
	}
	rings := nAtoms / 6
	for r := 0; r < rings; r++ {
		i, j := rng.Intn(nAtoms), rng.Intn(nAtoms)
		bond := [2]NodeID{NodeID(min(i, j)), NodeID(max(i, j))}
		if i == j || valLeft[i] <= 0 || valLeft[j] <= 0 || bonded[bond] {
			continue
		}
		g.AddEdgeLabeled(NodeID(i), NodeID(j), "bond", 1) //nolint:errcheck
		bonded[bond] = true
		valLeft[i]--
		valLeft[j]--
	}
	return g
}

// kgRelations are the relation vocabulary for generated knowledge graphs.
// Some are symmetric, some transitive; the inference rules in internal/kg
// exploit exactly these properties.
var kgRelations = []string{"born_in", "located_in", "works_for", "spouse_of", "part_of", "capital_of", "member_of"}

// KnowledgeGraph returns a directed graph of nEntities entities joined by
// nTriples labeled relations drawn from a fixed vocabulary. Entities get
// type attrs (person/place/org) so relations are type-plausible, which the
// cleaning APIs rely on to spot implausible (injected) edges.
func KnowledgeGraph(nEntities, nTriples int, rng *rand.Rand) *Graph {
	g := NewDirected()
	g.Name = fmt.Sprintf("kg_%d", nEntities)
	types := []string{"person", "place", "org"}
	for i := 0; i < nEntities; i++ {
		t := types[rng.Intn(len(types))]
		id := g.AddNode(fmt.Sprintf("%s_%d", t, i))
		g.SetNodeAttr(id, "type", t)
	}
	// plausible maps relation → (subject type, object type).
	plausible := map[string][2]string{
		"born_in":    {"person", "place"},
		"located_in": {"place", "place"},
		"works_for":  {"person", "org"},
		"spouse_of":  {"person", "person"},
		"part_of":    {"org", "org"},
		"capital_of": {"place", "place"},
		"member_of":  {"person", "org"},
	}
	byType := make(map[string][]NodeID)
	for _, n := range g.Nodes() {
		byType[n.Attrs["type"]] = append(byType[n.Attrs["type"]], n.ID)
	}
	// At most one relation per ordered entity pair; the pairs are tracked
	// here, not asked of g (see Molecule).
	linked := make(map[[2]NodeID]bool, nTriples)
	added := 0
	for tries := 0; added < nTriples && tries < nTriples*20; tries++ {
		rel := kgRelations[rng.Intn(len(kgRelations))]
		sig := plausible[rel]
		subjs, objs := byType[sig[0]], byType[sig[1]]
		if len(subjs) == 0 || len(objs) == 0 {
			continue
		}
		s := subjs[rng.Intn(len(subjs))]
		o := objs[rng.Intn(len(objs))]
		if s == o || linked[[2]NodeID{s, o}] {
			continue
		}
		if err := g.AddEdgeLabeled(s, o, rel, 1); err == nil {
			linked[[2]NodeID{s, o}] = true
			added++
		}
	}
	return g
}

// KGRelationTypes exposes the (subject type, object type) signature of each
// generated relation so the cleaning module can validate edges.
func KGRelationTypes() map[string][2]string {
	return map[string][2]string{
		"born_in":    {"person", "place"},
		"located_in": {"place", "place"},
		"works_for":  {"person", "org"},
		"spouse_of":  {"person", "person"},
		"part_of":    {"org", "org"},
		"capital_of": {"place", "place"},
		"member_of":  {"person", "org"},
	}
}
