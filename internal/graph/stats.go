package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Stats summarizes the structural properties the report-generation APIs talk
// about: size, density, degree distribution, clustering, components.
type Stats struct {
	Nodes             int
	Edges             int
	Directed          bool
	Density           float64
	MinDegree         int
	MaxDegree         int
	MeanDegree        float64
	DegreeStdDev      float64
	Components        int
	LargestComponent  int
	ClusteringCoeff   float64 // global (transitivity-style average of local)
	Triangles         int
	LabelCounts       map[string]int
	ApproxDiameter    int // double-sweep lower bound on the largest component
	AssortativityHint string
}

// ComputeStats derives Stats from g. The result is memoized on the frozen
// CSR view, so repeated calls on an unmutated graph are O(1); any mutation
// (version bump) triggers a full recompute. The heavy pieces — triangle
// counting and the diameter sweep — run on the CSR with pooled scratch, on
// the caller's goroutine; triangle counting intersects adjacency bit rows
// where the graph is dense enough for them and merges sorted neighbour
// lists where it is not.
func ComputeStats(g *Graph) Stats {
	return g.Freeze().Stats()
}

// Stats returns the memoized statistics of the frozen graph. The returned
// LabelCounts map is a fresh copy each call, so callers may modify it.
func (c *CSR) Stats() Stats {
	c.memoStats()
	s := c.stats
	counts := make(map[string]int, len(s.LabelCounts))
	for k, v := range s.LabelCounts {
		counts[k] = v
	}
	s.LabelCounts = counts
	return s
}

// Describe returns Stats().Describe(), rendered once per frozen graph.
func (c *CSR) Describe() string {
	c.memoStats()
	return c.describe
}

func (c *CSR) memoStats() {
	c.statsOnce.Do(func() {
		c.stats = c.computeStats()
		c.describe = c.stats.Describe()
	})
}

func (c *CSR) computeStats() Stats {
	n, m := c.n, c.m
	s := Stats{Nodes: n, Edges: m, Directed: c.directed, LabelCounts: map[string]int{}}
	if n == 0 {
		return s
	}
	possible := float64(n) * float64(n-1)
	if !c.directed {
		possible /= 2
	}
	if possible > 0 {
		s.Density = float64(m) / possible
	}
	s.MinDegree = math.MaxInt
	var sum, sumSq float64
	for u := 0; u < n; u++ {
		d := c.OutDegree(NodeID(u))
		if c.directed {
			d += c.InDegree(NodeID(u))
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		sum += float64(d)
		sumSq += float64(d) * float64(d)
		s.LabelCounts[c.labels[u]]++
	}
	s.MeanDegree = sum / float64(n)
	variance := sumSq/float64(n) - s.MeanDegree*s.MeanDegree
	if variance > 0 {
		s.DegreeStdDev = math.Sqrt(variance)
	}
	comps := c.components()
	s.Components = len(comps)
	for _, comp := range comps {
		if len(comp) > s.LargestComponent {
			s.LargestComponent = len(comp)
		}
	}
	s.Triangles, s.ClusteringCoeff = c.countTriangles()
	s.ApproxDiameter = c.approxDiameter(comps)
	switch {
	case s.DegreeStdDev > 2*s.MeanDegree:
		s.AssortativityHint = "heavy-tailed degree distribution (hub-dominated)"
	case s.DegreeStdDev < 0.5*s.MeanDegree:
		s.AssortativityHint = "near-regular degree distribution"
	default:
		s.AssortativityHint = "moderate degree heterogeneity"
	}
	return s
}

// countTriangles returns the triangle count and average local clustering
// coefficient over nodes with (distinct) degree ≥ 2, treating edges as
// undirected and ignoring parallel duplicates — the same set semantics as
// the map-based implementation this replaced.
func (c *CSR) countTriangles() (int, float64) {
	return c.triangleStats(bitRowsPay(c.n, len(c.utargets)))
}

// triangleStats counts, per node u, the closed wedges at u — adjacent pairs
// {v, w} ⊂ N(u) — as half the sum over neighbours v of |N(u) ∩ N(v)|, then
// folds the per-node counts in ID order. With bit rows an intersection is a
// popcount of row[u] & row[v], a few words per edge; without them it
// merge-intersects the sorted neighbour lists. Both fill the same integers,
// so the results are equal bit for bit (TestTrianglesParity).
func (c *CSR) triangleStats(bitRows bool) (int, float64) {
	n := c.n
	if n == 0 {
		return 0, 0
	}
	closed := make([]int64, n)
	distinct := make([]int32, n)
	var rows []uint64
	var words int
	if bitRows {
		sc := getTrav(n)
		defer putTrav(sc)
		sc.rows, words = fillBitRows(sc.rows, n, c.uoffsets, c.utargets)
		rows = sc.rows
	}
	wedges := func(ui int) {
		u := NodeID(ui)
		nu := c.UndirectedNeighbors(u)
		// Distinct degree (rows are sorted; duplicates are adjacent).
		var d int32
		var pairSum int64
		prev := NodeID(-1)
		for _, v := range nu {
			if v == prev {
				continue
			}
			prev = v
			d++
			if words == 0 {
				pairSum += int64(sortedIntersectionSize(nu, c.UndirectedNeighbors(v)))
				continue
			}
			rv := rows[int(v)*words:][:words]
			for w, x := range rows[ui*words:][:words] {
				pairSum += int64(bits.OnesCount64(x & rv[w]))
			}
		}
		distinct[ui] = d
		// Each unordered adjacent pair {v,w} ⊂ N(u) was counted once from v
		// and once from w.
		closed[ui] = pairSum / 2
	}
	for u := 0; u < n; u++ {
		wedges(u)
	}
	var triTotal int64
	var ccSum float64
	ccCount := 0
	for i := 0; i < n; i++ {
		d := float64(distinct[i])
		if distinct[i] < 2 {
			continue
		}
		triTotal += closed[i]
		ccSum += float64(closed[i]) / (d * (d - 1) / 2)
		ccCount++
	}
	cc := 0.0
	if ccCount > 0 {
		cc = ccSum / float64(ccCount)
	}
	return int(triTotal / 3), cc
}

// sortedIntersectionSize counts the distinct values present in both sorted
// slices, skipping duplicate runs in each.
func sortedIntersectionSize(a, b []NodeID) int {
	i, j, count := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			count++
			for i < len(a) && a[i] == av {
				i++
			}
			for j < len(b) && b[j] == bv {
				j++
			}
		}
	}
	return count
}

// approxDiameter runs a double BFS sweep on the largest component: BFS from
// an arbitrary node finds the farthest node x; BFS from x finds a lower bound
// on the diameter that is exact on trees and close in practice.
func (c *CSR) approxDiameter(comps [][]NodeID) int {
	var largest []NodeID
	for _, comp := range comps {
		if len(comp) > len(largest) {
			largest = comp
		}
	}
	if len(largest) == 0 {
		return 0
	}
	sc := getTrav(c.n)
	defer putTrav(sc)
	x, _ := c.farthest(int32(largest[0]), sc)
	_, d := c.farthest(int32(x), sc)
	return int(d)
}

// Describe renders the stats as the bullet lines report APIs embed in chat
// answers.
func (s Stats) Describe() string {
	var b strings.Builder
	kind := "undirected"
	if s.Directed {
		kind = "directed"
	}
	fmt.Fprintf(&b, "- %d nodes, %d edges (%s), density %.4f\n", s.Nodes, s.Edges, kind, s.Density)
	fmt.Fprintf(&b, "- degree: min %d, mean %.2f (σ %.2f), max %d; %s\n",
		s.MinDegree, s.MeanDegree, s.DegreeStdDev, s.MaxDegree, s.AssortativityHint)
	fmt.Fprintf(&b, "- %d connected component(s); largest has %d nodes; approx diameter %d\n",
		s.Components, s.LargestComponent, s.ApproxDiameter)
	fmt.Fprintf(&b, "- %d triangles, clustering coefficient %.3f\n", s.Triangles, s.ClusteringCoeff)
	if len(s.LabelCounts) > 0 && len(s.LabelCounts) <= 12 {
		keys := make([]string, 0, len(s.LabelCounts))
		for k := range s.LabelCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			name := k
			if name == "" {
				name = "(unlabeled)"
			}
			parts = append(parts, fmt.Sprintf("%s×%d", name, s.LabelCounts[k]))
		}
		fmt.Fprintf(&b, "- node labels: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// Kind is the coarse graph category ChatGraph routes on: social graphs get
// social APIs, molecules get chemistry APIs, knowledge graphs get cleaning
// and inference APIs.
type Kind int

const (
	KindUnknown Kind = iota
	KindSocial
	KindMolecule
	KindKnowledge
)

// String returns the lowercase category name.
func (k Kind) String() string {
	switch k {
	case KindSocial:
		return "social"
	case KindMolecule:
		return "molecule"
	case KindKnowledge:
		return "knowledge"
	default:
		return "unknown"
	}
}

// ParseKind inverts String; unrecognized names (including the empty string)
// are KindUnknown.
func ParseKind(s string) Kind {
	switch s {
	case "social":
		return KindSocial
	case "molecule":
		return KindMolecule
	case "knowledge":
		return KindKnowledge
	default:
		return KindUnknown
	}
}

// Classify predicts the graph category from cheap structural and label
// signals. This implements the paper's "ChatGraph first predicts the type of
// G" step (§IV-1). It is one scan of the node and edge slabs, memoized per
// graph version beside the content hash, so classifying a graph builds no
// CSR.
func Classify(g *Graph) Kind {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if !g.kindValid || g.kindVersion != g.version {
		g.kind, g.kindVersion, g.kindValid = g.classify(), g.version, true
	}
	return g.kind
}

func (g *Graph) classify() Kind {
	n, m := len(g.nodes), len(g.edges)
	if n == 0 {
		return KindUnknown
	}
	elementish, typed, relLabeled := 0, 0, 0
	for i := range g.nodes {
		nd := &g.nodes[i]
		if isElementSymbol(nd.Label) || nd.Attrs["element"] != "" {
			elementish++
		}
		if t := nd.Attrs["type"]; t == "person" || t == "place" || t == "org" {
			typed++
		}
	}
	for i := range g.edges {
		if l := g.edges[i].Label; l != "" && l != "bond" {
			relLabeled++
		}
	}
	switch {
	case elementish*2 >= n:
		return KindMolecule
	// An edgeless graph has no relations to speak of: relLabeled*2 >= m
	// alone would call every edgeless directed graph a knowledge graph.
	case g.directed && (m > 0 && relLabeled*2 >= m || typed*2 >= n):
		return KindKnowledge
	case typed*2 >= n:
		return KindKnowledge
	default:
		return KindSocial
	}
}

var elementSymbols = map[string]bool{
	"H": true, "C": true, "N": true, "O": true, "S": true, "P": true,
	"F": true, "Cl": true, "Br": true, "I": true, "B": true, "Si": true,
}

func isElementSymbol(s string) bool { return elementSymbols[s] }
