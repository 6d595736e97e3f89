package apis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"chatgraph/internal/graph"
)

// registerUnderstand adds the social/structural analysis APIs used by the
// chat-based graph understanding scenario (Fig. 4).
func registerUnderstand(r *Registry, _ *Env) {
	r.mustRegister(API{
		Name:        "community.detect",
		Memoizable:  true,
		Description: "Detect communities and clusters in a social network using label propagation and report their sizes and modularity.",
		Category:    "understand",
		Params: []Param{
			{Name: "max_iters", Description: "maximum propagation rounds", Kind: "int", Default: "20"},
		},
		Fn: func(in Input) (Output, error) {
			rounds := in.IntArg("max_iters", 20)
			if rounds < 1 {
				return Output{}, fmt.Errorf("community.detect: max_iters must be at least 1, got %d", rounds)
			}
			comms := LabelPropagation(in.Graph, rounds)
			q := Modularity(in.Graph, comms)
			sizes := communitySizes(comms)
			text := fmt.Sprintf("Found %d communities (modularity %.3f). Sizes: %s.",
				len(sizes), q, joinInts(sizes, 8))
			return Output{Text: text, Data: comms}, nil
		},
	})
	r.mustRegister(API{
		Name:        "connectivity.components",
		Memoizable:  true,
		Description: "Compute the connected components of the graph and report their count and sizes.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			comps := in.Graph.ConnectedComponents()
			sizes := make([]int, len(comps))
			for i, c := range comps {
				sizes[i] = len(c)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
			return Output{
				Text: fmt.Sprintf("The graph has %d connected component(s). Sizes: %s.", len(comps), joinInts(sizes, 8)),
				Data: comps,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "connectivity.bridges",
		Memoizable:  true,
		Description: "Find bridge edges and articulation points whose removal disconnects the network.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			bridges, arts := BridgesAndArticulation(in.Graph)
			return Output{
				Text: fmt.Sprintf("Found %d bridge edge(s) and %d articulation point(s).", len(bridges), len(arts)),
				Data: map[string]any{"bridges": bridges, "articulation": arts},
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "centrality.degree",
		Memoizable:  true,
		Description: "Rank the most connected nodes by degree centrality to find hubs.",
		Category:    "understand",
		Params: []Param{
			{Name: "top", Description: "how many nodes to report", Kind: "int", Default: "5"},
		},
		Fn: func(in Input) (Output, error) {
			scores := make([]float64, in.Graph.NumNodes())
			c := in.Graph.Freeze()
			for _, n := range in.Graph.Nodes() {
				scores[n.ID] = float64(c.OutDegree(n.ID))
			}
			return rankOutput(in.Graph, scores, in.IntArg("top", 5), "degree"), nil
		},
	})
	r.mustRegister(API{
		Name:        "centrality.pagerank",
		Memoizable:  true,
		Description: "Rank influential nodes using PageRank centrality.",
		Category:    "understand",
		Params: []Param{
			{Name: "top", Description: "how many nodes to report", Kind: "int", Default: "5"},
			{Name: "damping", Description: "damping factor", Kind: "float", Default: "0.85"},
		},
		Fn: func(in Input) (Output, error) {
			damping := in.FloatArg("damping", 0.85)
			// Negated so that NaN, which ParseFloat accepts, is refused too.
			if !(damping > 0 && damping < 1) {
				return Output{}, fmt.Errorf("centrality.pagerank: damping %v outside (0, 1)", damping)
			}
			scores := PageRank(in.Graph, damping, 50)
			return rankOutput(in.Graph, scores, in.IntArg("top", 5), "pagerank"), nil
		},
	})
	r.mustRegister(API{
		Name:        "centrality.betweenness",
		Memoizable:  true,
		Description: "Rank broker nodes that lie on many shortest paths using betweenness centrality.",
		Category:    "understand",
		Params: []Param{
			{Name: "top", Description: "how many nodes to report", Kind: "int", Default: "5"},
		},
		Fn: func(in Input) (Output, error) {
			scores := Betweenness(in.Graph)
			return rankOutput(in.Graph, scores, in.IntArg("top", 5), "betweenness"), nil
		},
	})
	r.mustRegister(API{
		Name:        "centrality.closeness",
		Memoizable:  true,
		Description: "Rank central nodes that can reach everyone quickly using closeness centrality.",
		Category:    "understand",
		Params: []Param{
			{Name: "top", Description: "how many nodes to report", Kind: "int", Default: "5"},
		},
		Fn: func(in Input) (Output, error) {
			scores := Closeness(in.Graph)
			return rankOutput(in.Graph, scores, in.IntArg("top", 5), "closeness"), nil
		},
	})
	r.mustRegister(API{
		Name:        "path.shortest",
		Memoizable:  true,
		Description: "Compute the shortest path between two nodes of the graph.",
		Category:    "understand",
		Params: []Param{
			{Name: "from", Description: "source node id", Required: true, Kind: "int"},
			{Name: "to", Description: "target node id", Required: true, Kind: "int"},
		},
		Fn: func(in Input) (Output, error) {
			from := graph.NodeID(in.IntArg("from", 0))
			to := graph.NodeID(in.IntArg("to", 0))
			n := graph.NodeID(in.Graph.NumNodes())
			if from >= n || to >= n || from < 0 || to < 0 {
				return Output{}, fmt.Errorf("path.shortest: node out of range (have %d nodes)", n)
			}
			path := ShortestPath(in.Graph, from, to)
			if path == nil {
				return Output{Text: fmt.Sprintf("No path exists between node %d and node %d.", from, to), Data: []graph.NodeID(nil)}, nil
			}
			parts := make([]string, len(path))
			for i, id := range path {
				parts[i] = fmt.Sprintf("%d", id)
			}
			return Output{
				Text: fmt.Sprintf("Shortest path (%d hops): %s.", len(path)-1, strings.Join(parts, " -> ")),
				Data: path,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.density",
		Memoizable:  true,
		Description: "Measure how dense or sparse the graph is and summarize its degree distribution.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			s := graph.ComputeStats(in.Graph)
			return Output{
				Text: fmt.Sprintf("Density %.4f; degrees min %d / mean %.2f / max %d; %s.",
					s.Density, s.MinDegree, s.MeanDegree, s.MaxDegree, s.AssortativityHint),
				Data: s,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "structure.triangles",
		Memoizable:  true,
		Description: "Count triangles and measure the clustering coefficient of the network.",
		Category:    "understand",
		Fn: func(in Input) (Output, error) {
			s := graph.ComputeStats(in.Graph)
			return Output{
				Text: fmt.Sprintf("The graph contains %d triangles; average clustering coefficient %.3f.", s.Triangles, s.ClusteringCoeff),
				Data: map[string]any{"triangles": s.Triangles, "clustering": s.ClusteringCoeff},
			}, nil
		},
	})
}

// rankOutput formats a top-k node ranking.
func rankOutput(g *graph.Graph, scores []float64, top int, metric string) Output {
	type ranked struct {
		ID    graph.NodeID
		Score float64
	}
	rs := make([]ranked, len(scores))
	for i, s := range scores {
		rs[i] = ranked{graph.NodeID(i), s}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ID < rs[j].ID
	})
	if top <= 0 {
		top = 5
	}
	if top > len(rs) {
		top = len(rs)
	}
	parts := make([]string, top)
	for i := 0; i < top; i++ {
		label := g.Node(rs[i].ID).Label
		if label == "" {
			label = fmt.Sprintf("v%d", rs[i].ID)
		}
		parts[i] = fmt.Sprintf("%s (%.3f)", label, rs[i].Score)
	}
	return Output{
		Text: fmt.Sprintf("Top %d nodes by %s: %s.", top, metric, strings.Join(parts, ", ")),
		Data: scores,
	}
}

func communitySizes(comms []int) []int {
	counts := make(map[int]int)
	for _, c := range comms {
		counts[c]++
	}
	sizes := make([]int, 0, len(counts))
	for _, n := range counts {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

func joinInts(xs []int, max int) string {
	parts := make([]string, 0, max+1)
	for i, x := range xs {
		if i >= max {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, fmt.Sprintf("%d", x))
	}
	return strings.Join(parts, ", ")
}

// LabelPropagation assigns each node a community by iteratively adopting the
// most common label among its neighbors, for at most maxIters rounds.
// Deterministic: nodes update in ID order and ties break toward the smallest
// label.
//
// Neighbour labels are counted in one array indexed by label, and only the
// slots a node touched are reset after it, so a round allocates nothing; the
// same array then renumbers the labels.
func LabelPropagation(g *graph.Graph, maxIters int) []int {
	n := g.NumNodes()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	scratch := make([]int, 2*n)
	counts, touched := scratch[:n], scratch[n:n]
	c := g.Freeze()
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			for _, nb := range c.OutNeighbors(graph.NodeID(u)) {
				l := labels[nb]
				if counts[l] == 0 {
					touched = append(touched, l)
				}
				counts[l]++
			}
			if len(touched) == 0 {
				continue
			}
			best, bestCount := labels[u], counts[labels[u]]
			for _, l := range touched {
				if cnt := counts[l]; cnt > bestCount || cnt == bestCount && l < best {
					best, bestCount = l, cnt
				}
				counts[l] = 0
			}
			touched = touched[:0]
			if best != labels[u] {
				labels[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Renumber to dense community IDs in first-appearance order; counts is
	// all zeros again and holds each label's new ID plus one.
	next := 0
	for i, l := range labels {
		if counts[l] == 0 {
			next++
			counts[l] = next
		}
		labels[i] = counts[l] - 1
	}
	return labels
}

// Modularity computes the Newman modularity Q of a community assignment on
// an undirected view of g.
func Modularity(g *graph.Graph, comms []int) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	deg := make([]float64, g.NumNodes())
	for _, e := range g.Edges() {
		deg[e.From]++
		deg[e.To]++
	}
	var q float64
	for _, e := range g.Edges() {
		if comms[e.From] == comms[e.To] {
			q += 1
		}
	}
	q /= m
	sumDeg := make(map[int]float64)
	for i, c := range comms {
		sumDeg[c] += deg[i]
	}
	for _, d := range sumDeg {
		q -= (d / (2 * m)) * (d / (2 * m))
	}
	return q
}

// PageRank computes PageRank scores with the given damping over iters
// power iterations, treating the graph as undirected when it is undirected.
func PageRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	c := g.Freeze()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(n)
		var danglingMass float64
		for i := range next {
			next[i] = base
		}
		for u := 0; u < n; u++ {
			outs := c.OutNeighbors(graph.NodeID(u))
			if len(outs) == 0 {
				danglingMass += pr[u]
				continue
			}
			share := damping * pr[u] / float64(len(outs))
			for _, v := range outs {
				next[v] += share
			}
		}
		if danglingMass > 0 {
			spread := damping * danglingMass / float64(n)
			for i := range next {
				next[i] += spread
			}
		}
		delta := 0.0
		for i := range pr {
			delta += math.Abs(next[i] - pr[i])
		}
		pr, next = next, pr
		if delta < 1e-9 {
			break
		}
	}
	return pr
}

// Betweenness computes exact unweighted betweenness centrality with
// Brandes' algorithm on the undirected view of g.
func Betweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	c := g.Freeze()
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		// Single-source shortest paths with path counting.
		var stack []int
		preds := make([][]int, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range c.OutNeighbors(graph.NodeID(v)) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, int(w))
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	// Undirected: each pair counted twice.
	if !g.Directed() {
		for i := range bc {
			bc[i] /= 2
		}
	}
	return bc
}

// Closeness computes closeness centrality: (reachable−1) / Σ distances,
// scaled by the reachable fraction (the Wasserman–Faust formula), so
// disconnected graphs still rank sensibly.
func Closeness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		dist := g.ShortestPathLengths(graph.NodeID(u))
		sum, reach := 0, 0
		for _, d := range dist {
			if d > 0 {
				sum += d
				reach++
			}
		}
		if sum > 0 {
			out[u] = float64(reach) / float64(sum) * float64(reach) / float64(n-1)
		}
	}
	return out
}

// ShortestPath returns the node sequence of an unweighted shortest path from
// src to dst, or nil when unreachable.
func ShortestPath(g *graph.Graph, src, dst graph.NodeID) []graph.NodeID {
	if src == dst {
		return []graph.NodeID{src}
	}
	parent := make([]graph.NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	c := g.Freeze()
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range c.OutNeighbors(u) {
			if parent[v] >= 0 {
				continue
			}
			parent[v] = u
			if v == dst {
				var rev []graph.NodeID
				for cur := dst; cur != src; cur = parent[cur] {
					rev = append(rev, cur)
				}
				rev = append(rev, src)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// BridgesAndArticulation finds bridge edges and articulation points with
// Tarjan's low-link DFS over the undirected view of g.
func BridgesAndArticulation(g *graph.Graph) ([][2]graph.NodeID, []graph.NodeID) {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges [][2]graph.NodeID
	isArt := make([]bool, n)
	c := g.Freeze()
	timer := 0
	var dfs func(u, parent int)
	dfs = func(u, parent int) {
		disc[u] = timer
		low[u] = timer
		timer++
		children := 0
		parentSkipped := false
		for _, vID := range c.OutNeighbors(graph.NodeID(u)) {
			v := int(vID)
			if v == parent && !parentSkipped {
				parentSkipped = true // skip the tree edge once; parallel edges count
				continue
			}
			if disc[v] >= 0 {
				if disc[v] < low[u] {
					low[u] = disc[v]
				}
				continue
			}
			children++
			dfs(v, u)
			if low[v] < low[u] {
				low[u] = low[v]
			}
			if low[v] > disc[u] {
				bridges = append(bridges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
			}
			if parent >= 0 && low[v] >= disc[u] {
				isArt[u] = true
			}
		}
		if parent < 0 && children > 1 {
			isArt[u] = true
		}
	}
	for u := 0; u < n; u++ {
		if disc[u] < 0 {
			dfs(u, -1)
		}
	}
	var arts []graph.NodeID
	for i, a := range isArt {
		if a {
			arts = append(arts, graph.NodeID(i))
		}
	}
	return bridges, arts
}
