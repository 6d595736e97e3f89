package graph

// Subgraph isomorphism in the VF2 style: find an injective mapping from
// pattern nodes to host nodes that preserves labels (exact equality, with ""
// in the pattern a wildcard) and adjacency. Non-edges of the pattern need not
// be non-edges of the host image: plain subgraph matching (monomorphism),
// which is what substructure search wants. This is the primitive behind
// substructure search on molecules (the paper cites subgraph-isomorphism
// testing as a core graph-query operation) and is deliberately exact —
// patterns in chat workloads are small functional groups, not whole graphs.

// IsoOptions tunes the matcher.
type IsoOptions struct {
	// MaxMatches stops the search after this many matches (0 = 1).
	MaxMatches int
}

// SubgraphMatch is one mapping from pattern node IDs to host node IDs.
type SubgraphMatch []NodeID

// FindSubgraphIsomorphisms returns up to opts.MaxMatches injective
// adjacency- and label-preserving mappings of pattern into host.
func FindSubgraphIsomorphisms(pattern, host *Graph, opts IsoOptions) []SubgraphMatch {
	if pattern.NumNodes() == 0 || pattern.NumNodes() > host.NumNodes() {
		return nil
	}
	if opts.MaxMatches <= 0 {
		opts.MaxMatches = 1
	}
	st := &isoState{
		pattern: pattern,
		host:    host,
		patCSR:  pattern.Freeze(),
		hostCSR: host.Freeze(),
		max:     opts.MaxMatches,
		mapping: make([]NodeID, pattern.NumNodes()),
		used:    make([]bool, host.NumNodes()),
	}
	for i := range st.mapping {
		st.mapping[i] = -1
	}
	st.order = matchOrder(st.patCSR)
	st.hostAdj = adjacencyTest(st.hostCSR)
	st.search(0)
	return st.found
}

// isoState reads both graphs' forward adjacency (both directions for an
// undirected graph): a pattern edge pu→nb needs the host edge hv→img.
type isoState struct {
	pattern, host   *Graph
	patCSR, hostCSR *CSR
	hostAdj         func(u, v NodeID) bool
	max             int
	order           []NodeID
	mapping         []NodeID
	used            []bool
	found           []SubgraphMatch
}

// matchOrder visits pattern nodes in a connectivity-aware order: highest
// degree first, then neighbors of already-ordered nodes, which prunes the
// search tree much earlier than ID order.
func matchOrder(p *CSR) []NodeID {
	n := p.NumNodes()
	placed := make([]bool, n)
	var order []NodeID
	for len(order) < n {
		best := NodeID(-1)
		bestScore := -1
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			score := 0
			for _, nb := range p.OutNeighbors(NodeID(i)) {
				if placed[nb] {
					score += 1000 // strongly prefer extending the frontier
				}
			}
			score += p.OutDegree(NodeID(i))
			if score > bestScore {
				best, bestScore = NodeID(i), score
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order
}

func (st *isoState) search(depth int) bool {
	if len(st.found) >= st.max {
		return true
	}
	if depth == len(st.order) {
		m := make(SubgraphMatch, len(st.mapping))
		copy(m, st.mapping)
		st.found = append(st.found, m)
		return len(st.found) >= st.max
	}
	pu := st.order[depth]
	for _, cand := range st.candidates(pu) {
		if st.feasible(pu, cand) {
			st.mapping[pu] = cand
			st.used[cand] = true
			if st.search(depth + 1) {
				return true
			}
			st.mapping[pu] = -1
			st.used[cand] = false
		}
	}
	return false
}

// candidates returns host nodes worth trying for pattern node pu: if pu has
// an already-mapped pattern neighbor, only unused host neighbors of the
// lowest such neighbor's image qualify, ascending; otherwise every unused
// host node does.
func (st *isoState) candidates(pu NodeID) []NodeID {
	for _, nb := range st.patCSR.OutNeighbors(pu) {
		if img := st.mapping[nb]; img >= 0 {
			var out []NodeID
			prev := NodeID(-1)
			for _, h := range st.hostCSR.OutNeighbors(img) {
				if h != prev && !st.used[h] {
					out = append(out, h)
				}
				prev = h
			}
			return out
		}
	}
	out := make([]NodeID, 0, st.host.NumNodes())
	for h := 0; h < st.host.NumNodes(); h++ {
		if !st.used[h] {
			out = append(out, NodeID(h))
		}
	}
	return out
}

// feasible checks label compatibility and adjacency consistency of mapping
// pu → hv given the current partial mapping.
func (st *isoState) feasible(pu, hv NodeID) bool {
	if p := st.pattern.Node(pu).Label; p != "" && p != st.host.Node(hv).Label {
		return false
	}
	if st.patCSR.OutDegree(pu) > st.hostCSR.OutDegree(hv) {
		return false
	}
	for _, nb := range st.patCSR.OutNeighbors(pu) {
		if img := st.mapping[nb]; img >= 0 && !st.hostAdj(hv, img) {
			return false
		}
	}
	return true
}
