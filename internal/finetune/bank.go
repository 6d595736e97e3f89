package finetune

import "chatgraph/internal/graph"

// UnseenAPIQuestion asks for one API that no template's chain contains, so
// the model was never trained to produce it.
type UnseenAPIQuestion struct {
	Question string
	// Kind is the graph kind the question is asked about.
	Kind graph.Kind
	// API is the registry name the question asks for.
	API string
}

// UnseenAPIQuestions is the untrained-API bank: one question for each
// registered API the templates never use, similarity.store excepted (it
// writes to the shared molecule database, so asking it would change what
// later questions see). Questions that need node or molecule ids name them.
func UnseenAPIQuestions() []UnseenAPIQuestion {
	s, m, k := graph.KindSocial, graph.KindMolecule, graph.KindKnowledge
	return []UnseenAPIQuestion{
		{"Mine the logical rules that hold in this knowledge graph", k, "kg.mine_rules"},
		{"Add an edge between node 1 and node 2", s, "graph.add_edge"},
		{"Remove the edge from node 0 to node 2", s, "graph.remove_edge"},
		{"Rename node 3 of the knowledge graph", k, "graph.relabel_node"},
		{"How structurally similar is G to stored molecule 4", m, "similarity.kernel"},
		{"Compare the statistics of G with stored molecule 2 side by side", m, "compare.stats"},
		{"What is the k-core decomposition of this network", s, "structure.kcore"},
		{"Which cliques exist in this graph", s, "structure.cliques"},
		{"Do hubs connect to other hubs in this network", s, "structure.assortativity"},
		{"Find the cheapest weighted route from node 0 to node 5", s, "path.weighted"},
		{"Which nodes are at the center of the graph", s, "structure.center"},
		{"How many colors does it take to color this graph", s, "structure.coloring"},
		{"Build a minimum spanning tree of the graph", s, "structure.spanning_tree"},
		{"What functional groups does the molecule contain", m, "molecule.substructure"},
		{"What is the logP of this compound", m, "molecule.logp"},
		{"How many rings does this molecule have", m, "molecule.rings"},
		{"Which edges would disconnect the network if removed", s, "connectivity.bridges"},
		{"Which nodes broker the most shortest paths", s, "centrality.betweenness"},
		{"Which nodes can reach everyone else the quickest", s, "centrality.closeness"},
		{"What is the shortest path between node 0 and node 7", s, "path.shortest"},
		{"How dense is this graph", s, "structure.density"},
		{"How many triangles are in the network", s, "structure.triangles"},
		{"Show me the neighborhood around node 2", s, "graph.sample_neighborhood"},
	}
}
