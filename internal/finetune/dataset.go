// Package finetune implements the paper's API chain-oriented finetuning
// (§II-C): preparing a dataset of (question, ground-truth API chain) pairs,
// training a chain-generation model with the node-matching-based loss, and
// the search-based prediction procedure with random rollouts.
//
// The paper's dataset came from logging students solving chemistry questions
// by manually invoking APIs. That source is unavailable, so GenerateDataset
// simulates the same pipeline: task templates describe what a user wants and
// which API chains solve it (often several equivalent chains); synthetic
// "action logs" are sampled from the templates with paraphrased questions,
// and examples are extracted from the logs exactly as the paper extracts
// chains from its logs.
package finetune

import (
	"math/rand"

	"chatgraph/internal/chain"
	"chatgraph/internal/graph"
)

// Example is one finetuning pair: a natural-language question with the
// equivalent ground-truth chains that answer it.
type Example struct {
	// Question is the user's natural-language request.
	Question string
	// Kind is the graph kind the question is about.
	Kind graph.Kind
	// Truths are the equivalent ground-truth chains (≥ 1).
	Truths []chain.Chain
	// Task names the generating template, for stratified evaluation.
	Task string
}

// taskTemplate is one question family with paraphrases and its equivalent
// solution chains.
type taskTemplate struct {
	task        string
	kind        graph.Kind
	paraphrases []string
	truths      []chain.Chain
}

// templates covers the four demonstration scenarios plus common single-API
// questions. Multiple truths encode the paper's "several API chains may be
// equivalent" property.
func templates() []taskTemplate {
	return []taskTemplate{
		{
			task: "social_report", kind: graph.KindSocial,
			paraphrases: []string{
				"Write a brief report for G",
				"Summarize this social network for me",
				"Give me an overview report of the graph",
				"Describe the structure of this network in a short report",
				"Generate a report about my social graph",
			},
			truths: []chain.Chain{
				{chain.NewStep("graph.classify"), chain.NewStep("graph.stats"), chain.NewStep("community.detect"), chain.NewStep("report.compose")},
				{chain.NewStep("graph.classify"), chain.NewStep("community.detect"), chain.NewStep("connectivity.components"), chain.NewStep("report.compose")},
			},
		},
		{
			task: "molecule_report", kind: graph.KindMolecule,
			paraphrases: []string{
				"Write a brief report for this molecule",
				"Describe the chemical properties of G",
				"Give me a chemistry report for the uploaded molecule",
				"What are the properties of this compound",
				"Analyze this molecule and write a summary",
			},
			truths: []chain.Chain{
				{chain.NewStep("graph.classify"), chain.NewStep("molecule.formula"), chain.NewStep("molecule.toxicity"), chain.NewStep("report.compose")},
				{chain.NewStep("graph.classify"), chain.NewStep("molecule.formula"), chain.NewStep("molecule.solubility"), chain.NewStep("report.compose")},
			},
		},
		{
			task: "similarity", kind: graph.KindMolecule,
			paraphrases: []string{
				"What molecules are similar to G",
				"Find compounds that look like this molecule",
				"Search the database for similar molecules",
				"Which stored molecules resemble the uploaded graph",
				"Show me the two most similar molecules",
			},
			truths: []chain.Chain{
				{chain.NewStep("graph.classify"), chain.NewStep("similarity.search", "top", "2")},
			},
		},
		{
			task: "cleaning", kind: graph.KindKnowledge,
			paraphrases: []string{
				"Clean G",
				"Remove the noise from this knowledge graph",
				"Fix the incorrect edges and fill the missing ones",
				"Detect and repair errors in my knowledge graph",
				"Clean up the wrong triples in the graph",
			},
			truths: []chain.Chain{
				{chain.NewStep("graph.classify"), chain.NewStep("kg.detect_all"), chain.NewStep("graph.apply_edits")},
				{chain.NewStep("graph.classify"), chain.NewStep("kg.detect_incorrect"), chain.NewStep("graph.apply_edits")},
			},
		},
		{
			task: "communities", kind: graph.KindSocial,
			paraphrases: []string{
				"What communities are in this network",
				"Detect the clusters of the social graph",
				"Find the community structure",
				"How many groups does this network have",
			},
			truths: []chain.Chain{
				{chain.NewStep("community.detect")},
			},
		},
		{
			task: "influencers", kind: graph.KindSocial,
			paraphrases: []string{
				"Who are the most influential nodes",
				"Rank the important people in the network",
				"Which nodes are the biggest hubs",
				"Find the key influencers of this graph",
			},
			truths: []chain.Chain{
				{chain.NewStep("centrality.pagerank")},
				{chain.NewStep("centrality.degree")},
			},
		},
		{
			task: "connectivity", kind: graph.KindSocial,
			paraphrases: []string{
				"Is the network connected",
				"How many connected components are there",
				"Check the connectivity of the graph",
			},
			truths: []chain.Chain{
				{chain.NewStep("connectivity.components")},
			},
		},
		{
			task: "toxicity", kind: graph.KindMolecule,
			paraphrases: []string{
				"Is this molecule toxic",
				"Predict the toxicity of the compound",
				"How dangerous is this chemical",
			},
			truths: []chain.Chain{
				{chain.NewStep("molecule.toxicity")},
			},
		},
		{
			task: "solubility", kind: graph.KindMolecule,
			paraphrases: []string{
				"Is this molecule soluble in water",
				"Predict the solubility of the compound",
				"How well does this chemical dissolve",
			},
			truths: []chain.Chain{
				{chain.NewStep("molecule.solubility")},
			},
		},
		{
			task: "missing_edges", kind: graph.KindKnowledge,
			paraphrases: []string{
				"What edges are missing from the knowledge graph",
				"Infer new facts from the existing triples",
				"Complete the knowledge graph with inferred edges",
			},
			truths: []chain.Chain{
				{chain.NewStep("kg.detect_missing")},
			},
		},
	}
}

// GenerateDataset simulates n logged user sessions and extracts one Example
// per session. Sampling is uniform over templates and paraphrases; the same
// question can appear with different (equivalent) logged chains, exactly the
// ambiguity the node-matching loss is built for.
func GenerateDataset(n int, rng *rand.Rand) []Example {
	ts := templates()
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		t := ts[rng.Intn(len(ts))]
		q := t.paraphrases[rng.Intn(len(t.paraphrases))]
		out = append(out, Example{Question: q, Kind: t.kind, Truths: t.truths, Task: t.task})
	}
	return out
}

// SplitDataset partitions examples into train and test by paraphrase parity
// per task, so test questions are phrasings never seen in training. frac is
// the approximate test fraction.
func SplitDataset(examples []Example, frac float64, rng *rand.Rand) (train, test []Example) {
	for _, ex := range examples {
		if rng.Float64() < frac {
			test = append(test, ex)
		} else {
			train = append(train, ex)
		}
	}
	return train, test
}
