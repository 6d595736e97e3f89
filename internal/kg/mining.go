package kg

import (
	"fmt"
	"sort"

	"chatgraph/internal/graph"
)

// Rule mining: instead of relying on the hand-written DefaultRules, ChatGraph
// can learn which symmetry/transitivity/composition rules actually hold in a
// given knowledge graph by counting support (how often the rule body occurs)
// and confidence (how often the head is also present). Mined rules feed the
// same Detector, so cleaning adapts to the graph at hand.

// MinedRule is a Rule plus its evidence.
type MinedRule struct {
	Rule
	// Support is the number of body instances observed.
	Support int
	// Confidence is head-present / body-instances in [0, 1].
	Confidence float64
}

// String renders the rule with its evidence for chat output.
func (m MinedRule) String() string {
	return fmt.Sprintf("%s [support %d, confidence %.2f]", m.describe(), m.Support, m.Confidence)
}

func (m MinedRule) describe() string {
	switch m.Kind {
	case "symmetric":
		return fmt.Sprintf("%s(x,y) => %s(y,x)", m.Rel, m.Rel)
	case "transitive":
		return fmt.Sprintf("%s(x,y) & %s(y,z) => %s(x,z)", m.Rel, m.Rel, m.Rel)
	case "composition":
		return fmt.Sprintf("%s(x,y) & %s(y,z) => %s(x,z)", m.Body1, m.Body2, m.Head)
	default:
		return m.Name
	}
}

// MineConfig bounds the mining.
type MineConfig struct {
	// MinSupport is the minimum body instances (0 → 3).
	MinSupport int
	// MinConfidence is the minimum confidence (0 → 0.6).
	MinConfidence float64
}

func (c *MineConfig) setDefaults() {
	if c.MinSupport <= 0 {
		c.MinSupport = 3
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.6
	}
}

// MineRules scans g for symmetric, transitive, and pairwise-composition
// rules meeting the support/confidence thresholds, strongest first.
func MineRules(g *graph.Graph, cfg MineConfig) []MinedRule {
	cfg.setDefaults()
	byRel := make(map[string]map[graph.NodeID][]graph.NodeID)
	has := make(map[string]bool)
	var rels []string
	for _, e := range g.Edges() {
		if byRel[e.Label] == nil {
			byRel[e.Label] = make(map[graph.NodeID][]graph.NodeID)
			rels = append(rels, e.Label)
		}
		byRel[e.Label][e.From] = append(byRel[e.Label][e.From], e.To)
		has[tripleKey(e.From, e.Label, e.To)] = true
	}
	sort.Strings(rels)
	var out []MinedRule
	keep := func(r MinedRule) {
		if r.Support >= cfg.MinSupport && r.Confidence >= cfg.MinConfidence {
			out = append(out, r)
		}
	}
	// Symmetry: r(x,y) ⇒ r(y,x).
	for _, rel := range rels {
		support, hits := 0, 0
		for x, ys := range byRel[rel] {
			for _, y := range ys {
				support++
				if has[tripleKey(y, rel, x)] {
					hits++
				}
			}
		}
		if support > 0 {
			keep(MinedRule{
				Rule:    Rule{Name: rel + " symmetry", Kind: "symmetric", Rel: rel},
				Support: support, Confidence: float64(hits) / float64(support),
			})
		}
	}
	// Transitivity: r(x,y) ∧ r(y,z) ⇒ r(x,z).
	for _, rel := range rels {
		support, hits := 0, 0
		for x, ys := range byRel[rel] {
			for _, y := range ys {
				for _, z := range byRel[rel][y] {
					if x == z {
						continue
					}
					support++
					if has[tripleKey(x, rel, z)] {
						hits++
					}
				}
			}
		}
		if support > 0 {
			keep(MinedRule{
				Rule:    Rule{Name: rel + " transitivity", Kind: "transitive", Rel: rel},
				Support: support, Confidence: float64(hits) / float64(support),
			})
		}
	}
	// Composition: r1(x,y) ∧ r2(y,z) ⇒ head(x,z) for every (r1, r2, head)
	// triple of observed relations (r1 ≠ r2 to avoid re-finding transitivity).
	for _, r1 := range rels {
		for _, r2 := range rels {
			if r1 == r2 {
				continue
			}
			bodies := 0
			headHits := make(map[string]int)
			for x, ys := range byRel[r1] {
				for _, y := range ys {
					for _, z := range byRel[r2][y] {
						if x == z {
							continue
						}
						bodies++
						for _, head := range rels {
							if has[tripleKey(x, head, z)] {
								headHits[head]++
							}
						}
					}
				}
			}
			if bodies == 0 {
				continue
			}
			for _, head := range rels {
				if headHits[head] == 0 {
					continue
				}
				keep(MinedRule{
					Rule: Rule{
						Name:  fmt.Sprintf("%s∘%s ⇒ %s", r1, r2, head),
						Kind:  "composition",
						Body1: r1, Body2: r2, Head: head,
					},
					Support: bodies, Confidence: float64(headHits[head]) / float64(bodies),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Name < out[j].Name
	})
	return out
}
