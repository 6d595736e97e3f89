package apis

import (
	"fmt"
	"sort"
	"strings"

	"chatgraph/internal/graph"
)

// Descriptor-based molecular property models. The paper invokes proprietary
// chemistry APIs (toxicity, solubility); here each property is a calibrated
// function of standard structural descriptors (atom counts, rings,
// heteroatom fractions) so the molecule code path is exercised end to end
// with chemically sensible monotonic behaviour (e.g. more halogens → more
// toxic, more oxygens/nitrogens → more soluble).

// atomicWeights covers the atoms the molecule generator emits.
var atomicWeights = map[string]float64{
	"H": 1.008, "C": 12.011, "N": 14.007, "O": 15.999, "S": 32.06,
	"P": 30.974, "F": 18.998, "Cl": 35.45, "Br": 79.904, "I": 126.9,
	"B": 10.81, "Si": 28.085,
}

// MoleculeDescriptors summarizes a molecule's structure for the property
// models.
type MoleculeDescriptors struct {
	Atoms        int
	Bonds        int
	Rings        int
	Weight       float64
	HeteroFrac   float64 // fraction of non-carbon heavy atoms
	HalogenCount int
	NOCount      int // nitrogen + oxygen atoms (H-bond capable)
	Formula      string
}

// element returns the element symbol of a node (attr first, label second).
func element(n graph.Node) string {
	if e := n.Attrs["element"]; e != "" {
		return e
	}
	return n.Label
}

// ComputeDescriptors derives the descriptor set from a molecule graph.
func ComputeDescriptors(g *graph.Graph) MoleculeDescriptors {
	d := MoleculeDescriptors{Atoms: g.NumNodes(), Bonds: g.NumEdges()}
	comps := g.ConnectedComponents()
	// Circuit rank = E − V + C: number of independent rings.
	d.Rings = d.Bonds - d.Atoms + len(comps)
	if d.Rings < 0 {
		d.Rings = 0
	}
	counts := make(map[string]int)
	for _, n := range g.Nodes() {
		el := element(n)
		counts[el]++
		if w, ok := atomicWeights[el]; ok {
			d.Weight += w
		} else {
			d.Weight += 12 // unknown atoms count as carbon-ish
		}
		switch el {
		case "F", "Cl", "Br", "I":
			d.HalogenCount++
		case "N", "O":
			d.NOCount++
		}
	}
	if d.Atoms > 0 {
		d.HeteroFrac = float64(d.Atoms-counts["C"]) / float64(d.Atoms)
	}
	d.Formula = hillFormula(counts)
	return d
}

// hillFormula renders counts in Hill order: C, H, then alphabetical.
func hillFormula(counts map[string]int) string {
	var keys []string
	for k := range counts {
		if k != "C" && k != "H" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	ordered := make([]string, 0, len(counts))
	if counts["C"] > 0 {
		ordered = append(ordered, "C")
	}
	if counts["H"] > 0 {
		ordered = append(ordered, "H")
	}
	ordered = append(ordered, keys...)
	var b strings.Builder
	for _, k := range ordered {
		b.WriteString(k)
		if counts[k] > 1 {
			fmt.Fprintf(&b, "%d", counts[k])
		}
	}
	return b.String()
}

// Toxicity scores [0,1]: halogens, rings, and molecular weight increase it.
func Toxicity(d MoleculeDescriptors) float64 {
	score := 0.08*float64(d.HalogenCount) + 0.05*float64(d.Rings) + d.Weight/2000 + 0.2*d.HeteroFrac
	return clamp01(score)
}

// Solubility scores [0,1]: H-bonding heteroatoms help, mass and rings hurt.
func Solubility(d MoleculeDescriptors) float64 {
	if d.Atoms == 0 {
		return 0
	}
	score := 0.5 + 0.6*float64(d.NOCount)/float64(d.Atoms) - d.Weight/1500 - 0.06*float64(d.Rings) - 0.1*float64(d.HalogenCount)
	return clamp01(score)
}

// LogP estimates lipophilicity: carbons and halogens raise it, N/O lower it.
func LogP(d MoleculeDescriptors) float64 {
	carbons := float64(d.Atoms) * (1 - d.HeteroFrac)
	return 0.4*carbons + 0.6*float64(d.HalogenCount) - 0.7*float64(d.NOCount) - 0.5
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func riskBand(score float64) string {
	switch {
	case score < 0.33:
		return "low"
	case score < 0.66:
		return "moderate"
	default:
		return "high"
	}
}

// registerMolecule adds the chemistry APIs the molecule-understanding path
// invokes.
func registerMolecule(r *Registry, _ *Env) {
	r.mustRegister(API{
		Name:        "molecule.formula",
		Memoizable:  true,
		Description: "Compute the molecular formula and molecular weight of a chemical molecule.",
		Category:    "molecule",
		Fn: func(in Input) (Output, error) {
			d := ComputeDescriptors(in.Graph)
			return Output{
				Text: fmt.Sprintf("Formula %s, molecular weight %.1f g/mol.", d.Formula, d.Weight),
				Data: d,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "molecule.toxicity",
		Memoizable:  true,
		Description: "Predict the toxicity of a chemical molecule from its structure.",
		Category:    "molecule",
		Fn: func(in Input) (Output, error) {
			d := ComputeDescriptors(in.Graph)
			tox := Toxicity(d)
			return Output{
				Text: fmt.Sprintf("Predicted toxicity %.2f (%s risk): %d halogen(s), %d ring(s), weight %.0f.",
					tox, riskBand(tox), d.HalogenCount, d.Rings, d.Weight),
				Data: tox,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "molecule.solubility",
		Memoizable:  true,
		Description: "Predict the aqueous solubility of a chemical molecule.",
		Category:    "molecule",
		Fn: func(in Input) (Output, error) {
			d := ComputeDescriptors(in.Graph)
			sol := Solubility(d)
			return Output{
				Text: fmt.Sprintf("Predicted solubility %.2f (%s): %d H-bonding heteroatom(s) over %d atoms.",
					sol, riskBand(sol), d.NOCount, d.Atoms),
				Data: sol,
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "molecule.logp",
		Memoizable:  true,
		Description: "Estimate the lipophilicity logP of a chemical molecule.",
		Category:    "molecule",
		Fn: func(in Input) (Output, error) {
			d := ComputeDescriptors(in.Graph)
			return Output{
				Text: fmt.Sprintf("Estimated logP %.2f.", LogP(d)),
				Data: LogP(d),
			}, nil
		},
	})
	r.mustRegister(API{
		Name:        "molecule.rings",
		Memoizable:  true,
		Description: "Count the rings and ring systems in a chemical molecule.",
		Category:    "molecule",
		Fn: func(in Input) (Output, error) {
			d := ComputeDescriptors(in.Graph)
			return Output{
				Text: fmt.Sprintf("The molecule has %d independent ring(s).", d.Rings),
				Data: d.Rings,
			}, nil
		},
	})
}
