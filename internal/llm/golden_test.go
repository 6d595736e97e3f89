package llm

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"chatgraph/internal/graph"
)

// The goldens under testdata/ were written by this test (-update) on the
// commit before the sequentializer moved to the bounded BFS-tree kernel, so
// they pin BuildPrompt's bytes — path order, labels, elision counts, section
// spacing — to the map-based implementation's output. Regenerate only for a
// deliberate prompt-format change.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current BuildPrompt")

func TestBuildPromptGolden(t *testing.T) {
	sbm := graph.PlantedCommunities(4, 50, 0.3, 0.02, rand.New(rand.NewSource(11)))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		kind graph.Kind
		cfg  PromptConfig
	}{
		{"sbm4x50", sbm, graph.KindSocial, PromptConfig{}},
		{"sbm4x50_l2_lines7", sbm, graph.KindSocial, PromptConfig{MaxPathLines: 7, PathLength: 2}},
		{"kg300", graph.KnowledgeGraph(300, 900, rand.New(rand.NewSource(12))), graph.KindKnowledge, PromptConfig{}},
		{"mol30", graph.Molecule(30, rand.New(rand.NewSource(13))), graph.KindMolecule, PromptConfig{}},
		{"empty", graph.New(), graph.KindUnknown, PromptConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs := BuildPrompt("Clean G", tc.g, tc.kind,
				[]string{"graph.classify", "kg.detect_all"},
				map[string]string{"kg.detect_all": "Detect issues."}, tc.cfg)
			got := msgs[0].Content + "\n" + msgs[1].Content
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("prompt differs from %s (%d vs %d bytes); first divergence at byte %d",
					path, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
