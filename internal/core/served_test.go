package core

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chatgraph/internal/apis"
	"chatgraph/internal/chain"
	"chatgraph/internal/finetune"
	"chatgraph/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/served_chains.golden from the current pipeline")

// TestServedChainsGolden pins the chain Session.Ask serves — after
// retrieval, generation and fillArgs, the chain the executor receives — and
// whether it executed, on the daemon's model (chatgraphd's default seed 42
// and parameters). The rows are every template phrasing on its own graph
// kind and on the two others, the untrained-API bank on its kind, and
// SuggestedQuestions on each kind (no graph for KindUnknown). The header
// counts template chains that match a truth on their own kind and untrained
// questions whose served chain calls the asked-for API.
//
// Regenerate with `go test -run TestServedChainsGolden ./internal/core
// -args -update` only for a deliberate change to what the pipeline serves;
// the diff is the before / after record of every changed row.
func TestServedChainsGolden(t *testing.T) {
	env := &apis.Env{}
	reg := apis.Default(env)
	SeedMoleculeDB(env, 30, rand.New(rand.NewSource(42)))
	eng, err := NewEngine(Config{Registry: reg, Env: env, TrainSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	graphs := map[graph.Kind]*graph.Graph{
		graph.KindSocial:    graph.PlantedCommunities(3, 12, 0.5, 0.05, rng),
		graph.KindMolecule:  graph.Molecule(18, rng),
		graph.KindKnowledge: graph.KnowledgeGraph(30, 60, rng),
	}
	for k, g := range graphs {
		if got := graph.Classify(g); got != k {
			t.Fatalf("%s graph classifies as %s", k, got)
		}
		graphs[k] = eng.Graphs().Intern(g)
	}
	kinds := []graph.Kind{graph.KindSocial, graph.KindMolecule, graph.KindKnowledge}

	var rows []string
	executed := 0
	ask := func(section, question string, kind graph.Kind) Turn {
		turn, err := eng.NewSession().Ask(context.Background(), question, graphs[kind], AskOptions{})
		status := "ok"
		if err != nil {
			status = "failed"
		} else {
			executed++
		}
		rows = append(rows, strings.Join([]string{section, kind.String(), question, turn.Chain.String(), status}, "\t"))
		return turn
	}

	// Every distinct template question: 4,000 draws over ten templates of
	// at most five phrasings see each one.
	var phrasings []finetune.Example
	for _, ex := range finetune.GenerateDataset(4000, rand.New(rand.NewSource(1))) {
		if !slices.ContainsFunc(phrasings, func(p finetune.Example) bool { return p.Question == ex.Question }) {
			phrasings = append(phrasings, ex)
		}
	}
	slices.SortFunc(phrasings, func(a, b finetune.Example) int {
		return cmp.Or(strings.Compare(a.Task, b.Task), strings.Compare(a.Question, b.Question))
	})
	exact := 0
	for _, ex := range phrasings {
		if finetune.Exact(ask("template/"+ex.Task, ex.Question, ex.Kind).Chain, ex.Truths) {
			exact++
		}
		for _, k := range kinds {
			if k != ex.Kind {
				ask("template/"+ex.Task, ex.Question, k)
			}
		}
	}
	hit := 0
	bank := finetune.UnseenAPIQuestions()
	for _, u := range bank {
		if slices.ContainsFunc(ask("untrained/"+u.API, u.Question, u.Kind).Chain, func(s chain.Step) bool { return s.API == u.API }) {
			hit++
		}
	}
	for _, k := range append(kinds, graph.KindUnknown) {
		for _, q := range SuggestedQuestions(k) {
			ask("suggested", q, k)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# template exact on own kind: %d/%d\n", exact, len(phrasings))
	fmt.Fprintf(&b, "# untrained hit: %d/%d\n", hit, len(bank))
	fmt.Fprintf(&b, "# executed: %d/%d\n", executed, len(rows))
	b.WriteString("# section\tkind\tquestion\tserved chain\texecuted\n")
	for _, r := range rows {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", "served_chains.golden")
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
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
