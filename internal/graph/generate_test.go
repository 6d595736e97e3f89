package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// TestGeneratorsAreStable pins the generators' fixed-seed output byte for
// byte. The benchmark generates every upload body with them, so a generator
// that drew its random numbers in another order would silently make "the
// same workload" another one. The sums were recorded before the generators
// stopped asking the graph whether an edge exists and kept their own edge
// sets instead (ErdosRenyi's and BarabasiAlbert's later, once BarabasiAlbert
// was one graph per seed). Each sum was written by one process and is read
// by another, so a generator whose output follows map order fails here.
func TestGeneratorsAreStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand) *Graph
		sums map[int64]string // seed → SHA-256 of json.Marshal
	}{
		{"ErdosRenyi(200, .05)", func(rng *rand.Rand) *Graph { return ErdosRenyi(200, .05, rng) }, map[int64]string{
			1: "1cd0c0e8ee17549604315023f9469f194dc66946df15f53facd38ce0713aedbb",
			7: "5baac24064491e7ee41a8236f13ef03f04f781e318e0bf81d678d45799eb88f6",
		}},
		{"BarabasiAlbert(200, 2)", func(rng *rand.Rand) *Graph { return BarabasiAlbert(200, 2, rng) }, map[int64]string{
			1: "89e332b32bb2ac60861a4438ce04f1f52378fe9a898628ec50f9203abd8a26fb",
			7: "648ba84257e3d6cf251ebaa99c6d08a6fbd3dde4d8feb9ff234e5fec55049132",
		}},
		{"BarabasiAlbert(2000, 2)", func(rng *rand.Rand) *Graph { return BarabasiAlbert(2000, 2, rng) }, map[int64]string{
			1: "9fe3a9654c6c830564c6da77fcb5d81a09688e518461f12fb52a943d46a1df2f",
		}},
		{"KnowledgeGraph(300, 900)", func(rng *rand.Rand) *Graph { return KnowledgeGraph(300, 900, rng) }, map[int64]string{
			1: "f1253747888440acae0a6e46e9682b9508c230aef11ae37bca95f4e0ed426a37",
			7: "fa06a6db3c7a2116353ce3a6257a4ca91f16846fc17506c89d6cb1443420e22d",
		}},
		{"PlantedCommunities(4, 50, .3, .02)", func(rng *rand.Rand) *Graph { return PlantedCommunities(4, 50, .3, .02, rng) }, map[int64]string{
			1: "9b9159002e981acc2df07f66e6ecf03e5b84d53b2def5eca4e7b781c1d5f49e9",
			7: "79bccd5813f27dbce9b10bd86b39b3db46f3a4e2da41f0fdb1f1d72b01d3421a",
		}},
		{"Molecule(30)", func(rng *rand.Rand) *Graph { return Molecule(30, rng) }, map[int64]string{
			1: "d4c819cfa6002a6089234bf0d95ef1c64df22c78eb3687ac23af80368feb3dd8",
			7: "574011b192989778a9105104315cc84fc71cee6b09a53f922bba922dd4939c3c",
		}},
		{"Molecule(200)", func(rng *rand.Rand) *Graph { return Molecule(200, rng) }, map[int64]string{
			1: "2732cefd2ef787dbdad6e634edd94ad981ee8d563516e5e4db8e79fa518f2c58",
			7: "bc9102a9c2680ef0e744608ddeafaf75d69ea1144866ad07c840bf50553b32f8",
		}},
	} {
		for seed, want := range tc.sums {
			data, err := json.Marshal(tc.gen(rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s at seed %d: sha256 %s, want %s", tc.name, seed, got, want)
			}
		}
	}
}

// TestBarabasiAlbertIsOneGraphPerSeed: one seed builds one graph, in this
// process and in any other. Each new node's targets extend the stub list
// that later nodes sample from, so drawing them in map order made every
// build a different graph: all 20 rebuilds below differed when it did.
// TestGeneratorsAreStable's pinned sum is the second process's check.
func TestBarabasiAlbertIsOneGraphPerSeed(t *testing.T) {
	first := BarabasiAlbert(200, 2, rand.New(rand.NewSource(1)))
	for i := 0; i < 20; i++ {
		g := BarabasiAlbert(200, 2, rand.New(rand.NewSource(1)))
		if !slices.Equal(g.Edges(), first.Edges()) {
			t.Fatalf("rebuild %d of BarabasiAlbert(200, 2, seed 1) has another edge list", i)
		}
	}
}
