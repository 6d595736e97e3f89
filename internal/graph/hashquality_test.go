package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// describe renders a spec in index order — exactly the content ContentHash
// must separate.
func (sp chSpec) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %v", sp.name, sp.directed)
	for i, label := range sp.labels {
		keys := make([]string, 0, len(sp.attrs[i]))
		for k := range sp.attrs[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "\n%q", label)
		for _, k := range keys {
			fmt.Fprintf(&b, " %q=%q", k, sp.attrs[i][k])
		}
	}
	b.WriteString("\n--")
	for _, e := range sp.edges {
		fmt.Fprintf(&b, "\n%d>%d %q %x", e.from, e.to, e.label, math.Float64bits(e.weight))
	}
	return b.String()
}

// clone deep-copies the parts of a spec the perturbations touch.
func (sp chSpec) clone() chSpec {
	c := sp
	c.labels = append([]string(nil), sp.labels...)
	c.edges = append([]chEdge(nil), sp.edges...)
	c.attrs = make([]map[string]string, len(sp.attrs))
	for i, m := range sp.attrs {
		c.attrs[i] = make(map[string]string, len(m))
		for k, v := range m {
			c.attrs[i][k] = v
		}
	}
	return c
}

func flipBit(s string, byteIdx int, bit uint) string {
	b := []byte(s)
	b[byteIdx] ^= 1 << bit
	return string(b)
}

// TestHashesSeparateSingleFieldPerturbations checks the hash round on the
// differences uploads actually have: 200k small graphs that each differ from
// a sibling in one field — one bit of a label byte, one ulp of a weight, one
// endpoint, an attribute's key and value swapped, a byte moved across a
// field boundary ("ab"+"c" vs "a"+"bc") — must produce as many distinct
// ContentHashes as there are distinct representations.
func TestHashesSeparateSingleFieldPerturbations(t *testing.T) {
	want := 200_000
	if raceEnabled {
		want = 20_000 // one goroutine, nothing to race: keep the instrumented run short
	}
	rng := rand.New(rand.NewSource(99))
	hashes := make(map[ContentHash]string, want)
	distinct := make(map[string]struct{}, want)
	total := 0
	add := func(sp chSpec) {
		total++
		h, desc := sp.build(t, nil, nil).ContentHash(), sp.describe()
		distinct[desc] = struct{}{}
		if prev, ok := hashes[h]; ok && prev != desc {
			t.Fatalf("ContentHash collision between\n%s\nand\n%s", prev, desc)
		}
		hashes[h] = desc
	}

	for base := 0; total < want; base++ {
		const n, m = 5, 6
		sp := chSpec{name: fmt.Sprintf("g%d", base), directed: base%2 == 0, labels: make([]string, n), attrs: make([]map[string]string, n)}
		for i := range sp.labels {
			sp.labels[i] = fmt.Sprintf("n%d%c%c", i, 'a'+rune(rng.Intn(26)), 'a'+rune(rng.Intn(26)))
			sp.attrs[i] = map[string]string{"type": fmt.Sprintf("t%d", rng.Intn(4))}
		}
		for len(sp.edges) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				sp.edges = append(sp.edges, chEdge{u, v, []string{"rel", "bond", "knows"}[rng.Intn(3)], []float64{1, 2.5, -0.5}[rng.Intn(3)]})
			}
		}
		add(sp)
		variant := func(mutate func(c *chSpec)) {
			c := sp.clone()
			mutate(&c)
			add(c)
		}
		for i := 0; i < n; i++ {
			for b := 0; b < len(sp.labels[i]); b++ {
				for _, bit := range []uint{0, 3, 6} {
					variant(func(c *chSpec) { c.labels[i] = flipBit(c.labels[i], b, bit) })
				}
			}
			// The attribute's key and value trade places; its value changes
			// by one bit; a byte crosses from the label into the key, and
			// from the key into the value.
			variant(func(c *chSpec) { c.attrs[i] = map[string]string{c.attrs[i]["type"]: "type"} })
			variant(func(c *chSpec) { c.attrs[i]["type"] = flipBit(c.attrs[i]["type"], 1, 0) })
			variant(func(c *chSpec) {
				l := c.labels[i]
				c.labels[i], c.attrs[i] = l[:len(l)-1], map[string]string{l[len(l)-1:] + "type": c.attrs[i]["type"]}
			})
			variant(func(c *chSpec) { c.attrs[i] = map[string]string{"typ": "e" + c.attrs[i]["type"]} })
		}
		for j := 0; j < m; j++ {
			for b := 0; b < len(sp.edges[j].label); b++ {
				variant(func(c *chSpec) { c.edges[j].label = flipBit(c.edges[j].label, b, 1) })
			}
			variant(func(c *chSpec) { c.edges[j].weight = math.Nextafter(c.edges[j].weight, math.Inf(1)) })
			variant(func(c *chSpec) { c.edges[j].weight = math.Nextafter(c.edges[j].weight, math.Inf(-1)) })
			for v := 0; v < n; v++ {
				if v != sp.edges[j].from && v != sp.edges[j].to {
					variant(func(c *chSpec) { c.edges[j].to = v })
					variant(func(c *chSpec) { c.edges[j].from = v })
				}
			}
		}
		// A byte crosses from the name into the first label.
		variant(func(c *chSpec) { c.name, c.labels[0] = c.name+c.labels[0][:1], c.labels[0][1:] })
	}
	if len(hashes) != len(distinct) {
		t.Fatalf("%d graphs: %d ContentHashes for %d representations", total, len(hashes), len(distinct))
	}
	if len(distinct) < want*9/10 {
		t.Fatalf("the perturbations produced only %d distinct representations of %d graphs", len(distinct), total)
	}
}

// TestWriteUint64EveryBitReachesBothLanes: absorbing a word that differs in
// any single bit leaves both lanes different, from any state.
func TestWriteUint64EveryBitReachesBothLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		start := sig128{rng.Uint64(), rng.Uint64()}
		if trial == 0 {
			start = newSig()
		}
		v := rng.Uint64()
		if trial%4 == 1 {
			v = uint64(rng.Intn(300)) // the small words lengths, counts and ids are
		}
		ref := start
		ref.writeUint64(v)
		for bit := uint(0); bit < 64; bit++ {
			s := start
			s.writeUint64(v ^ 1<<bit)
			if s.a == ref.a || s.b == ref.b {
				t.Fatalf("state %x word %x: flipping bit %d left a lane unchanged (%x vs %x)", start, v, bit, s, ref)
			}
		}
	}
}

// TestWriteStringBoundaries: the word-at-a-time absorption keeps what the
// byte-at-a-time one guaranteed — length-prefixed fields cannot alias across
// a boundary, and padding cannot stand in for data.
func TestWriteStringBoundaries(t *testing.T) {
	sum := func(fields ...string) sig128 {
		s := newSig()
		for _, f := range fields {
			s.writeString(f)
		}
		return s
	}
	seen := map[sig128][]string{}
	for _, fields := range [][]string{
		{"ab", "c"}, {"a", "bc"}, {"abc"}, {"abc", ""}, {"", "abc"}, {},
		{"12345678"}, {"1234567", "8"}, {"12345678", ""}, {"123456789"}, {"12345678\x00"}, {"1234567"}, {"1234567\x00"},
		{"a"}, {"a\x00"}, {"a\x00\x00\x00\x00\x00\x00\x00"}, {"\x00"}, {""}, {"", ""},
	} {
		s := sum(fields...)
		if prev, ok := seen[s]; ok {
			t.Fatalf("%q and %q absorb to the same signature", prev, fields)
		}
		seen[s] = fields
	}
}

// TestCloneCarriesHashes: a clone of a graph whose fingerprint is known
// starts with it, and loses it at its first mutation.
func TestCloneCarriesHashes(t *testing.T) {
	g := KnowledgeGraph(30, 60, rand.New(rand.NewSource(4)))
	h := g.ContentHash()
	c := g.Clone()
	if !c.hashValid || c.hashVersion != c.version {
		t.Fatal("clone did not inherit the cached fingerprint")
	}
	if c.ContentHash() != h {
		t.Fatal("clone's fingerprint differs from the original's")
	}
	c.SetNodeLabel(0, "edited")
	if c.ContentHash() == h {
		t.Fatal("mutated clone kept the original's fingerprint")
	}
	if g.ContentHash() != h {
		t.Fatal("mutating the clone changed the original's fingerprint")
	}
	// A clone taken before any hash was computed computes its own.
	fresh := KnowledgeGraph(30, 60, rand.New(rand.NewSource(4)))
	if fc := fresh.Clone(); fc.hashValid || fc.ContentHash() != h {
		t.Fatal("clone of an unhashed graph")
	}
}
