package chain

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mk(apis ...string) Chain {
	c := make(Chain, len(apis))
	for i, a := range apis {
		c[i] = Step{API: a}
	}
	return c
}

func TestStepString(t *testing.T) {
	s := NewStep("graph.community", "method", "label_prop", "k", "3")
	if got := s.String(); got != "graph.community(k=3,method=label_prop)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Step{API: "x"}).String(); got != "x" {
		t.Fatalf("no-arg String = %q", got)
	}
}

func TestNewStepPanicsOnOddKV(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on odd kv")
		}
	}()
	NewStep("x", "only-key")
}

func TestStepEqual(t *testing.T) {
	a := NewStep("x", "k", "1")
	if !a.Equal(NewStep("x", "k", "1")) {
		t.Fatal("identical steps unequal")
	}
	if a.Equal(NewStep("x", "k", "2")) || a.Equal(NewStep("y", "k", "1")) || a.Equal(NewStep("x")) {
		t.Fatal("different steps equal")
	}
}

func TestChainStringParseRoundTrip(t *testing.T) {
	c := Chain{
		NewStep("graph.classify"),
		NewStep("community.detect", "method", "label_prop"),
		NewStep("report.compose", "style", "brief"),
	}
	text := c.String()
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	if !got.Equal(c) {
		t.Fatalf("round trip: %s != %s", got, c)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a -> -> b",
		"a(k=", // unterminated
		"(k=v)",
		"a(kv)",
		"a(=v)",
		"a)b",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
	if c, err := Parse("  "); err != nil || c != nil {
		t.Fatalf("Parse(blank) = %v, %v", c, err)
	}
	if c, err := Parse("solo()"); err != nil || len(c) != 1 || c[0].Args != nil {
		t.Fatalf("Parse(solo()) = %v, %v", c, err)
	}
}

func TestCloneIndependent(t *testing.T) {
	c := Chain{NewStep("a", "k", "v")}
	d := c.Clone()
	d[0].Args["k"] = "changed"
	d[0].API = "b"
	if c[0].API != "a" || c[0].Args["k"] != "v" {
		t.Fatal("Clone shares storage")
	}
}

func TestEditDistanceBasics(t *testing.T) {
	a := mk("x", "y", "z")
	if d := EditDistance(a, a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	if d := EditDistance(a, mk("x", "y")); d != 1 {
		t.Fatalf("delete distance = %v", d)
	}
	if d := EditDistance(a, mk("x", "q", "z")); d != 1 {
		t.Fatalf("substitute distance = %v", d)
	}
	if d := EditDistance(nil, a); d != 3 {
		t.Fatalf("insert-all distance = %v", d)
	}
}

func TestEditDistanceArgGrading(t *testing.T) {
	a := Chain{NewStep("x", "k", "1")}
	b := Chain{NewStep("x", "k", "2")}
	if d := EditDistance(a, b); d != argCost {
		t.Fatalf("same-API different-args distance = %v, want %v", d, argCost)
	}
}

func TestOptimalMatchingAlignsEqualAPIs(t *testing.T) {
	a := mk("u", "v", "w")
	b := mk("w", "u", "v") // permuted
	m := OptimalMatching(a, b)
	want := []int{1, 2, 0}
	for i, j := range m.Pairs {
		if j != want[i] {
			t.Fatalf("Pairs = %v, want %v", m.Pairs, want)
		}
	}
	if m.Cost != 0 {
		t.Fatalf("Cost = %v, want 0", m.Cost)
	}
}

func TestOptimalMatchingUnmatched(t *testing.T) {
	a := mk("u", "qq")
	b := mk("u")
	m := OptimalMatching(a, b)
	if m.Pairs[0] != 0 {
		t.Fatalf("Pairs = %v", m.Pairs)
	}
	if m.Pairs[1] != -1 {
		t.Fatalf("extra step should be unmatched, Pairs = %v", m.Pairs)
	}
}

func TestOptimalMatchingEmpty(t *testing.T) {
	m := OptimalMatching(nil, nil)
	if len(m.Pairs) != 0 || m.Cost != 0 {
		t.Fatalf("empty matching = %+v", m)
	}
}

func TestLossZeroForIdentical(t *testing.T) {
	c := mk("a", "b")
	if l := Loss(c, c, 0.5); l != 0 {
		t.Fatalf("Loss(self) = %v", l)
	}
}

func TestLossPenalizesUnmatched(t *testing.T) {
	c := mk("a", "b", "c")
	truth := mk("a", "b")
	// X = 1 (one delete), Y = 1 (node c unmatched), α = 0.5 → 1.5
	if l := Loss(c, truth, 0.5); math.Abs(l-1.5) > 1e-9 {
		t.Fatalf("Loss = %v, want 1.5", l)
	}
}

func TestLossAlphaScales(t *testing.T) {
	c := mk("a", "zzz")
	truth := mk("a")
	l0 := Loss(c, truth, 0)
	l1 := Loss(c, truth, 1)
	if l1 <= l0 {
		t.Fatalf("alpha had no effect: %v vs %v", l0, l1)
	}
}

func TestMinLossPicksClosestTruth(t *testing.T) {
	c := mk("a", "b")
	truths := []Chain{mk("x", "y", "z"), mk("a", "b"), mk("a")}
	l, idx := MinLoss(c, truths, 0.5)
	if l != 0 || idx != 1 {
		t.Fatalf("MinLoss = %v, %d", l, idx)
	}
	l, idx = MinLoss(c, nil, 0.5)
	if !math.IsInf(l, 1) || idx != -1 {
		t.Fatalf("empty MinLoss = %v, %d", l, idx)
	}
}

type fakeValidator struct{ bad string }

func (f fakeValidator) ValidateStep(s Step) error {
	if s.API == f.bad {
		return errBad
	}
	return nil
}

var errBad = &validationError{}

type validationError struct{}

func (*validationError) Error() string { return "unknown api" }

func TestValidate(t *testing.T) {
	c := mk("good", "bad", "good")
	err := Validate(c, fakeValidator{bad: "bad"})
	if err == nil || !strings.Contains(err.Error(), "step 2") {
		t.Fatalf("Validate = %v", err)
	}
	if err := Validate(mk("good"), fakeValidator{bad: "bad"}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

// Property: edit distance is a metric on chains (symmetry + triangle
// inequality + identity) for API-only steps.
func TestQuickEditDistanceMetric(t *testing.T) {
	gen := func(raw []uint8) Chain {
		apis := []string{"a", "b", "c", "d"}
		c := make(Chain, 0, len(raw)%6)
		for i := 0; i < len(raw) && i < 6; i++ {
			c = append(c, Step{API: apis[int(raw[i])%len(apis)]})
		}
		return c
	}
	f := func(ra, rb, rc []uint8) bool {
		a, b, c := gen(ra), gen(rb), gen(rc)
		dab, dba := EditDistance(a, b), EditDistance(b, a)
		if dab != dba {
			return false
		}
		if EditDistance(a, a) != 0 {
			return false
		}
		return EditDistance(a, c) <= dab+EditDistance(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hungarian matching is one-to-one (no column reused).
func TestQuickMatchingOneToOne(t *testing.T) {
	gen := func(raw []uint8, n int) Chain {
		apis := []string{"a", "b", "c", "d", "e"}
		c := make(Chain, 0, n)
		for i := 0; i < len(raw) && i < n; i++ {
			c = append(c, Step{API: apis[int(raw[i])%len(apis)]})
		}
		return c
	}
	f := func(ra, rb []uint8) bool {
		a, b := gen(ra, 5), gen(rb, 5)
		m := OptimalMatching(a, b)
		seen := make(map[int]bool)
		for _, j := range m.Pairs {
			if j < 0 {
				continue
			}
			if j >= len(b) || seen[j] {
				return false
			}
			seen[j] = true
		}
		return len(m.Pairs) == len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Loss is non-negative and zero only adds up for equal chains.
func TestQuickLossNonNegative(t *testing.T) {
	gen := func(raw []uint8) Chain {
		apis := []string{"a", "b", "c"}
		c := make(Chain, 0, 4)
		for i := 0; i < len(raw) && i < 4; i++ {
			c = append(c, Step{API: apis[int(raw[i])%len(apis)]})
		}
		return c
	}
	f := func(ra, rb []uint8) bool {
		a, b := gen(ra), gen(rb)
		l := Loss(a, b, 0.5)
		if l < 0 {
			return false
		}
		if a.Equal(b) && l != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
