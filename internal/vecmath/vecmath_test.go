package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float32) bool { return math.Abs(float64(a-b)) < 1e-5 }

// l2Squared is the direct (subtract-and-square) squared distance, the
// reference the fused dot-trick kernels are held to.
func l2Squared(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestDot(t *testing.T) {
	if got := dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	dot([]float32{1}, []float32{1, 2})
}

func TestNormAndL2(t *testing.T) {
	if got := Norm([]float32{3, 4}); !almost(got, 5) {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := l2Squared([]float32{0, 0}, []float32{3, 4}); !almost(got, 25) {
		t.Fatalf("l2Squared = %v, want 25", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float32{3, 4})
	if !almost(Norm(v), 1) {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := Normalize([]float32{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector changed by Normalize")
	}
}

func TestAddScale(t *testing.T) {
	a := []float32{1, 2}
	Add(a, []float32{1, 1})
	if a[0] != 2 || a[1] != 3 {
		t.Fatalf("Add result %v", a)
	}
	Scale(a, 2)
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("Scale result %v", a)
	}
}

// Property: the fused row-to-row distance obeys the triangle inequality on
// random vectors, to the rounding of the dot trick.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []float32 {
			v := make([]float32, 8)
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		m, _ := FromRows([][]float32{a, b, c})
		l2 := func(i, j int) float64 { return math.Sqrt(float64(m.L2SquaredRows(i, j))) }
		return l2(0, 2) <= l2(0, 1)+l2(1, 2)+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
