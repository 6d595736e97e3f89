package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func randRows(n, d int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func TestFromRowsShapeAndContents(t *testing.T) {
	rows := randRows(7, 5, 1)
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 7 || m.dim != 5 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.dim)
	}
	for i, r := range rows {
		got := m.Row(i)
		for j := range r {
			if got[j] != r[j] {
				t.Fatalf("row %d differs at %d: %v vs %v", i, j, got[j], r[j])
			}
		}
		if want := SquaredNorm(r); absDiff(m.SquaredNorm(i), want) > 1e-5 {
			t.Fatalf("norm %d = %v, want %v", i, m.SquaredNorm(i), want)
		}
	}
}

func TestFromRowsEdgeCases(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil || m.Rows() != 0 || m.dim != 0 {
		t.Fatalf("empty input: m=%+v err=%v", m, err)
	}
	if _, err := FromRows([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := FromRows([][]float32{{}}); err == nil {
		t.Fatal("zero-dim rows accepted")
	}
	var nilMat *Matrix
	if nilMat.Rows() != 0 {
		t.Fatal("nil matrix not a valid empty matrix")
	}
}

func TestAppendRow(t *testing.T) {
	m := NewMatrix(3, 0)
	m.AppendRow([]float32{1, 2, 2})
	if m.Rows() != 1 {
		t.Fatalf("Rows = %d", m.Rows())
	}
	if m.SquaredNorm(0) != 9 {
		t.Fatalf("norm = %v", m.SquaredNorm(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim-mismatched AppendRow did not panic")
		}
	}()
	m.AppendRow([]float32{1})
}

func TestFusedL2MatchesDirect(t *testing.T) {
	rows := randRows(30, 16, 4)
	m, _ := FromRows(rows)
	q := randRows(1, 16, 5)[0]
	qn := SquaredNorm(q)
	dst := make([]float32, 30)
	m.L2SquaredRange(q, qn, 0, 30, dst)
	for i, r := range rows {
		want := l2Squared(q, r)
		if absDiff(dst[i], want) > 1e-3 {
			t.Fatalf("L2SquaredRange[%d] = %v, direct %v", i, dst[i], want)
		}
		if absDiff(m.L2SquaredTo(q, qn, i), want) > 1e-3 {
			t.Fatalf("L2SquaredTo(%d) = %v, direct %v", i, m.L2SquaredTo(q, qn, i), want)
		}
	}
	// A tile inside the range agrees with the full range.
	tile := make([]float32, 10)
	m.L2SquaredRange(q, qn, 10, 20, tile)
	for j := range tile {
		if tile[j] != dst[10+j] {
			t.Fatalf("L2SquaredRange[%d] = %v, want %v", j, tile[j], dst[10+j])
		}
	}
}

// TestKernelDimMismatchPanics: a wrong-dimension query must fail loudly,
// as the pre-Matrix vecmath.L2 did, not return partial inner products.
func TestKernelDimMismatchPanics(t *testing.T) {
	m, _ := FromRows(randRows(4, 8, 6))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched query did not panic")
		}
	}()
	m.L2SquaredTo([]float32{1, 2}, 5, 0)
}

func TestL2SquaredRowsAndClamp(t *testing.T) {
	rows := [][]float32{{1, 0}, {0, 1}, {1, 0}}
	m, _ := FromRows(rows)
	if got := m.L2SquaredRows(0, 1); absDiff(got, 2) > 1e-6 {
		t.Fatalf("L2SquaredRows(0,1) = %v, want 2", got)
	}
	// Coincident rows must clamp to exactly zero, never epsilon-negative.
	if got := m.L2SquaredRows(0, 2); got != 0 {
		t.Fatalf("coincident rows distance = %v, want 0", got)
	}
	if got := m.L2SquaredTo(m.Row(0), m.SquaredNorm(0), 2); got != 0 {
		t.Fatalf("self distance = %v, want 0", got)
	}
}

func TestMatrixMean(t *testing.T) {
	m, _ := FromRows([][]float32{{0, 2}, {2, 0}})
	mean := m.Mean()
	if mean[0] != 1 || mean[1] != 1 {
		t.Fatalf("mean = %v", mean)
	}
	var empty Matrix
	if empty.Mean() != nil {
		t.Fatal("empty mean should be nil")
	}
}

func absDiff(a, b float32) float64 {
	return math.Abs(float64(a) - float64(b))
}
