package vecmath

import "fmt"

// Matrix is a contiguous row-major store of equal-length float32 vectors:
// one flat data slice plus the dimensionality, with the squared L2 norm of
// every row precomputed. It replaces [][]float32 across the vector stack so
// hot loops walk one cache-friendly allocation instead of chasing a pointer
// per row, and so distance kernels can use the dot trick
// ‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b against the stored norms.
type Matrix struct {
	data  []float32
	dim   int
	norms []float32 // norms[i] = ‖Row(i)‖²
}

// NewMatrix returns an empty matrix of the given dimensionality with room
// for capRows rows. dim must be positive.
func NewMatrix(dim, capRows int) *Matrix {
	if dim <= 0 {
		panic(fmt.Sprintf("vecmath: matrix dim %d", dim))
	}
	if capRows < 0 {
		capRows = 0
	}
	return &Matrix{
		data:  make([]float32, 0, dim*capRows),
		dim:   dim,
		norms: make([]float32, 0, capRows),
	}
}

// FromRows copies rows into a new Matrix. All rows must share one length;
// mismatched rows are an error. An empty input yields an empty matrix with
// dim 0, which reports zero rows and supports no kernels.
func FromRows(rows [][]float32) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, fmt.Errorf("vecmath: zero-dimensional rows")
	}
	m := NewMatrix(dim, len(rows))
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("vecmath: row %d has dim %d, want %d", i, len(r), dim)
		}
		m.AppendRow(r)
	}
	return m, nil
}

// Rows reports the number of stored vectors. A nil matrix is a valid empty
// matrix.
func (m *Matrix) Rows() int {
	if m == nil {
		return 0
	}
	return len(m.norms)
}

// Row returns row i as a slice aliasing the matrix storage. Callers must
// not mutate it (the precomputed norm would go stale).
func (m *Matrix) Row(i int) []float32 {
	return m.data[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
}

// AppendRow copies v into the matrix as a new row and records its squared
// norm. It panics on a dimensionality mismatch.
func (m *Matrix) AppendRow(v []float32) {
	if len(v) != m.dim {
		panic(fmt.Sprintf("vecmath: append row of dim %d to matrix of dim %d", len(v), m.dim))
	}
	m.data = append(m.data, v...)
	m.norms = append(m.norms, SquaredNorm(v))
}

// SquaredNorm returns the precomputed ‖Row(i)‖².
func (m *Matrix) SquaredNorm(i int) float32 { return m.norms[i] }

// SquaredNorm returns ‖v‖², the companion for query vectors whose norm the
// caller wants to compute once and reuse across many row distances.
func SquaredNorm(v []float32) float32 {
	var s float32
	for _, x := range v {
		s += x * x
	}
	return s
}

// L2SquaredRange computes the squared distances from q to rows lo..hi−1
// into dst[0:hi−lo] — the tile form brute-force scans use so no full-size
// distance buffer is ever allocated.
func (m *Matrix) L2SquaredRange(q []float32, qNorm float32, lo, hi int, dst []float32) {
	for i := lo; i < hi; i++ {
		dst[i-lo] = clampNonNeg(qNorm + m.norms[i] - 2*dot(q, m.Row(i)))
	}
}

// Sparse is a vector stored as its non-zero entries: Val[j] is the component
// at dimension Idx[j], and Idx is strictly ascending.
type Sparse struct {
	Idx []int32
	Val []float32
}

// L2SquaredRangeSparse is L2SquaredRange for a sparse query (qNorm is
// SquaredNorm(q.Val)): same dot trick, clamp and row norms, and the same
// float32 bits, because dot is a sequential sum in index order to which a
// zero component adds ±0. A dot that reassociates (SIMD lanes, unrolled
// partial sums) would end that.
func (m *Matrix) L2SquaredRangeSparse(q Sparse, qNorm float32, lo, hi int, dst []float32) {
	val := q.Val[:len(q.Idx)]
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		var s float32
		for j, ix := range q.Idx {
			s += val[j] * row[ix]
		}
		dst[i-lo] = clampNonNeg(qNorm + m.norms[i] - 2*s)
	}
}

// L2SquaredTo returns the squared distance from q to Row(i) via the dot
// trick. qNorm must be SquaredNorm(q).
func (m *Matrix) L2SquaredTo(q []float32, qNorm float32, i int) float32 {
	return clampNonNeg(qNorm + m.norms[i] - 2*dot(q, m.Row(i)))
}

// L2SquaredRows returns the squared distance between rows i and j via the
// dot trick, with both norms read from the precomputed table.
func (m *Matrix) L2SquaredRows(i, j int) float32 {
	return clampNonNeg(m.norms[i] + m.norms[j] - 2*dot(m.Row(i), m.Row(j)))
}

// Mean returns the component-wise mean of all rows, or nil for an empty
// matrix.
func (m *Matrix) Mean() []float32 {
	n := m.Rows()
	if n == 0 {
		return nil
	}
	out := make([]float32, m.dim)
	for i := 0; i < n; i++ {
		Add(out, m.Row(i))
	}
	Scale(out, 1/float32(n))
	return out
}

func clampNonNeg(x float32) float32 {
	if x < 0 {
		return 0
	}
	return x
}

// dot is the tight inner-product kernel all fused distances share. A
// mismatched query panics loudly (a partial product against a full row
// norm would silently mis-rank everything); the reslice of b then lets the
// compiler drop bounds checks in the loop.
func dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s float32
	for i, x := range a {
		s += x * b[i]
	}
	return s
}
