// Package linalg provides the dense and structured linear algebra used by the
// loss-inference pipeline: Householder QR (plain and column-pivoted),
// Cholesky factorization, least-squares solvers and rank estimation.
//
// It is written from scratch on the standard library so that the repository
// has no external dependencies. The implementations follow Golub & Van Loan,
// "Matrix Computations" (the reference the paper itself cites for its
// orthogonal-triangular factorizations).
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64.
//
// The zero value is an empty matrix; use NewDense to allocate one with a
// shape. Methods panic on out-of-range indices and on dimension mismatches:
// those are programmer errors, not runtime conditions.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds an r×c matrix from row-major data. The slice is copied.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %d×%d", len(data), r, c))
	}
	m := NewDense(r, c)
	copy(m.data, data)
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes y = M·x as a new vector. Hot paths that already own a
// destination should call MulVecTo instead.
func (m *Dense) MulVec(x []float64) []float64 {
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes dst = M·x in place without allocating. dst and x must
// not alias.
func (m *Dense) MulVecTo(dst, x []float64) {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVecTo length %d != cols %d", len(x), m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: MulVecTo dst length %d != rows %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = DotUnrolled(m.Row(i), x)
	}
}

// TMulVec computes y = Mᵀ·x as a new vector. Hot paths that already own a
// destination should call TMulVecTo instead.
func (m *Dense) TMulVec(x []float64) []float64 {
	y := make([]float64, m.cols)
	m.TMulVecTo(y, x)
	return y
}

// TMulVecTo computes dst = Mᵀ·x in place without allocating — row-major
// axpy passes, so M is streamed sequentially rather than by column. dst and
// x must not alias.
func (m *Dense) TMulVecTo(dst, x []float64) {
	if len(x) != m.rows {
		panic(fmt.Sprintf("linalg: TMulVecTo length %d != rows %d", len(x), m.rows))
	}
	if len(dst) != m.cols {
		panic(fmt.Sprintf("linalg: TMulVecTo dst length %d != cols %d", len(dst), m.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// mulBlock is the k-panel width of the blocked Mul: 128 columns of B
// (1 KiB per row) keep the streamed panel of B resident in L1/L2 while it is
// reused across every row of the output.
const mulBlock = 128

// Mul computes the product M·B as a new matrix, blocked over the inner
// dimension so the active panel of B stays cache-resident across output rows.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul %d×%d by %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for kb := 0; kb < m.cols; kb += mulBlock {
		kend := min(kb+mulBlock, m.cols)
		for i := 0; i < m.rows; i++ {
			arow := m.Row(i)
			orow := out.Row(i)
			for k := kb; k < kend; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bkj := range brow {
					orow[j] += aik * bkj
				}
			}
		}
	}
	return out
}

// transBlock is the square tile edge of the blocked transpose; 32×32
// float64s (8 KiB) fit L1 while both the read and write sides stay on a
// bounded set of cache lines.
const transBlock = 32

// T returns the transpose as a new matrix, copied tile by tile so that the
// strided writes stay within one cache-tile at a time.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for ib := 0; ib < m.rows; ib += transBlock {
		iend := min(ib+transBlock, m.rows)
		for jb := 0; jb < m.cols; jb += transBlock {
			jend := min(jb+transBlock, m.cols)
			for i := ib; i < iend; i++ {
				row := m.data[i*m.cols : (i+1)*m.cols]
				for j := jb; j < jend; j++ {
					t.data[j*t.cols+i] = row[j]
				}
			}
		}
	}
	return t
}

// MaxAbs returns the largest absolute entry (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// SelectColumns returns a new matrix made of the given columns, in order.
func (m *Dense) SelectColumns(cols []int) *Dense {
	out := NewDense(m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range cols {
			dst[k] = src[j]
		}
	}
	return out
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %d×%d", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return b.String()
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
	}
	return b.String()
}

// Norm2 returns the Euclidean norm of a vector.
func Norm2(x []float64) float64 {
	// Scaled to avoid overflow/underflow, as in LAPACK's dnrm2.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(x), len(y)))
	}
	return DotUnrolled(x, y)
}

// DotUnrolled is the 4-way unrolled inner-product kernel behind Dot and
// MulVecTo: four independent partial sums break the loop-carried dependence
// on one accumulator so the FMA units stay busy. len(y) must be ≥ len(x);
// extra entries of y are ignored.
func DotUnrolled(x, y []float64) float64 {
	n := len(x)
	_ = y[:n] // one bounds check for the whole loop
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}
