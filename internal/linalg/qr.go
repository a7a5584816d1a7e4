package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned by least-squares solvers when the system
// matrix does not have full column rank (within tolerance), so a unique
// minimizer does not exist.
var ErrRankDeficient = errors.New("linalg: matrix is rank deficient")

// QR holds a Householder orthogonal-triangular factorization A = Q·R of an
// m×n matrix with m ≥ n. It is the factorization the paper prescribes for
// solving the moment equations (Section 5.1, citing Golub & Van Loan).
type QR struct {
	qr   *Dense    // packed factors: R in the upper triangle, reflectors below
	tau  []float64 // Householder scalar coefficients
	m, n int
	work []float64 // reusable solve workspace (len m); lazily allocated
}

// NewQR computes the Householder QR factorization of a. The input matrix is
// not modified. It requires m ≥ n.
//
// The factorization is the textbook one (Golub & Van Loan, Alg. 5.2.1):
// reflector k is formed from column k, then applied to the trailing columns
// as w ← τ·(vᵀ·A) followed by A ← A − v·w. Done literally, that is two
// sweeps over the trailing matrix per reflector, and on the 600×600 R* of a
// Phase-2 solve both sweeps stream the whole matrix from memory. NewQR runs
// one sweep per reflector instead, by looking one reflector ahead:
//
//  1. Reflector k's w is already accumulated. Scale it by τₖ, update the
//     pivot row k and column k+1 alone, and form reflector k+1 from the
//     updated column k+1 (houseColumn).
//  2. One row sweep over columns [k+2, n) then updates each row i > k with
//     reflector k and, while the updated row is still in registers, folds it
//     into reflector k+1's w (row k+1 seeds w by copy). Rows go two at a
//     time, so each w entry is loaded and stored once per pair.
//
// The result is bitwise equal to the two-sweep order. Every element gets the
// same update a[i][j] − v_i·w[j] from the same operands, each w[j] receives
// its terms in the same row order, one rounding per operation (no fused
// multiply-add, no reassociation), and the skip rules are the same: a zero
// τ skips its reflector and a zero reflector entry skips its row's term.
func NewQR(a *Dense) *QR {
	if m, n := a.Dims(); m < n {
		panic(fmt.Sprintf("linalg: QR requires rows ≥ cols, got %d×%d", m, n))
	}
	return factorQR(a.Clone())
}

// factorQR factors qr in place; see NewQR.
func factorQR(qr *Dense) *QR {
	m, n := qr.Dims()
	f := &QR{qr: qr, tau: make([]float64, n), m: m, n: n}
	// w is reflector k's w over columns [k+1, n); nx is reflector k+1's,
	// built by the sweep.
	buf := make([]float64, 2*n)
	w, nx := buf[:n], buf[n:]
	// k = −1 has no reflector to apply: its sweep only accumulates
	// reflector 0's w.
	for k := -1; k+1 < n; k++ {
		var tau float64
		if k >= 0 {
			tau = f.tau[k]
		}
		if tau != 0 {
			prow := qr.Row(k)
			for j := k + 1; j < n; j++ {
				w[j] *= tau
				prow[j] -= w[j]
			}
			wc := w[k+1]
			for i := k + 1; i < m; i++ {
				ri := qr.Row(i)
				if vi := ri[k]; vi != 0 {
					ri[k+1] -= vi * wc
				}
			}
		}
		f.tau[k+1] = houseColumn(qr, k+1, k+1)
		lookAheadSweep(qr, k, tau, w, f.tau[k+1], nx)
		w, nx = nx, w
	}
	return f
}

// lookAheadSweep updates columns [k+2, n) of rows k+1… with reflector k
// (stored in column k, scaled w in w) and accumulates reflector k+1's
// unscaled w — row k+1 plus Σ u_i·row i over the updated rows — into nx.
// tau and tau1 are the two reflectors' coefficients; a zero one drops that
// half of the sweep, as the two-sweep order skips an identity reflector.
func lookAheadSweep(a *Dense, k int, tau float64, w []float64, tau1 float64, nx []float64) {
	m, n := a.Dims()
	c := k + 2
	if c >= n || (tau == 0 && tau1 == 0) {
		return
	}
	w, nx = w[c:n], nx[c:n]
	// coef returns row r's reflector-k entry v and reflector-(k+1) entry u,
	// zero where that reflector is skipped.
	coef := func(r []float64) (v, u float64) {
		if tau != 0 {
			v = r[k]
		}
		if tau1 != 0 {
			u = r[k+1]
		}
		return v, u
	}
	r := a.Row(k + 1)
	v, _ := coef(r)
	r = r[c:n]
	sweepRow(r, v, w, 0, nx)
	if tau1 != 0 {
		copy(nx, r)
	}
	i := k + 2
	for ; i+1 < m; i += 2 {
		r0, r1 := a.Row(i), a.Row(i+1)
		v0, u0 := coef(r0)
		v1, u1 := coef(r1)
		r0, r1 = r0[c:n], r1[c:n]
		if v0 == 0 || v1 == 0 || u0 == 0 || u1 == 0 {
			sweepRow(r0, v0, w, u0, nx)
			sweepRow(r1, v1, w, u1, nx)
			continue
		}
		// Equal lengths let the compiler drop the loop's bounds checks.
		r1, w, nx := r1[:len(r0)], w[:len(r0)], nx[:len(r0)]
		for j, x := range r0 {
			x -= v0 * w[j]
			y := r1[j] - v1*w[j]
			r0[j] = x
			r1[j] = y
			t := nx[j] + u0*x
			nx[j] = t + u1*y
		}
	}
	if i < m {
		r := a.Row(i)
		v, u := coef(r)
		sweepRow(r[c:n], v, w, u, nx)
	}
}

// sweepRow is lookAheadSweep's one-row step: r ← r − v·w where v ≠ 0, then
// nx ← nx + u·r where u ≠ 0.
func sweepRow(r []float64, v float64, w []float64, u float64, nx []float64) {
	w, nx = w[:len(r)], nx[:len(r)]
	switch {
	case v != 0 && u != 0:
		for j, x := range r {
			x -= v * w[j]
			r[j] = x
			nx[j] += u * x
		}
	case v != 0:
		for j := range r {
			r[j] -= v * w[j]
		}
	case u != 0:
		for j, x := range r {
			nx[j] += u * x
		}
	}
}

// houseColumn generates a Householder reflector that annihilates the entries
// of column col below row row, storing the reflector in place. It returns the
// scalar tau; after the call, qr[row,col] holds the resulting R entry and the
// entries below hold the reflector's essential part.
func houseColumn(a *Dense, row, col int) float64 {
	m := a.Rows()
	// norm of a[row:m, col]
	var normSq float64
	for i := row + 1; i < m; i++ {
		v := a.At(i, col)
		normSq += v * v
	}
	alpha := a.At(row, col)
	if normSq == 0 {
		// Already triangular in this column; reflector is identity.
		return 0
	}
	beta := math.Sqrt(alpha*alpha + normSq)
	if alpha > 0 {
		beta = -beta
	}
	// v = x - beta·e1, normalized so v[0] = 1.
	v0 := alpha - beta
	for i := row + 1; i < m; i++ {
		a.Set(i, col, a.At(i, col)/v0)
	}
	a.Set(row, col, beta)
	return (beta - alpha) / beta
}

// applyHouseLeft applies the reflector stored in column col (with pivot at
// row) to columns [fromCol, n) of a, A ← (I − τ·v·vᵀ)·A, as the textbook
// two row-major sweeps through the scratch vector w (len ≥ n): w ← τ·(vᵀ·A),
// then A ← A − v·w. The pivoted QR uses it, since its next pivot needs every
// column norm after this reflector; NewQR fuses the second sweep with the
// next reflector's first.
func applyHouseLeft(a *Dense, row, col int, tau float64, fromCol int, w []float64) {
	m, n := a.Dims()
	if tau == 0 || fromCol >= n {
		return
	}
	prow := a.Row(row)
	copy(w[fromCol:n], prow[fromCol:])
	for i := row + 1; i < m; i++ {
		ri := a.Row(i)
		vi := ri[col]
		if vi == 0 {
			continue
		}
		for j := fromCol; j < n; j++ {
			w[j] += vi * ri[j]
		}
	}
	for j := fromCol; j < n; j++ {
		w[j] *= tau
		prow[j] -= w[j]
	}
	for i := row + 1; i < m; i++ {
		ri := a.Row(i)
		vi := ri[col]
		if vi == 0 {
			continue
		}
		for j := fromCol; j < n; j++ {
			ri[j] -= vi * w[j]
		}
	}
}

// applyQT computes y ← Qᵀ·y in place using the stored reflectors.
func (f *QR) applyQT(y []float64) {
	for k := 0; k < f.n; k++ {
		tau := f.tau[k]
		if tau == 0 {
			continue
		}
		w := y[k]
		for i := k + 1; i < f.m; i++ {
			w += f.qr.At(i, k) * y[i]
		}
		w *= tau
		y[k] -= w
		for i := k + 1; i < f.m; i++ {
			y[i] -= w * f.qr.At(i, k)
		}
	}
}

// RCond crudely estimates the reciprocal condition of R via the ratio of the
// smallest to largest diagonal magnitude. Zero means numerically singular.
func (f *QR) RCond() float64 {
	if f.n == 0 {
		return 1
	}
	minD, maxD := math.Inf(1), 0.0
	for k := 0; k < f.n; k++ {
		d := math.Abs(f.qr.At(k, k))
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		return 0
	}
	return minD / maxD
}

// Solve returns the least-squares solution x minimizing ‖A·x − b‖₂.
// It returns ErrRankDeficient when R has a (numerically) zero diagonal entry.
// The factorization's scratch workspace is reused across calls, so a QR
// value must not be shared by concurrent solvers.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.m {
		panic(fmt.Sprintf("linalg: QR.Solve rhs length %d != rows %d", len(b), f.m))
	}
	if f.work == nil {
		f.work = make([]float64, f.m)
	}
	y := f.work
	copy(y, b)
	f.applyQT(y)
	// Back substitution on the n×n upper triangle.
	x := make([]float64, f.n)
	tol := float64(f.m) * eps * f.maxDiag()
	for k := f.n - 1; k >= 0; k-- {
		d := f.qr.At(k, k)
		if math.Abs(d) <= tol {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrRankDeficient, k)
		}
		s := y[k]
		for j := k + 1; j < f.n; j++ {
			s -= f.qr.At(k, j) * x[j]
		}
		x[k] = s / d
	}
	return x, nil
}

func (f *QR) maxDiag() float64 {
	var mx float64
	for k := 0; k < f.n; k++ {
		if d := math.Abs(f.qr.At(k, k)); d > mx {
			mx = d
		}
	}
	if mx == 0 {
		return 1
	}
	return mx
}

const eps = 2.220446049250313e-16 // IEEE-754 double machine epsilon

// SolveLeastSquares is a convenience wrapper: QR-factorize a and solve for b.
// The input matrix is not modified.
func SolveLeastSquares(a *Dense, b []float64) ([]float64, error) {
	return SolveLeastSquaresInPlace(a.Clone(), b)
}

// SolveLeastSquaresInPlace is SolveLeastSquares for a matrix the caller
// builds only to solve once: a is factored in place, overwritten with the
// packed factors, and must not be read afterwards.
func SolveLeastSquaresInPlace(a *Dense, b []float64) ([]float64, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("linalg: under-determined system %d×%d: %w", m, n, ErrRankDeficient)
	}
	return factorQR(a).Solve(b)
}
