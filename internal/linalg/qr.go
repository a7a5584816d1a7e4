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
	qr *Dense // packed factors: R in the upper triangle, reflectors below
	// of, when non-nil, folds A's repeated rows: qr stores A's pivot rows
	// 0…n−1 and then its distinct rows, and A's row n+t is stored row
	// n+of[t]. When nil, qr stores every row of A.
	of   []int32
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
//
// The same kernel factors a tall matrix stored by its distinct rows
// (SolveLeastSquaresRepeated). Two rows below the pivot rows 0…n−1 that are
// equal in A stay equal under every reflector, since each reflector updates
// a row from that row's own entries and the shared w. So the sweep updates
// each distinct row, and forms its product u·x with reflector k+1's entry
// u, once. Only the sums over rows — the reflector norm Σ v² and the
// accumulation of w — walk every row of A in row order, adding a repeated
// row's shared term once per occurrence, each with its own rounding. The
// packed factor and τ are those of the expanded matrix, bit for bit.
func NewQR(a *Dense) *QR {
	if m, n := a.Dims(); m < n {
		panic(fmt.Sprintf("linalg: QR requires rows ≥ cols, got %d×%d", m, n))
	}
	return factorQR(a.Clone(), nil)
}

// factorQR factors qr in place; see NewQR. of folds repeated rows as in
// QR.of (nil: qr holds every row).
func factorQR(qr *Dense, of []int32) *QR {
	m, n := qr.Dims()
	if of != nil {
		m = n + len(of)
	}
	f := &QR{qr: qr, of: of, tau: make([]float64, n), m: m, n: n}
	d := qr.data
	// w is reflector k's w over columns [k+1, n); nx is reflector k+1's,
	// built by the sweep.
	buf := make([]float64, 2*n)
	w, nx := buf[:n], buf[n:]
	// The plain sweep walks every stored row; with repeated rows folded it
	// stops at the pivot rows and repeatedSweep takes the rest.
	end := qr.rows
	var rep *repeatedSweep
	if of != nil {
		end = n
		rep = newRepeatedSweep(qr, of)
	}
	// k = −1 has no reflector to apply: its sweep only accumulates
	// reflector 0's w.
	for k := -1; k+1 < n; k++ {
		var tau float64
		if k >= 0 {
			tau = f.tau[k]
		}
		if tau != 0 {
			prow := d[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				w[j] *= tau
				prow[j] -= w[j]
			}
			wc := w[k+1]
			// Every stored row below the pivot, each distinct row once.
			for off := (k+1)*n + k; off < len(d); off += n {
				if vi := d[off]; vi != 0 {
					d[off+1] -= vi * wc
				}
			}
		}
		f.tau[k+1] = houseColumn(qr, k+1, k+1, of)
		lookAheadSweep(qr, end, k, tau, w, f.tau[k+1], nx)
		if rep != nil {
			rep.sweep(k, tau, w, f.tau[k+1], nx)
		}
		w, nx = nx, w
	}
	return f
}

// lookAheadSweep updates columns [k+2, n) of the stored rows k+1…end−1 with
// reflector k (stored in column k, scaled w in w) and accumulates reflector
// k+1's unscaled w — row k+1 plus Σ u_i·row i over the updated rows — into
// nx. tau and tau1 are the two reflectors' coefficients; a zero one drops
// that half of the sweep, as the two-sweep order skips an identity
// reflector.
func lookAheadSweep(a *Dense, end, k int, tau float64, w []float64, tau1 float64, nx []float64) {
	n := a.cols
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
	for ; i+1 < end; i += 2 {
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
			t := nx[j] + float64(u0*x)
			nx[j] = t + float64(u1*y)
		}
	}
	if i < end {
		r := a.Row(i)
		v, u := coef(r)
		sweepRow(r[c:n], v, w, u, nx)
	}
}

// repeatedSweep is lookAheadSweep over the repeated rows n… of a matrix
// stored by its distinct rows (QR.of), with its scratch.
type repeatedSweep struct {
	dist []float64 // the stored distinct rows, row-major with stride n
	of   []int32
	n    int
	prod []float64 // u·x of each distinct row, row-major with stride n−k−2
	live []int32   // prod offsets of the rows reflector k+1 adds, in row order
}

func newRepeatedSweep(a *Dense, of []int32) *repeatedSweep {
	n := a.cols
	dist := a.data[n*n:]
	return &repeatedSweep{dist: dist, of: of, n: n,
		prod: make([]float64, len(dist)), live: make([]int32, 0, len(of))}
}

// sweep updates columns [k+2, n) of each distinct row once with reflector k
// and forms the row's product u·x with reflector k+1's entry u once, then
// adds those products into nx for every row of A below the pivot rows, in
// row order, one addition per occurrence. The skip rules are lookAheadSweep's.
func (s *repeatedSweep) sweep(k int, tau float64, w []float64, tau1 float64, nx []float64) {
	n := s.n
	c := k + 2
	if c >= n || (tau == 0 && tau1 == 0) {
		return
	}
	wl := n - c
	w, nx = w[c:n], nx[c:n]
	for t, off := 0, 0; off < len(s.dist); t, off = t+1, off+n {
		r := s.dist[off : off+n]
		var v, u float64
		if tau != 0 {
			v = r[k]
		}
		if tau1 != 0 {
			u = r[k+1]
		}
		x := r[c:n]
		if v != 0 {
			w := w[:len(x)]
			for j := range x {
				x[j] -= v * w[j]
			}
		}
		if u != 0 {
			p := s.prod[t*wl : (t+1)*wl]
			for j, xj := range x {
				p[j] = u * xj
			}
		}
	}
	if tau1 == 0 {
		return
	}
	s.live = s.live[:0]
	for _, t := range s.of {
		if s.dist[int(t)*n+k+1] != 0 {
			s.live = append(s.live, t*int32(wl))
		}
	}
	accumulateRows(nx, s.prod, s.live)
}

// accumulateRows adds the row of prod at each offset in live to nx, in the
// order live lists them: each nx[j] receives its terms in that order, one
// rounding per addition. Eight columns stay in registers across all rows.
func accumulateRows(nx, prod []float64, live []int32) {
	j := 0
	for ; j+8 <= len(nx); j += 8 {
		s0, s1, s2, s3 := nx[j], nx[j+1], nx[j+2], nx[j+3]
		s4, s5, s6, s7 := nx[j+4], nx[j+5], nx[j+6], nx[j+7]
		for _, o := range live {
			p := prod[int(o)+j : int(o)+j+8]
			s0 += p[0]
			s1 += p[1]
			s2 += p[2]
			s3 += p[3]
			s4 += p[4]
			s5 += p[5]
			s6 += p[6]
			s7 += p[7]
		}
		nx[j], nx[j+1], nx[j+2], nx[j+3] = s0, s1, s2, s3
		nx[j+4], nx[j+5], nx[j+6], nx[j+7] = s4, s5, s6, s7
	}
	for ; j < len(nx); j++ {
		s := nx[j]
		for _, o := range live {
			s += prod[int(o)+j]
		}
		nx[j] = s
	}
}

// sweepRow is lookAheadSweep's one-row step: r ← r − v·w where v ≠ 0, then
// nx ← nx + u·r where u ≠ 0. Each product u·x is rounded on its own, as
// repeatedSweep's stored products are: the conversion stops a compiler from
// fusing it into the addition.
func sweepRow(r []float64, v float64, w []float64, u float64, nx []float64) {
	w, nx = w[:len(r)], nx[:len(r)]
	switch {
	case v != 0 && u != 0:
		for j, x := range r {
			x -= v * w[j]
			r[j] = x
			nx[j] += float64(u * x)
		}
	case v != 0:
		for j := range r {
			r[j] -= v * w[j]
		}
	case u != 0:
		for j, x := range r {
			nx[j] += float64(u * x)
		}
	}
}

// houseColumn generates a Householder reflector that annihilates the entries
// of column col below row row, storing the reflector in place. It returns the
// scalar tau; after the call, qr[row,col] holds the resulting R entry and the
// entries below hold the reflector's essential part. of folds repeated rows
// as in QR.of: the norm sums every row of A, and each stored row is scaled
// once.
func houseColumn(a *Dense, row, col int, of []int32) float64 {
	n, d := a.cols, a.data
	// norm of A[row:m, col]
	var normSq float64
	end := len(d)
	if of != nil {
		end = n * n
	}
	for off := (row+1)*n + col; off < end; off += n {
		v := d[off]
		normSq += v * v
	}
	for _, t := range of {
		v := d[end+int(t)*n+col]
		normSq += v * v
	}
	alpha := d[row*n+col]
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
	for off := (row+1)*n + col; off < len(d); off += n {
		d[off] /= v0
	}
	d[row*n+col] = beta
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
			w[j] += float64(vi * ri[j])
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

// rowAt returns the offset in qr.data of row i of A.
func (f *QR) rowAt(i int) int {
	if f.of != nil && i >= f.n {
		i = f.n + int(f.of[i-f.n])
	}
	return i * f.n
}

// applyQT computes y ← Qᵀ·y in place using the stored reflectors.
func (f *QR) applyQT(y []float64) {
	d := f.qr.data
	for k := 0; k < f.n; k++ {
		tau := f.tau[k]
		if tau == 0 {
			continue
		}
		w := y[k]
		for i := k + 1; i < f.m; i++ {
			w += d[f.rowAt(i)+k] * y[i]
		}
		w *= tau
		y[k] -= w
		for i := k + 1; i < f.m; i++ {
			y[i] -= w * d[f.rowAt(i)+k]
		}
	}
}

// diag returns R's diagonal entry k.
func (f *QR) diag(k int) float64 { return f.qr.data[k*f.n+k] }

// RCond crudely estimates the reciprocal condition of R via the ratio of the
// smallest to largest diagonal magnitude. Zero means numerically singular.
func (f *QR) RCond() float64 {
	if f.n == 0 {
		return 1
	}
	minD, maxD := math.Inf(1), 0.0
	for k := 0; k < f.n; k++ {
		d := math.Abs(f.diag(k))
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
		row := f.qr.data[k*f.n : (k+1)*f.n]
		d := row[k]
		if math.Abs(d) <= tol {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrRankDeficient, k)
		}
		s := y[k]
		for j := k + 1; j < f.n; j++ {
			s -= row[j] * x[j]
		}
		x[k] = s / d
	}
	return x, nil
}

func (f *QR) maxDiag() float64 {
	var mx float64
	for k := 0; k < f.n; k++ {
		if d := math.Abs(f.diag(k)); d > mx {
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
	return factorQR(a, nil).Solve(b)
}

// SolveLeastSquaresRepeated is SolveLeastSquaresInPlace for a tall m×n
// matrix A stored by its distinct rows: A's first n rows are a's first n
// rows, and A's row n+t is a's row n+of[t] for t < len(of), so m = n +
// len(of) and b has length m. Its rows below the first n need not be
// distinct, and every row of a past the first n should appear in of. The
// factorization sweeps each stored row once (see NewQR), and the solution is
// bitwise that of SolveLeastSquares on the expanded A. a is overwritten with
// the packed factors.
func SolveLeastSquaresRepeated(a *Dense, of []int32, b []float64) ([]float64, error) {
	r, n := a.Dims()
	if r < n {
		return nil, fmt.Errorf("linalg: %d stored rows for %d columns: %w", r, n, ErrRankDeficient)
	}
	for _, t := range of {
		if t < 0 || int(t) >= r-n {
			panic(fmt.Sprintf("linalg: repeated row %d out of range %d", t, r-n))
		}
	}
	if of == nil {
		of = []int32{}
	}
	return factorQR(a, of).Solve(b)
}
