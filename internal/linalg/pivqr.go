package linalg

import (
	"fmt"
	"math"
	"runtime"

	"lia/internal/par"
)

// PivotedQR is a rank-revealing Householder QR factorization with column
// pivoting: A·P = Q·R with the diagonal of R non-increasing in magnitude.
// It backs the minimum-norm fallback of the dense Phase-1 solve, which must
// resolve a rank-deficient system; exact rank questions about 0/1 matrices
// go to Span instead.
type PivotedQR struct {
	qr   *Dense
	tau  []float64
	perm []int // perm[k] = original column index now in position k
	m, n int
}

// NewPivotedQR computes the factorization of a (any shape; the input is not
// modified) on a single goroutine.
func NewPivotedQR(a *Dense) *PivotedQR {
	return NewPivotedQRWorkers(a, 1)
}

// pivotColChunk is the fixed width of the column blocks the parallel
// factorization distributes. Every per-column quantity (initial norm,
// reflector application, norm downdate) depends only on its own column, so
// the chunking — and therefore the worker count — never changes a single
// bit of the result; it only changes who computes it.
const pivotColChunk = 64

// minParallelCols is the trailing-matrix width below which the factorization
// stays serial even when workers are available: per-step goroutine dispatch
// dominates narrow updates.
const minParallelCols = 2 * pivotColChunk

// NewPivotedQRWorkers computes the factorization with the per-step column
// updates distributed over a worker pool. workers == 0 sizes the pool to
// GOMAXPROCS; values ≤ 1 run serial. Results are bitwise-identical across
// worker counts.
func NewPivotedQRWorkers(a *Dense, workers int) *PivotedQR {
	m, n := a.Dims()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < minParallelCols {
		workers = 1
	}
	f := &PivotedQR{qr: a.Clone(), tau: make([]float64, min(m, n)), perm: make([]int, n), m: m, n: n}
	for j := range f.perm {
		f.perm[j] = j
	}
	// Column squared norms, updated as the factorization proceeds.
	norms := make([]float64, n)
	exact := make([]float64, n)
	initNorms := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var s float64
			for i := 0; i < m; i++ {
				v := f.qr.At(i, j)
				s += v * v
			}
			norms[j] = s
			exact[j] = s
		}
	}
	// Per-worker reflector-application scratch, reused across steps.
	scratch := make([][]float64, workers)
	scratch[0] = make([]float64, n)
	forChunks := func(from int, do func(lo, hi int, w []float64)) {
		if workers <= 1 || n-from < minParallelCols {
			do(from, n, scratch[0])
			return
		}
		chunks := (n - from + pivotColChunk - 1) / pivotColChunk
		par.Do(workers, chunks, func(worker, c int) {
			if scratch[worker] == nil {
				scratch[worker] = make([]float64, n)
			}
			lo := from + c*pivotColChunk
			do(lo, min(lo+pivotColChunk, n), scratch[worker])
		})
	}
	forChunks(0, func(lo, hi int, _ []float64) { initNorms(lo, hi) })
	steps := min(m, n)
	for k := 0; k < steps; k++ {
		// Pick the remaining column with the largest updated norm.
		best, bestNorm := k, norms[k]
		for j := k + 1; j < n; j++ {
			if norms[j] > bestNorm {
				best, bestNorm = j, norms[j]
			}
		}
		if best != k {
			f.swapColumns(k, best)
			norms[k], norms[best] = norms[best], norms[k]
			exact[k], exact[best] = exact[best], exact[k]
			f.perm[k], f.perm[best] = f.perm[best], f.perm[k]
		}
		f.tau[k] = houseColumn(f.qr, k, k)
		// Apply the reflector and downdate the column norms, chunked over the
		// trailing columns; recompute a norm when cancellation bites (LAPACK
		// dgeqpf). Each column's arithmetic is chunk-local, so the parallel
		// and serial paths produce the same bits.
		forChunks(k+1, func(lo, hi int, w []float64) {
			applyHouseLeftCols(f.qr, k, k, f.tau[k], lo, hi, w)
			for j := lo; j < hi; j++ {
				r := f.qr.At(k, j)
				norms[j] -= r * r
				if norms[j] <= 1e-12*exact[j] || norms[j] < 0 {
					var s float64
					for i := k + 1; i < m; i++ {
						v := f.qr.At(i, j)
						s += v * v
					}
					norms[j] = s
					exact[j] = s
				}
			}
		})
	}
	return f
}

func (f *PivotedQR) swapColumns(a, b int) {
	for i := 0; i < f.m; i++ {
		va, vb := f.qr.At(i, a), f.qr.At(i, b)
		f.qr.Set(i, a, vb)
		f.qr.Set(i, b, va)
	}
}

// Rank returns the numerical rank using the default tolerance
// max(m,n)·eps·|R₀₀| (the usual SVD-style heuristic applied to the pivoted R).
func (f *PivotedQR) Rank() int {
	return f.RankTol(f.defaultTol())
}

func (f *PivotedQR) defaultTol() float64 {
	if len(f.tau) == 0 {
		return 0
	}
	return float64(max(f.m, f.n)) * eps * math.Abs(f.qr.At(0, 0)) * 16
}

// RankTol returns the number of diagonal entries of R with magnitude > tol.
func (f *PivotedQR) RankTol(tol float64) int {
	r := 0
	for k := 0; k < len(f.tau); k++ {
		if math.Abs(f.qr.At(k, k)) > tol {
			r++
		} else {
			break // diagonal is non-increasing in magnitude
		}
	}
	return r
}

// SolveMinNorm returns a basic least-squares solution even for rank-deficient
// systems: free (dependent) columns get 0 and the independent columns are
// solved by back substitution in the pivoted factorization.
func (f *PivotedQR) SolveMinNorm(b []float64) []float64 {
	if len(b) != f.m {
		panic(fmt.Sprintf("linalg: SolveMinNorm rhs length %d != rows %d", len(b), f.m))
	}
	y := make([]float64, f.m)
	copy(y, b)
	// Apply Qᵀ.
	for k := 0; k < len(f.tau); k++ {
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
	r := f.Rank()
	z := make([]float64, f.n) // solution in pivoted order
	for k := r - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < r; j++ {
			s -= f.qr.At(k, j) * z[j]
		}
		z[k] = s / f.qr.At(k, k)
	}
	x := make([]float64, f.n)
	for k := 0; k < f.n; k++ {
		x[f.perm[k]] = z[k]
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
