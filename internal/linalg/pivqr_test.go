package linalg

import (
	"math/rand/v2"
	"testing"
)

// randomLowRank builds an m×n matrix of numerical rank r as a product of
// random factors.
func randomLowRank(rng *rand.Rand, m, n, r int) *Dense {
	left := NewDense(m, r)
	right := NewDense(r, n)
	for i := 0; i < m; i++ {
		for k := 0; k < r; k++ {
			left.Set(i, k, rng.NormFloat64())
		}
	}
	for k := 0; k < r; k++ {
		for j := 0; j < n; j++ {
			right.Set(k, j, rng.NormFloat64())
		}
	}
	return left.Mul(right)
}

// TestPivotedQRWorkersBitwiseDeterministic is the contract the parallel
// Phase-1 minimum-norm fallback rests on: the factorization's column updates are
// independent, so any worker count must reproduce the serial result
// bit-for-bit — factors, reflectors, permutation, rank, and solutions.
func TestPivotedQRWorkersBitwiseDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, dims := range [][3]int{{40, 30, 30}, {80, 150, 90}, {200, 160, 120}} {
		m, n, r := dims[0], dims[1], dims[2]
		if r > min(m, n) {
			r = min(m, n)
		}
		a := randomLowRank(rng, m, n, r)
		ref := NewPivotedQRWorkers(a, 1)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		refSol := ref.SolveMinNorm(b)
		for _, workers := range []int{2, 3, 8, 0} {
			f := NewPivotedQRWorkers(a, workers)
			if f.Rank() != ref.Rank() {
				t.Fatalf("%dx%d workers=%d: rank %d, want %d", m, n, workers, f.Rank(), ref.Rank())
			}
			for k := range f.perm {
				if f.perm[k] != ref.perm[k] {
					t.Fatalf("%dx%d workers=%d: perm[%d] = %d, want %d", m, n, workers, k, f.perm[k], ref.perm[k])
				}
			}
			for k := range f.tau {
				if f.tau[k] != ref.tau[k] {
					t.Fatalf("%dx%d workers=%d: tau[%d] differs", m, n, workers, k)
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if f.qr.At(i, j) != ref.qr.At(i, j) {
						t.Fatalf("%dx%d workers=%d: factor (%d,%d) differs", m, n, workers, i, j)
					}
				}
			}
			sol := f.SolveMinNorm(b)
			for k := range sol {
				if sol[k] != refSol[k] {
					t.Fatalf("%dx%d workers=%d: solution[%d] differs", m, n, workers, k)
				}
			}
		}
	}
}

// TestPivotedQRRankRecovery pins the rank-revealing property across the
// parallel path.
func TestPivotedQRRankRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for _, workers := range []int{1, 4} {
		for trial := 0; trial < 5; trial++ {
			m := 60 + rng.IntN(80)
			n := 140 + rng.IntN(60) // wide enough to engage the parallel path
			r := 1 + rng.IntN(min(m, n)-1)
			a := randomLowRank(rng, m, n, r)
			if got := NewPivotedQRWorkers(a, workers).Rank(); got != r {
				t.Fatalf("workers=%d trial %d: rank %d, want %d (%dx%d)", workers, trial, got, r, m, n)
			}
		}
	}
}
