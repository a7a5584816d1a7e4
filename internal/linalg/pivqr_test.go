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

// TestPivotedQRRankRecovery pins the rank-revealing property on wide
// low-rank products.
func TestPivotedQRRankRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for trial := 0; trial < 10; trial++ {
		m := 60 + rng.IntN(80)
		n := 140 + rng.IntN(60)
		r := 1 + rng.IntN(min(m, n)-1)
		a := randomLowRank(rng, m, n, r)
		if got := NewPivotedQR(a).Rank(); got != r {
			t.Fatalf("trial %d: rank %d, want %d (%dx%d)", trial, got, r, m, n)
		}
	}
}
