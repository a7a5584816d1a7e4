package linalg

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// residual returns ‖A·x − b‖₂.
func residual(a *Dense, x, b []float64) float64 {
	ax := a.MulVec(x)
	d := make([]float64, len(b))
	for i := range b {
		d[i] = ax[i] - b[i]
	}
	return Norm2(d)
}

func TestQRSolveExact(t *testing.T) {
	// Square well-conditioned system: solution must be (nearly) exact.
	a := NewDenseFrom(3, 3, []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	want := []float64{1, -2, 3}
	b := a.MulVec(want)
	x, err := NewQR(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestQRSolveRecoversPlantedSolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 25; trial++ {
		m := 5 + rng.IntN(20)
		n := 1 + rng.IntN(m)
		a := randomDense(rng, m, n)
		want := make([]float64, n)
		for j := range want {
			want[j] = rng.NormFloat64()
		}
		b := a.MulVec(want) // consistent system
		x, err := NewQR(a).Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j := range want {
			if math.Abs(x[j]-want[j]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, j, x[j], want[j])
			}
		}
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// Property: at the least-squares minimizer, the residual is orthogonal to
	// the column space: Aᵀ(Ax−b) = 0.
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 25; trial++ {
		m := 8 + rng.IntN(12)
		n := 1 + rng.IntN(6)
		a := randomDense(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := NewQR(a).Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		ax := a.MulVec(x)
		r := make([]float64, m)
		for i := range r {
			r[i] = ax[i] - b[i]
		}
		g := a.TMulVec(r)
		if Norm2(g) > 1e-8*(1+Norm2(b)) {
			t.Fatalf("trial %d: gradient norm %v too large", trial, Norm2(g))
		}
	}
}

func TestQRRankDeficientDetected(t *testing.T) {
	// Column 2 = 2 × column 0.
	a := NewDenseFrom(4, 3, []float64{
		1, 1, 2,
		2, 0, 4,
		3, 1, 6,
		4, 5, 8,
	})
	_, err := NewQR(a).Solve([]float64{1, 2, 3, 4})
	if !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("err = %v, want ErrRankDeficient", err)
	}
}

func TestQRUnderdeterminedRejected(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := SolveLeastSquares(a, []float64{0, 0}); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("err = %v, want ErrRankDeficient", err)
	}
}

func TestQRRCond(t *testing.T) {
	id := NewDenseFrom(2, 2, []float64{1, 0, 0, 1})
	if rc := NewQR(id).RCond(); math.Abs(rc-1) > 1e-14 {
		t.Fatalf("RCond(I) = %v, want 1", rc)
	}
	sing := NewDenseFrom(2, 2, []float64{1, 1, 1, 1})
	if rc := NewQR(sing).RCond(); rc > 1e-12 {
		t.Fatalf("RCond(singular) = %v, want ~0", rc)
	}
}

func TestPivotedQRRankKnown(t *testing.T) {
	cases := []struct {
		name string
		m    *Dense
		rank int
	}{
		{"identity3", NewDenseFrom(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}), 3},
		{"zero", NewDense(4, 3), 0},
		{"rank1", NewDenseFrom(3, 3, []float64{1, 2, 3, 2, 4, 6, 3, 6, 9}), 1},
		{"rank2tall", NewDenseFrom(4, 3, []float64{
			1, 0, 1,
			0, 1, 1,
			1, 1, 2,
			2, 1, 3,
		}), 2},
		{"wide", NewDenseFrom(2, 4, []float64{1, 0, 1, 0, 0, 1, 0, 1}), 2},
	}
	for _, c := range cases {
		if got := NewPivotedQR(c.m).Rank(); got != c.rank {
			t.Errorf("%s: Rank = %d, want %d", c.name, got, c.rank)
		}
	}
}

func TestPivotedQRRankRandomProducts(t *testing.T) {
	// Property: an m×n product B·C with B m×k, C k×n (random Gaussian) has
	// rank exactly min(k, m, n) almost surely.
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20; trial++ {
		m := 3 + rng.IntN(10)
		n := 3 + rng.IntN(10)
		k := 1 + rng.IntN(min(m, n))
		b := randomDense(rng, m, k)
		c := randomDense(rng, k, n)
		p := b.Mul(c)
		if got := NewPivotedQR(p).Rank(); got != k {
			t.Fatalf("trial %d: rank(B·C) = %d, want %d (m=%d n=%d)", trial, got, k, m, n)
		}
	}
}

func TestPivotedQRIndependentColumns(t *testing.T) {
	// Columns: c0, c1 independent; c2 = c0 + c1.
	a := NewDenseFrom(3, 3, []float64{
		1, 0, 1,
		0, 1, 1,
		0, 0, 0,
	})
	f := NewPivotedQR(a)
	if f.Rank() != 2 {
		t.Fatalf("Rank = %d, want 2", f.Rank())
	}
	// The first Rank() pivots index independent columns.
	sub := a.SelectColumns(f.perm[:f.Rank()])
	if NewPivotedQR(sub).Rank() != 2 {
		t.Fatal("selected columns are not independent")
	}
}

func TestPivotedQRSolveMinNorm(t *testing.T) {
	// Rank-deficient system: x should still reproduce b in the range.
	a := NewDenseFrom(3, 3, []float64{
		1, 0, 1,
		0, 1, 1,
		1, 1, 2,
	})
	want := []float64{2, 3, 0}
	b := a.MulVec(want)
	x := NewPivotedQR(a).SolveMinNorm(b)
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual %v for consistent rank-deficient system", r)
	}
}

func TestPivotedQRPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	a := randomDense(rng, 6, 6)
	perm := NewPivotedQR(a).perm
	seen := make(map[int]bool)
	for _, p := range perm {
		if p < 0 || p >= 6 || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
}

func TestCholeskySolve(t *testing.T) {
	// G = BᵀB + I is SPD.
	rng := rand.New(rand.NewPCG(21, 22))
	b := randomDense(rng, 8, 5)
	g := b.T().Mul(b)
	for i := 0; i < 5; i++ {
		g.Add(i, i, 1)
	}
	want := []float64{1, 2, 3, 4, 5}
	rhs := g.MulVec(want)
	ch, err := NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve(rhs)
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	g := NewDenseFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	if _, err := NewCholesky(g); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRegularizedRecovers(t *testing.T) {
	// Singular PSD matrix: plain Cholesky fails, regularized succeeds.
	g := NewDenseFrom(2, 2, []float64{1, 1, 1, 1})
	ch, lambda, err := NewCholeskyRegularized(g)
	if err != nil {
		t.Fatal(err)
	}
	if lambda == 0 {
		t.Fatal("expected nonzero ridge for singular matrix")
	}
	x := ch.Solve([]float64{2, 2})
	// Regularized solution of a consistent system stays near [1,1].
	if math.Abs(x[0]+x[1]-2) > 1e-3 {
		t.Fatalf("regularized solution %v drifted too far", x)
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-square input")
		}
	}()
	NewCholesky(NewDense(2, 3)) //nolint:errcheck
}

func TestQRZeroColumnMatrix(t *testing.T) {
	// Degenerate but legal: zero columns.
	a := NewDense(3, 0)
	x, err := NewQR(a).Solve([]float64{1, 2, 3})
	if err != nil || len(x) != 0 {
		t.Fatalf("x=%v err=%v, want empty solution", x, err)
	}
}
