package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMulVecToMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {17, 17}, {50, 33}, {64, 128}} {
		m := randMat(rng, dims[0], dims[1])
		x := randVec(rng, dims[1])
		dst := make([]float64, dims[0])
		m.MulVecTo(dst, x)
		for i := 0; i < dims[0]; i++ {
			var want float64
			for j := 0; j < dims[1]; j++ {
				want += m.At(i, j) * x[j]
			}
			if math.Abs(dst[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%v: MulVecTo[%d] = %g, want %g", dims, i, dst[i], want)
			}
		}
		// Dirty destinations must be overwritten, not accumulated into.
		for i := range dst {
			dst[i] = math.NaN()
		}
		m.MulVecTo(dst, x)
		if got := m.MulVec(x); !vecsClose(dst, got, 0) {
			t.Fatalf("%v: MulVecTo with dirty dst differs from MulVec", dims)
		}
	}
}

func TestTMulVecToMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, dims := range [][2]int{{1, 1}, {7, 3}, {17, 17}, {33, 50}, {128, 64}} {
		m := randMat(rng, dims[0], dims[1])
		x := randVec(rng, dims[0])
		dst := make([]float64, dims[1])
		for i := range dst {
			dst[i] = math.NaN() // must be fully overwritten
		}
		m.TMulVecTo(dst, x)
		for j := 0; j < dims[1]; j++ {
			var want float64
			for i := 0; i < dims[0]; i++ {
				want += m.At(i, j) * x[i]
			}
			if math.Abs(dst[j]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%v: TMulVecTo[%d] = %g, want %g", dims, j, dst[j], want)
			}
		}
	}
}

func vecsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestDotUnrolledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000} {
		x, y := randVec(rng, n), randVec(rng, n)
		var want float64
		for i := range x {
			want += x[i] * y[i]
		}
		if got := DotUnrolled(x, y); math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("n=%d: DotUnrolled = %g, want %g", n, got, want)
		}
	}
}

func TestBlockedMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	// Spans block boundaries: below, at, and beyond mulBlock.
	for _, dims := range [][3]int{{3, 5, 4}, {60, 127, 40}, {20, 128, 20}, {10, 300, 17}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		got := a.Mul(b)
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[2]; j++ {
				var want float64
				for k := 0; k < dims[1]; k++ {
					want += a.At(i, k) * b.At(k, j)
				}
				if math.Abs(got.At(i, j)-want) > 1e-10*(1+math.Abs(want)) {
					t.Fatalf("%v: Mul[%d,%d] = %g, want %g", dims, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestBlockedTransposeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	// Spans tile boundaries: below, at, and beyond transBlock.
	for _, dims := range [][2]int{{1, 1}, {31, 33}, {32, 32}, {100, 45}, {7, 130}} {
		m := randMat(rng, dims[0], dims[1])
		tr := m.T()
		if r, c := tr.Dims(); r != dims[1] || c != dims[0] {
			t.Fatalf("%v: T dims = %d×%d", dims, r, c)
		}
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				if tr.At(j, i) != m.At(i, j) {
					t.Fatalf("%v: T[%d,%d] != M[%d,%d]", dims, j, i, i, j)
				}
			}
		}
	}
}

func TestCholeskySolveToReuse(t *testing.T) {
	// Repeated SolveTo calls through the shared workspace must match Solve.
	rng := rand.New(rand.NewPCG(13, 14))
	a := randMat(rng, 30, 12)
	g := a.T().Mul(a) // SPD
	ch, err := NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 12)
	for rep := 0; rep < 3; rep++ {
		b := randVec(rng, 12)
		ch.SolveTo(dst, b)
		want := ch.Solve(b)
		if !vecsClose(dst, want, 0) {
			t.Fatalf("rep %d: SolveTo differs from Solve", rep)
		}
		// Residual check: G·x ≈ b.
		res := g.MulVec(dst)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				t.Fatalf("rep %d: residual[%d] = %g", rep, i, res[i]-b[i])
			}
		}
	}
}

func TestKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	m := randMat(rng, 64, 48)
	x := randVec(rng, 48)
	xt := randVec(rng, 64)
	dst := make([]float64, 64)
	dstT := make([]float64, 48)
	if n := testing.AllocsPerRun(100, func() { m.MulVecTo(dst, x) }); n != 0 {
		t.Errorf("MulVecTo allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.TMulVecTo(dstT, xt) }); n != 0 {
		t.Errorf("TMulVecTo allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { DotUnrolled(x, x) }); n != 0 {
		t.Errorf("DotUnrolled allocates %v times per run", n)
	}
	a := randMat(rng, 20, 8)
	g := a.T().Mul(a)
	ch, err := NewCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(rng, 8)
	out := make([]float64, 8)
	ch.SolveTo(out, b) // warm the lazy workspace
	if n := testing.AllocsPerRun(100, func() { ch.SolveTo(out, b) }); n != 0 {
		t.Errorf("Cholesky.SolveTo allocates %v times per run", n)
	}
}
