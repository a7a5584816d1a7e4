package linalg

import (
	"errors"
	"fmt"
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

// twoSweepQR is the textbook Householder QR that NewQR's look-ahead kernel
// must reproduce bit for bit: form reflector k, then apply it to the
// trailing columns in two sweeps (w ← τ·vᵀA, A ← A − v·w).
func twoSweepQR(a *Dense) *QR {
	m, n := a.Dims()
	f := &QR{qr: a.Clone(), tau: make([]float64, n), m: m, n: n}
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		f.tau[k] = houseColumn(f.qr, k, k, nil)
		applyHouseLeft(f.qr, k, k, f.tau[k], k+1, w)
	}
	return f
}

// randomTree returns the leaf-to-root link lists of a random tree with the
// given numbers of internal nodes and leaves, every internal node having at
// least two children. Link 0 is the access link that every path crosses;
// links 1…internal−1 end at internal nodes and the rest at leaves.
// children[u] lists the links hanging below internal node u.
func randomTree(rng *rand.Rand, internal, leaves int) (paths [][]int, children [][]int) {
	for {
		parent := make([]int, internal+leaves)
		parent[0] = -1
		children = make([][]int, internal)
		for u := 1; u < internal; u++ {
			parent[u] = rng.IntN(u)
			children[parent[u]] = append(children[parent[u]], u)
		}
		var short []int // internal nodes still owed a child, one entry per owed child
		for u := range children {
			for c := len(children[u]); c < 2; c++ {
				short = append(short, u)
			}
		}
		if len(short) > leaves {
			continue
		}
		for l := 0; l < leaves; l++ {
			u := rng.IntN(internal)
			if l < len(short) {
				u = short[l]
			}
			parent[internal+l] = u
			children[u] = append(children[u], internal+l)
		}
		paths = make([][]int, leaves)
		for l := range paths {
			for e := internal + l; e >= 0; e = parent[e] {
				paths[l] = append(paths[l], e)
			}
		}
		return paths, children
	}
}

// treeRStar builds a leaves×leaves reduced routing matrix R* of a random
// tree: every link except one random child link of each internal node, the
// dense access-link column included, in a random column order. It has full
// column rank, as the kept set of a Phase-2 elimination does.
func treeRStar(rng *rand.Rand, internal, leaves int) *Dense {
	paths, children := randomTree(rng, internal, leaves)
	dropped := make(map[int]bool, internal)
	for _, c := range children {
		dropped[c[rng.IntN(len(c))]] = true
	}
	var kept []int
	for e := 0; e < internal+leaves; e++ {
		if !dropped[e] {
			kept = append(kept, e)
		}
	}
	rng.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
	col := make(map[int]int, len(kept))
	for j, e := range kept {
		col[e] = j
	}
	a := NewDense(leaves, len(kept))
	for i, p := range paths {
		for _, e := range p {
			if j, ok := col[e]; ok {
				a.Set(i, j, 1)
			}
		}
	}
	return a
}

// treeAugmented builds the 0/1 augmented matrix of a random tree's Phase-1
// covariance equations: one row per path pair (i ≤ j) with a 1 on every
// link the two paths share, one column per link.
func treeAugmented(rng *rand.Rand, internal, leaves int) *Dense {
	paths, _ := randomTree(rng, internal, leaves)
	a := NewDense(leaves*(leaves+1)/2, internal+leaves)
	r := 0
	for i := range paths {
		on := make(map[int]bool, len(paths[i]))
		for _, e := range paths[i] {
			on[e] = true
		}
		for j := i; j < len(paths); j++ {
			for _, e := range paths[j] {
				if on[e] {
					a.Set(r, e, 1)
				}
			}
			r++
		}
	}
	return a
}

// blockDiagonal stacks Gaussian blocks of the given shapes down the
// diagonal. At each block boundary one reflector's entries are zero on the
// rows where the next one's are not, and the reverse.
func blockDiagonal(rng *rand.Rand, blocks [][2]int) *Dense {
	var m, n int
	for _, b := range blocks {
		m, n = m+b[0], n+b[1]
	}
	a := NewDense(m, n)
	i0, j0 := 0, 0
	for _, b := range blocks {
		for i := 0; i < b[0]; i++ {
			for j := 0; j < b[1]; j++ {
				a.Set(i0+i, j0+j, rng.NormFloat64())
			}
		}
		i0, j0 = i0+b[0], j0+b[1]
	}
	return a
}

// sparseGaussian keeps each entry of a Gaussian matrix with probability p.
func sparseGaussian(rng *rand.Rand, m, n int, p float64) *Dense {
	a := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				a.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return a
}

// negateZeros stores a's zeros as −0, which tells a skipped term from an
// added 0·x: the latter turns some of them into +0.
func negateZeros(a *Dense) *Dense {
	for i, v := range a.data {
		if v == 0 {
			a.data[i] = math.Copysign(0, -1)
		}
	}
	return a
}

type qrCase struct {
	name string
	a    *Dense
}

// TestQRMatchesTwoSweepBitwise pins NewQR's look-ahead kernel to the
// textbook two-sweep factorization: the packed factor, tau and every Solve
// result (or the rank-deficiency error and its column) must agree to the
// bit, so swapping kernels cannot move any fingerprint. The same holds for
// every input factored stored by its distinct rows (checkRepeatedBitwise).
func TestQRMatchesTwoSweepBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 600))
	triangular := NewDenseFrom(4, 3, []float64{
		2, 1, 0,
		0, 3, 1,
		0, 0, 0,
		0, 0, 0,
	})
	// Column 2's subdiagonal squares underflow to zero, so tau[2] == 0
	// while its reflector entries are not, and the reflector must be
	// skipped: applying it would write into the zeros of column 4.
	underflow := NewDense(7, 5)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			switch {
			case i < 3:
				underflow.Set(i, j, rng.NormFloat64())
			case j == 2:
				underflow.Set(i, j, 1e-170*rng.NormFloat64())
			case j == 3:
				underflow.Set(i, j, rng.NormFloat64())
			}
		}
	}
	// Rows of −0 are skipped by every reflector and must stay −0.
	zeroRows := randomDense(rng, 12, 6)
	for _, i := range []int{2, 3, 7, 11} {
		for j := 0; j < 6; j++ {
			zeroRows.Set(i, j, math.Copysign(0, -1))
		}
	}
	zeroCol := randomDense(rng, 6, 4)
	for i := 0; i < 6; i++ {
		zeroCol.Set(i, 1, 0)
	}
	cases := []qrCase{
		{"tree R* 600", treeRStar(rng, 220, 600)},
		{"tree R* 37", treeRStar(rng, 12, 37)},
		{"augmented 325x39", treeAugmented(rng, 14, 25)},
		{"augmented 325x39 b", treeAugmented(rng, 14, 25)},
		{"gaussian 50x20", randomDense(rng, 50, 20)},
		{"gaussian 51x20", randomDense(rng, 51, 20)},
		{"gaussian 9x9", randomDense(rng, 9, 9)},
		{"gaussian 8x8", randomDense(rng, 8, 8)},
		{"sparse 41x30", sparseGaussian(rng, 41, 30, 0.15)},
		{"sparse 40x40", sparseGaussian(rng, 40, 40, 0.3)},
		{"block diagonal", blockDiagonal(rng, [][2]int{{3, 2}, {4, 3}, {2, 2}, {5, 1}, {3, 3}})},
		{"sparse 31x24 -0", negateZeros(sparseGaussian(rng, 31, 24, 0.3))},
		{"block diagonal -0", negateZeros(blockDiagonal(rng, [][2]int{{4, 2}, {3, 3}, {2, 1}, {5, 3}, {2, 2}}))},
		{"underflow", underflow},
		{"-0 rows", zeroRows},
		{"triangular", triangular},
		{"identity", NewDenseFrom(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})},
		{"zero column", zeroCol},
		{"all zero", NewDense(5, 3)},
		{"0x0", NewDense(0, 0)},
		{"3x0", NewDense(3, 0)},
		{"1x1", randomDense(rng, 1, 1)},
		{"4x1", randomDense(rng, 4, 1)},
		{"2x2", randomDense(rng, 2, 2)},
		{"5x2", randomDense(rng, 5, 2)},
	}
	// Repeated rows, the shape Phase 1 factors: the augmented matrices of
	// trees of 5 to 40 leaves, and random 0/1 and −0-laden Gaussian
	// matrices whose rows repeat, also among the pivot rows, with zero
	// rows, a rank-deficient tree and square inputs with no row below the
	// pivots. Every case is also factored stored by its distinct rows.
	for leaves := 5; leaves <= 40; leaves++ {
		internal := 1 + rng.IntN(leaves/2)
		cases = append(cases, qrCase{fmt.Sprintf("tree %d leaves %d internal", leaves, internal), treeAugmented(rng, internal, leaves)})
	}
	for _, s := range [][3]int{{60, 8, 12}, {120, 20, 30}, {40, 12, 6}, {90, 15, 40}, {16, 16, 5}, {12, 12, 40}, {30, 1, 3}} {
		cases = append(cases,
			qrCase{fmt.Sprintf("0/1 pool %v", s), poolRows(rng, s[0], s[1], s[2], false)},
			qrCase{fmt.Sprintf("gaussian pool %v -0", s), poolRows(rng, s[0], s[1], s[2], true)})
	}
	deficient := treeAugmented(rng, 10, 20)
	for i := 0; i < deficient.rows; i++ {
		deficient.Set(i, 7, deficient.At(i, 3)) // column 7 repeats column 3
	}
	cases = append(cases, qrCase{"rank-deficient tree", deficient})
	for _, c := range cases {
		if err := checkRepeatedBitwise(c.a, rng); err != nil {
			t.Fatalf("%s, stored by distinct rows: %v", c.name, err)
		}
		m, n := c.a.Dims()
		orig := c.a.Clone()
		got, want := NewQR(c.a), twoSweepQR(c.a)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if c.a.At(i, j) != orig.At(i, j) {
					t.Fatalf("%s: NewQR modified its input at (%d,%d)", c.name, i, j)
				}
				if g, w := got.qr.At(i, j), want.qr.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: factor (%d,%d) = %v, want %v", c.name, i, j, g, w)
				}
			}
		}
		for k := range want.tau {
			if math.Float64bits(got.tau[k]) != math.Float64bits(want.tau[k]) {
				t.Fatalf("%s: tau[%d] = %v, want %v", c.name, k, got.tau[k], want.tau[k])
			}
		}
		for trial := 0; trial < 3; trial++ {
			b := randVec(rng, m)
			xg, errg := got.Solve(b)
			xw, errw := want.Solve(b)
			xi, erri := SolveLeastSquaresInPlace(c.a.Clone(), b)
			if fmt.Sprint(errg) != fmt.Sprint(errw) || fmt.Sprint(erri) != fmt.Sprint(errw) {
				t.Fatalf("%s: errors %v / %v (in place), want %v", c.name, errg, erri, errw)
			}
			if errw != nil && !errors.Is(errg, ErrRankDeficient) {
				t.Fatalf("%s: error %v, want ErrRankDeficient", c.name, errg)
			}
			for j := range xw {
				if math.Float64bits(xg[j]) != math.Float64bits(xw[j]) || math.Float64bits(xi[j]) != math.Float64bits(xw[j]) {
					t.Fatalf("%s: x[%d] = %v / %v (in place), want %v", c.name, j, xg[j], xi[j], xw[j])
				}
			}
		}
	}
}

// foldRepeated stores a by its distinct rows, the form
// SolveLeastSquaresRepeated takes: a's first n rows, then one copy of each
// distinct row below them in order of first appearance, with of mapping
// every row below the first n to its copy.
func foldRepeated(a *Dense) (*Dense, []int32) {
	m, n := a.Dims()
	seen := make(map[string]int32)
	var dist [][]float64
	of := make([]int32, 0, max(m-n, 0))
	for i := n; i < m; i++ {
		key := fmt.Sprint(a.Row(i))
		for _, v := range a.Row(i) {
			key += fmt.Sprint(math.Signbit(v)) // tell −0 from +0
		}
		t, ok := seen[key]
		if !ok {
			t = int32(len(dist))
			seen[key] = t
			dist = append(dist, a.Row(i))
		}
		of = append(of, t)
	}
	stored := NewDense(min(m, n)+len(dist), n)
	copy(stored.data, a.data[:min(m, n)*n])
	for t, r := range dist {
		copy(stored.Row(n+t), r)
	}
	return stored, of
}

// checkRepeatedBitwise factors a stored by its distinct rows and compares
// the result with the two-sweep factorization of a itself: the packed
// factor row by row, tau, and the Solve results and errors of three random
// right-hand sides, all to the bit.
func checkRepeatedBitwise(a *Dense, rng *rand.Rand) error {
	m, n := a.Dims()
	stored, of := foldRepeated(a)
	want := twoSweepQR(a)
	got := factorQR(stored.Clone(), of)
	if got.m != m || got.n != n {
		return fmt.Errorf("factor is %d×%d, want %d×%d", got.m, got.n, m, n)
	}
	for i := 0; i < m; i++ {
		row := got.qr.data[got.rowAt(i) : got.rowAt(i)+n]
		for j, g := range row {
			if w := want.qr.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("factor (%d,%d) = %v, want %v", i, j, g, w)
			}
		}
	}
	for k := range want.tau {
		if math.Float64bits(got.tau[k]) != math.Float64bits(want.tau[k]) {
			return fmt.Errorf("tau[%d] = %v, want %v", k, got.tau[k], want.tau[k])
		}
	}
	for trial := 0; trial < 3; trial++ {
		b := randVec(rng, m)
		xg, errg := got.Solve(b)
		xw, errw := want.Solve(b)
		xs, errs := SolveLeastSquaresRepeated(stored.Clone(), of, b)
		if fmt.Sprint(errg) != fmt.Sprint(errw) || fmt.Sprint(errs) != fmt.Sprint(errw) {
			return fmt.Errorf("errors %v / %v (SolveLeastSquaresRepeated), want %v", errg, errs, errw)
		}
		if errw != nil && !errors.Is(errg, ErrRankDeficient) {
			return fmt.Errorf("error %v, want ErrRankDeficient", errg)
		}
		for j := range xw {
			if math.Float64bits(xg[j]) != math.Float64bits(xw[j]) || math.Float64bits(xs[j]) != math.Float64bits(xw[j]) {
				return fmt.Errorf("x[%d] = %v / %v (SolveLeastSquaresRepeated), want %v", j, xg[j], xs[j], xw[j])
			}
		}
	}
	return nil
}

// poolRows draws m rows of n columns with replacement from a pool of
// distinct random rows: 0/1 rows when gauss is false, sparse Gaussian rows
// with their zeros stored as −0 otherwise. The pool holds an all-zero row,
// and rows repeat among the first n as well as below them.
func poolRows(rng *rand.Rand, m, n, pool int, gauss bool) *Dense {
	p := NewDense(pool, n)
	for i := 1; i < pool; i++ {
		for j := 0; j < n; j++ {
			if rng.IntN(3) == 0 {
				if gauss {
					p.Set(i, j, rng.NormFloat64())
				} else {
					p.Set(i, j, 1)
				}
			}
		}
	}
	if gauss {
		negateZeros(p)
	}
	a := NewDense(m, n)
	for i := 0; i < m; i++ {
		copy(a.Row(i), p.Row(rng.IntN(pool)))
	}
	return a
}
