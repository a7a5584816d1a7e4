package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCovAccumulatorMatchesDirect(t *testing.T) {
	// Streaming covariance must equal the textbook two-pass formula.
	rng := rand.New(rand.NewPCG(1, 2))
	const dim, n = 5, 200
	data := make([][]float64, n)
	for i := range data {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
		}
		data[i] = row
	}
	acc := Covariance(data)
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			var ma, mb float64
			for i := range data {
				ma += data[i][a]
				mb += data[i][b]
			}
			ma /= n
			mb /= n
			var s float64
			for i := range data {
				s += (data[i][a] - ma) * (data[i][b] - mb)
			}
			want := s / (n - 1)
			if got := acc.Cov(a, b); math.Abs(got-want) > 1e-10 {
				t.Fatalf("Cov(%d,%d) = %v, want %v", a, b, got, want)
			}
			if acc.Cov(b, a) != acc.Cov(a, b) {
				t.Fatal("covariance not symmetric in arguments")
			}
		}
	}
}

func TestCovAccumulatorGaussianRecovery(t *testing.T) {
	// Property: i.i.d. N(0, σ²) coordinates yield Cov ≈ diag(σ²).
	rng := rand.New(rand.NewPCG(3, 4))
	acc := NewCovAccumulator(2)
	for i := 0; i < 20000; i++ {
		acc.Add([]float64{2 * rng.NormFloat64(), 0.5 * rng.NormFloat64()})
	}
	if v := acc.Cov(0, 0); math.Abs(v-4) > 0.3 {
		t.Errorf("Var₀ = %v, want ≈4", v)
	}
	if v := acc.Cov(1, 1); math.Abs(v-0.25) > 0.05 {
		t.Errorf("Var₁ = %v, want ≈0.25", v)
	}
	if c := acc.Cov(0, 1); math.Abs(c) > 0.05 {
		t.Errorf("Cov = %v, want ≈0", c)
	}
}

func TestCovAccumulatorErrors(t *testing.T) {
	acc := NewCovAccumulator(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Cov with <2 samples should panic")
			}
		}()
		acc.Add([]float64{1, 2})
		acc.Cov(0, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add with wrong dimension should panic")
			}
		}()
		acc.Add([]float64{1})
	}()
}

func TestErrorFactor(t *testing.T) {
	cases := []struct {
		q, qs, want float64
	}{
		{0.1, 0.1, 1},
		{0.1, 0.2, 2},
		{0.2, 0.1, 2},
		{0, 0, 1},          // both clamp to δ
		{0, 0.01, 10},      // q clamps to δ=1e-3
		{0.0005, 0.001, 1}, // both clamp up to δ
	}
	for _, c := range cases {
		if got := ErrorFactor(c.q, c.qs, DefaultDelta); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ErrorFactor(%g,%g) = %g, want %g", c.q, c.qs, got, c.want)
		}
	}
}

func TestErrorFactorSymmetryProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		x := ErrorFactor(a, b, DefaultDelta)
		y := ErrorFactor(b, a, DefaultDelta)
		return x >= 1 && math.Abs(x-y) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDetect(t *testing.T) {
	truth := []bool{true, true, false, false, true}
	inferred := []bool{true, false, true, false, true}
	d := Detect(truth, inferred)
	if d.TruePositives != 2 || d.FalseNegatives != 1 || d.FalsePositives != 1 {
		t.Fatalf("counts: %+v", d)
	}
	if math.Abs(d.DR-2.0/3) > 1e-12 {
		t.Errorf("DR = %v, want 2/3", d.DR)
	}
	if math.Abs(d.FPR-1.0/3) > 1e-12 {
		t.Errorf("FPR = %v, want 1/3 (|X\\F|/|X|)", d.FPR)
	}
}

func TestDetectEdgeCases(t *testing.T) {
	d := Detect([]bool{false, false}, []bool{false, false})
	if d.DR != 1 || d.FPR != 0 {
		t.Fatalf("empty case: %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Detect([]bool{true}, []bool{true, false})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Min != 1 || s.Median != 2 || s.Max != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	s = Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("even-length median = %v, want 2.5", s.Median)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	if q := Quantile(xs, 0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 2 {
		t.Errorf("q.5 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 1 {
		t.Errorf("q.25 = %v", q)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.2, 0.4}
	got := CDF(xs, []float64{0, 0.1, 0.2, 0.3, 0.5})
	want := []float64{0, 0.25, 0.75, 0.75, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("CDF = %v, want %v", got, want)
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if r := Pearson(x, []float64{5, 5, 5, 5}); r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want 32/7", v)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("edge cases wrong")
	}
}

func TestCovAccumulatorAddZeroAlloc(t *testing.T) {
	// Add and AddBatch sit on the Phase-1 snapshot ingest path: they must not
	// allocate.
	acc := NewCovAccumulator(64)
	y := make([]float64, 64)
	for i := range y {
		y[i] = float64(i%7) - 3
	}
	if n := testing.AllocsPerRun(100, func() { acc.Add(y) }); n != 0 {
		t.Errorf("CovAccumulator.Add allocates %v times per run", n)
	}
	ys := [][]float64{y, y, y, y, y, y, y, y, y, y, y}
	if n := testing.AllocsPerRun(100, func() { acc.AddBatch(ys) }); n != 0 {
		t.Errorf("CovAccumulator.AddBatch allocates %v times per run", n)
	}
}
