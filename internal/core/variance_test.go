package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"lia/internal/linalg"
	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// syntheticSnapshots draws m snapshots of Y = R·X with X ~ independent
// zero-mean Gaussians of the given per-link variances — the exact generative
// model of Section 4 — and accumulates their covariance.
func syntheticSnapshots(rng *rand.Rand, rm *topology.RoutingMatrix, vars []float64, m int) *stats.CovAccumulator {
	acc := stats.NewCovAccumulator(rm.NumPaths())
	x := make([]float64, rm.NumLinks())
	y := make([]float64, rm.NumPaths())
	for t := 0; t < m; t++ {
		for k := range x {
			x[k] = rng.NormFloat64() * math.Sqrt(vars[k])
		}
		for i := range y {
			y[i] = 0
			for _, k := range rm.Row(i) {
				y[i] += x[k]
			}
		}
		acc.Add(y)
	}
	return acc
}

func testVarianceRecovery(t *testing.T, method VarianceMethod) {
	t.Helper()
	rng := rand.New(rand.NewPCG(9, uint64(method)))
	net := topogen.Tree(rng, 80, 5)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, rm.NumLinks())
	for k := range truth {
		if rng.Float64() < 0.1 {
			truth[k] = 0.01 + 0.02*rng.Float64() // congested: high variance
		} else {
			truth[k] = 1e-6 * rng.Float64() // good: ~zero variance
		}
	}
	acc := syntheticSnapshots(rng, rm, truth, 4000)
	got, err := EstimateVariances(rm, acc, VarianceOptions{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	for k := range truth {
		tol := 0.25*truth[k] + 5e-4
		if math.Abs(got[k]-truth[k]) > tol {
			t.Errorf("link %d: variance %g, want %g (±%g)", k, got[k], truth[k], tol)
		}
	}
}

func TestVarianceRecoveryDenseQR(t *testing.T)    { testVarianceRecovery(t, VarianceDenseQR) }
func TestVarianceRecoveryNormalEqns(t *testing.T) { testVarianceRecovery(t, VarianceNormalEquations) }

func TestVarianceMethodsAgree(t *testing.T) {
	// Both solvers minimize the same least-squares objective, so on the same
	// moments they must agree to numerical precision.
	rng := rand.New(rand.NewPCG(10, 20))
	rm := figure2(t)
	truth := []float64{0.02, 0.001, 0.005, 0, 0.01, 0.0002, 0.003, 0}
	truth = truth[:rm.NumLinks()]
	acc := syntheticSnapshots(rng, rm, truth, 500)
	// Keep negative-covariance equations so both paths see identical systems.
	opts := VarianceOptions{NegPolicy: KeepNegativeCov}
	opts.Method = VarianceDenseQR
	a, err := EstimateVariances(rm, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Method = VarianceNormalEquations
	b, err := EstimateVariances(rm, acc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-8 {
			t.Fatalf("solvers disagree at link %d: %g vs %g", k, a[k], b[k])
		}
	}
}

func TestVarianceOrderingSeparatesCongested(t *testing.T) {
	// Even with few snapshots the congested links must dominate the
	// variance ordering — that is all Phase 2 needs.
	rng := rand.New(rand.NewPCG(11, 21))
	net := topogen.Tree(rng, 60, 6)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, rm.NumLinks())
	congested := map[int]bool{}
	for k := range truth {
		if rng.Float64() < 0.12 {
			truth[k] = 0.02
			congested[k] = true
		} else {
			truth[k] = 1e-7
		}
	}
	acc := syntheticSnapshots(rng, rm, truth, 60)
	got, err := EstimateVariances(rm, acc, VarianceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	order := VarianceOrder(got)
	// All congested links must sit in the top |congested| positions.
	top := order[len(order)-len(congested):]
	for _, k := range top {
		if !congested[k] {
			t.Errorf("link %d (variance %g) ranked among congested, truth says good", k, got[k])
		}
	}
}

func TestEstimateVariancesErrors(t *testing.T) {
	rm := figure1(t)
	acc := stats.NewCovAccumulator(rm.NumPaths())
	if _, err := EstimateVariances(rm, acc, VarianceOptions{}); !errors.Is(err, ErrTooFewSnapshots) {
		t.Fatalf("err = %v, want ErrTooFewSnapshots", err)
	}
	wrong := stats.NewCovAccumulator(rm.NumPaths() + 1)
	wrong.Add(make([]float64, rm.NumPaths()+1))
	wrong.Add(make([]float64, rm.NumPaths()+1))
	if _, err := EstimateVariances(rm, wrong, VarianceOptions{}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

// randomWorkload builds a randomized tree topology with mixed link variances
// and enough synthetic snapshots for a stable Phase-1 system.
func randomWorkload(t *testing.T, seed uint64, hosts int) (*topology.RoutingMatrix, *stats.CovAccumulator) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xABCD))
	net := topogen.Tree(rng, hosts, 5)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, rm.NumLinks())
	for k := range truth {
		if rng.Float64() < 0.15 {
			truth[k] = 0.005 + 0.02*rng.Float64()
		} else {
			truth[k] = 1e-6 * rng.Float64()
		}
	}
	return rm, syntheticSnapshots(rng, rm, truth, 200)
}

// TestParallelMatchesSerial asserts the sharded Phase-1 accumulation agrees
// with the serial walk within 1e-10 on randomized topologies, for both
// solver methods and every negative-covariance policy.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		rm, acc := randomWorkload(t, seed, 70)
		for _, method := range []VarianceMethod{VarianceDenseQR, VarianceNormalEquations} {
			for _, pol := range []NegativeCovPolicy{ClampNegativeCov, DropNegativeCov, KeepNegativeCov} {
				serial, err := EstimateVariances(rm, acc, VarianceOptions{Method: method, NegPolicy: pol, Workers: 1})
				if err != nil {
					t.Fatalf("seed %d %v/%v serial: %v", seed, method, pol, err)
				}
				par, err := EstimateVariances(rm, acc, VarianceOptions{Method: method, NegPolicy: pol, Workers: 8})
				if err != nil {
					t.Fatalf("seed %d %v/%v parallel: %v", seed, method, pol, err)
				}
				for k := range serial {
					if math.Abs(serial[k]-par[k]) > 1e-10 {
						t.Fatalf("seed %d %v/%v link %d: serial %g, parallel %g",
							seed, method, pol, k, serial[k], par[k])
					}
				}
			}
		}
	}
}

// TestParallelDeterministic asserts the sharded accumulation returns
// bit-identical results for any worker count — including the inline
// single-worker walk — and across repeated runs: shard boundaries depend
// only on the pair count, the Gram merge is exact integer arithmetic, and
// the right-hand side reduces in fixed shard order.
func TestParallelDeterministic(t *testing.T) {
	rm, acc := randomWorkload(t, 7, 60)
	var want []float64
	for _, workers := range []int{0, 1, 2, 3, 4, 8, 16} {
		for rep := 0; rep < 3; rep++ {
			got, err := EstimateVariances(rm, acc,
				VarianceOptions{Method: VarianceNormalEquations, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
			}
			if want == nil {
				want = got
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("workers=%d rep=%d link %d: %g != %g (not bitwise deterministic)",
						workers, rep, k, got[k], want[k])
				}
			}
		}
	}
}

// TestGramMergeMatchesSequential exercises the shard-merge API directly:
// folding disjoint equation ranges into separate Grams and merging must
// reproduce the single-accumulator system.
func TestNegativeWorkersFallsBackToSerial(t *testing.T) {
	rm, acc := randomWorkload(t, 31, 40)
	serial, err := EstimateVariances(rm, acc, VarianceOptions{Method: VarianceNormalEquations, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := EstimateVariances(rm, acc, VarianceOptions{Method: VarianceNormalEquations, Workers: -3})
	if err != nil {
		t.Fatal(err)
	}
	for k := range serial {
		if serial[k] != neg[k] {
			t.Fatalf("link %d: Workers=-3 gave %g, serial %g", k, neg[k], serial[k])
		}
	}
}

// fixedCov is a CovView over a given covariance matrix.
type fixedCov [][]float64

func (c fixedCov) Dim() int             { return len(c) }
func (c fixedCov) Count() int           { return 100 }
func (c fixedCov) Cov(i, j int) float64 { return c[i][j] }

// TestDenseRankDeficientFallback drops the negative covariances of both
// sibling pairs of a two-level tree: A keeps 8 rows for 7 links but has
// rank 5, so the dense solve fails and estimateDense must return the
// minimum-norm solution of A itself — not of the factor the failed
// in-place solve left behind.
func TestDenseRankDeficientFallback(t *testing.T) {
	rm, err := topology.Build([]topology.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1, 3}},
		{Beacon: 0, Dst: 2, Links: []int{0, 1, 4}},
		{Beacon: 0, Dst: 3, Links: []int{0, 2, 5}},
		{Beacon: 0, Dst: 4, Links: []int{0, 2, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := fixedCov{
		{0.9, -0.1, 0.2, 0.3},
		{-0.1, 0.8, 0.25, 0.15},
		{0.2, 0.25, 0.7, -0.05},
		{0.3, 0.15, -0.05, 0.6},
	}
	opts := VarianceOptions{Method: VarianceDenseQR, NegPolicy: DropNegativeCov}
	got, err := EstimateVariances(rm, cov, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, rhs := collectEquations(rm, cov, opts)
	a := linalg.NewDense(len(rows), rm.NumLinks())
	for r, support := range rows {
		for _, k := range support {
			a.Set(r, int(k), 1)
		}
	}
	if _, err := linalg.SolveLeastSquares(a, rhs); !errors.Is(err, linalg.ErrRankDeficient) {
		t.Fatalf("%d×%d system: err = %v, want ErrRankDeficient", len(rows), rm.NumLinks(), err)
	}
	want := linalg.NewPivotedQR(a).SolveMinNorm(rhs)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("link %d: %v, want %v", k, got[k], want[k])
		}
	}
}
