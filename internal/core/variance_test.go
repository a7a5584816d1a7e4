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

// solvers names the two Phase-1 paths, for tests that pin one of them.
var solvers = []struct {
	name  string
	dense bool
}{{"dense-qr", true}, {"normal-equations", false}}

// pinnedPhase1 returns a Phase1 that solves by dense QR (dense) or by the
// normal equations, whatever the size rule would pick.
func pinnedPhase1(rm *topology.RoutingMatrix, opts VarianceOptions, dense bool) *Phase1 {
	p := NewPhase1(rm, opts)
	p.dense = dense
	return p
}

func testVarianceRecovery(t *testing.T, dense bool, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(9, seed))
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
	got, err := pinnedPhase1(rm, VarianceOptions{}, dense).Estimate(acc)
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

func TestVarianceRecoveryDenseQR(t *testing.T)    { testVarianceRecovery(t, true, 1) }
func TestVarianceRecoveryNormalEqns(t *testing.T) { testVarianceRecovery(t, false, 2) }

func TestVarianceMethodsAgree(t *testing.T) {
	// Both solvers minimize the same least-squares objective, so on the same
	// moments they must agree to numerical precision.
	rng := rand.New(rand.NewPCG(10, 20))
	rm := figure2(t)
	truth := []float64{0.02, 0.001, 0.005, 0, 0.01, 0.0002, 0.003, 0}
	truth = truth[:rm.NumLinks()]
	acc := syntheticSnapshots(rng, rm, truth, 500)
	// The clamp policy keeps every equation, so both paths see the same system.
	a, err := pinnedPhase1(rm, VarianceOptions{}, true).Estimate(acc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pinnedPhase1(rm, VarianceOptions{}, false).Estimate(acc)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-8 {
			t.Fatalf("solvers disagree at link %d: %g vs %g", k, a[k], b[k])
		}
	}
}

// star builds n paths that share link 0 and each own one leaf link — the
// star of the root package's TestEngineWarmRebuildMatchesCold at n = 150.
func star(t *testing.T, n int) *topology.RoutingMatrix {
	t.Helper()
	paths := make([]topology.Path, n)
	for i := range paths {
		paths[i] = topology.Path{Beacon: 100, Dst: 101 + i, Links: []int{0, 1 + i}}
	}
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// TestSizeRuleSelectsSolver: the topology alone picks the Phase-1 path — a
// small system solves by dense QR, a star past the dense budget by the
// cached normal equations.
func TestSizeRuleSelectsSolver(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 22))
	for _, rm := range []*topology.RoutingMatrix{figure2(t), star(t, 140)} {
		if p := NewPhase1(rm, VarianceOptions{}); !p.dense || p.Cacheable() {
			t.Fatalf("%d-path topology: dense=%v cacheable=%v, want dense QR", rm.NumPaths(), p.dense, p.Cacheable())
		}
	}
	large := star(t, 150) // 11 325 pairs × 151² links > denseBudget
	p := NewPhase1(large, VarianceOptions{})
	if p.dense || !p.Cacheable() {
		t.Fatalf("150-path star: dense=%v cacheable=%v, want cached normal equations", p.dense, p.Cacheable())
	}
	truth := make([]float64, large.NumLinks())
	for k := range truth {
		truth[k] = 1e-4 * rng.Float64()
	}
	if _, err := p.Estimate(syntheticSnapshots(rng, large, truth, 20)); err != nil {
		t.Fatal(err)
	}
	if !p.Warm() {
		t.Fatal("150-path star: Estimate did not cache the factorization")
	}
	if drop := NewPhase1(large, VarianceOptions{NegPolicy: DropNegativeCov}); drop.Cacheable() {
		t.Fatal("DropNegativeCov must not be cacheable: its row set depends on the data")
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
// (returned as truth) and enough synthetic snapshots for a stable Phase-1
// system.
func randomWorkload(t testing.TB, seed uint64, hosts int) (*topology.RoutingMatrix, []float64, *stats.CovAccumulator) {
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
	return rm, truth, syntheticSnapshots(rng, rm, truth, 200)
}

// TestParallelMatchesSerial asserts the sharded Phase-1 accumulation on 8
// workers is bitwise equal to the serial walk on randomized topologies of
// three pair shards each, for both solvers and every negative-covariance
// policy.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		rm, _, acc := randomWorkload(t, seed, 150)
		for _, sv := range solvers {
			for _, pol := range []NegativeCovPolicy{ClampNegativeCov, DropNegativeCov} {
				p := pinnedPhase1(rm, VarianceOptions{NegPolicy: pol}, sv.dense)
				serial, err := p.estimate(acc, 1)
				if err != nil {
					t.Fatalf("seed %d %s/%v serial: %v", seed, sv.name, pol, err)
				}
				par, err := p.estimate(acc, 8)
				if err != nil {
					t.Fatalf("seed %d %s/%v parallel: %v", seed, sv.name, pol, err)
				}
				for k := range serial {
					if math.Float64bits(serial[k]) != math.Float64bits(par[k]) {
						t.Fatalf("seed %d %s/%v link %d: serial %g, parallel %g",
							seed, sv.name, pol, k, serial[k], par[k])
					}
				}
			}
		}
	}
}

// TestParallelDeterministic asserts the sharded accumulation returns
// bit-identical results for any worker count — including the inline
// single-worker walk and the GOMAXPROCS-sized pool — and across repeated
// runs: shard boundaries depend only on the pair count, the Gram merge is
// exact integer arithmetic, and the right-hand side reduces in fixed shard
// order.
func TestParallelDeterministic(t *testing.T) {
	rm, _, acc := randomWorkload(t, 7, 60)
	var want []float64
	for _, workers := range []int{shardWorkers(rm.NumPairs()), 1, 2, 3, 4, 8, 16} {
		for rep := 0; rep < 3; rep++ {
			got, err := pinnedPhase1(rm, VarianceOptions{}, false).estimate(acc, workers)
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

// TestNegativeWorkersFallsBackToSerial: a non-positive pool size walks the
// shards inline, exactly like one worker.
func TestNegativeWorkersFallsBackToSerial(t *testing.T) {
	rm, _, acc := randomWorkload(t, 31, 40)
	p := pinnedPhase1(rm, VarianceOptions{}, false)
	serial, err := p.estimate(acc, 1)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := p.estimate(acc, -3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range serial {
		if serial[k] != neg[k] {
			t.Fatalf("link %d: workers=-3 gave %g, serial %g", k, neg[k], serial[k])
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
	opts := VarianceOptions{NegPolicy: DropNegativeCov}
	got, err := EstimateVariances(rm, cov, opts) // the size rule picks dense QR
	if err != nil {
		t.Fatal(err)
	}
	eq := collectEquations(rm, cov, opts)
	rhs := eq.rhs
	a := supportMatrix(eq.expanded(rm.NumLinks()), rm.NumLinks())
	if _, err := linalg.SolveLeastSquares(a, rhs); !errors.Is(err, linalg.ErrRankDeficient) {
		t.Fatalf("%d×%d system: err = %v, want ErrRankDeficient", len(rhs), rm.NumLinks(), err)
	}
	want := linalg.NewPivotedQR(a).SolveMinNorm(rhs)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("link %d: %v, want %v", k, got[k], want[k])
		}
	}
}

// TestDenseRepeatedRowsMatchExpanded pins estimateDense, which stores each
// distinct row of A once, to the least-squares solve of A itself, built
// here straight from the pair index: the variances must agree to the bit,
// under clamp and under drop (whose kept rows depend on the data, and whose
// dropped rows may cost full rank, where both sides take the minimum-norm
// fallback). Few snapshots make many covariances negative.
func TestDenseRepeatedRowsMatchExpanded(t *testing.T) {
	topologies := []struct {
		name  string
		paths func(rng *rand.Rand) []topology.Path
	}{
		{"tree-5", func(rng *rand.Rand) []topology.Path { return leafTree(rng, 5) }},
		{"tree-25", func(rng *rand.Rand) []topology.Path { return leafTree(rng, 25) }},
		{"tree-40", func(rng *rand.Rand) []topology.Path { return leafTree(rng, 40) }},
		{"barabasi-albert", func(rng *rand.Rand) []topology.Path {
			return meshPaths(rng, topogen.BarabasiAlbert(rng, 300, 2), 6)
		}},
		{"waxman", func(rng *rand.Rand) []topology.Path {
			return meshPaths(rng, topogen.Waxman(rng, 200, 0.15, 0.2), 6)
		}},
	}
	for ti, tc := range topologies {
		rng := rand.New(rand.NewPCG(uint64(ti), 26))
		rm, err := topology.Build(tc.paths(rng))
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]float64, rm.NumLinks())
		for k := range truth {
			truth[k] = 1e-4 * rng.Float64()
		}
		cov := syntheticSnapshots(rng, rm, truth, 6)
		for _, opts := range []VarianceOptions{{NegPolicy: ClampNegativeCov}, {NegPolicy: DropNegativeCov}} {
			var rows [][]int32
			var rhs []float64
			VisitPairs(rm, func(i, j int, support []int32) {
				if sigma, keep := opts.adjust(cov.Cov(i, j)); keep && len(support) > 0 {
					rows = append(rows, support)
					rhs = append(rhs, sigma)
				}
			})
			nc := rm.NumLinks()
			a := linalg.NewDense(len(rows), nc)
			for r, support := range rows {
				for _, k := range support {
					a.Set(r, int(k), 1)
				}
			}
			got, errg := estimateDense(rm, cov, opts)
			want, errw := linalg.SolveLeastSquares(a, rhs)
			if errors.Is(errw, linalg.ErrRankDeficient) && len(rows) >= nc {
				want, errw = linalg.NewPivotedQR(a).SolveMinNorm(rhs), nil
			}
			if (errg == nil) != (errw == nil) {
				t.Fatalf("%s %v: err %v, want %v", tc.name, opts.NegPolicy, errg, errw)
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s %v (%d×%d): link %d = %v, want %v", tc.name, opts.NegPolicy, len(rows), nc, k, got[k], want[k])
				}
			}
		}
	}
}
