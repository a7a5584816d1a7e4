// Package lia_test holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation, plus ablation
// benches for the design choices called out in DESIGN.md and micro-benches
// for the linear-algebra kernels.
//
// Every experiment bench regenerates its table (use -v to see the rows) and
// reports the headline quantities as custom benchmark metrics, so a single
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Benches run at a reduced topology scale
// (BenchScale) so the suite completes in minutes; cmd/liasim regenerates
// paper-scale results.
package lia_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"lia"
	"lia/internal/core"
	"lia/internal/experiments"
	"lia/internal/linalg"
	"lia/internal/lossmodel"
	"lia/internal/netsim"
	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// BenchScale shrinks the paper-scale topologies for the benchmark suite.
const BenchScale = 0.35

// BenchRuns is the number of repetitions per configuration.
const BenchRuns = 3

func benchConfig() experiments.Config {
	return experiments.Config{Scale: BenchScale, Runs: BenchRuns, Seed: 1}
}

// --- Figures and tables -----------------------------------------------------

func BenchmarkFigure3MeanVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, corr, err := experiments.Figure3(benchConfig(), 120)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(corr, "corr")
		if corr < 0.5 {
			b.Fatalf("mean-variance correlation %.3f violates Assumption S.3", corr)
		}
	}
}

func BenchmarkFigure5DRFPRvsM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last[1], "LIA-DR@m100")
		b.ReportMetric(last[4], "SCFS-DR")
		if last[1] <= last[4] {
			b.Fatalf("LIA (DR %.3f) should beat single-snapshot SCFS (DR %.3f)", last[1], last[4])
		}
	}
}

func BenchmarkFigure6ErrorCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		abs, ef, err := experiments.Figure6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s\n%s", abs, ef)
		// Fraction of links with absolute error ≤ 0.0025 (paper: ≈1.0).
		row := abs.Rows[len(abs.Rows)-4]
		b.ReportMetric(row[1], "CDF@2.5e-3")
	}
}

func BenchmarkTable2Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		var minDR = 1.0
		for r := range t.Rows {
			if dr := t.Cell(r, 0); dr < minDR {
				minDR = dr
			}
		}
		b.ReportMetric(minDR, "min-DR")
	}
}

func BenchmarkFigure7EliminationRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		for r := range t.Rows {
			if ratio := t.Cell(r, 0); ratio > 1.0001 {
				b.Fatalf("%s: congested/kept ratio %.3f exceeds 1 — congested links were eliminated",
					t.Labels[r], ratio)
			}
		}
	}
}

func BenchmarkFigure8aVaryP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure8a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(t.Cell(len(t.Rows)-1, 1), "DR@p25")
	}
}

func BenchmarkFigure8bVaryS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure8b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(t.Cell(0, 1), "DR@S50")
	}
}

func BenchmarkFigure9CrossValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		last := t.Cell(len(t.Rows)-1, 1)
		b.ReportMetric(last, "consistent%@m100")
		if last < 80 {
			b.Fatalf("cross-validation consistency %.1f%% too low (paper: >95%%)", last)
		}
	}
}

func BenchmarkTable3ASLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(t.Cell(len(t.Rows)-1, 1), "interAS%@tl0.01")
	}
}

func BenchmarkCongestionDuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.CongestionDurations(benchConfig(), 25, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", t)
		b.ReportMetric(t.Cell(0, 0), "one-snapshot%")
	}
}

// --- Section 6.4 running-time benches ---------------------------------------

// benchWorkload builds the planetlab-like workload once per bench.
func benchWorkload(b *testing.B) (*experiments.Workload, []experiments.SnapshotRecord) {
	b.Helper()
	cfg := benchConfig()
	rng := rand.New(rand.NewPCG(1, 12))
	w, err := experiments.MakeWorkload("planetlab", cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	series := experiments.SimulateSeries(w, cfg, 12, 51)
	return w, series
}

func BenchmarkAugmentedBuild(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr := core.NewGram(w.RM.NumLinks())
		core.VisitPairs(w.RM, func(pi, pj int, support []int32) {
			if len(support) > 0 {
				gr.AddEquation(support, 0)
			}
		})
	}
}

func BenchmarkSolveFirstOrder(b *testing.B) {
	// Phase 1: the variance solve of eq. (8) — "solved within seconds for
	// networks with thousands of nodes".
	w, series := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := stats.NewCovAccumulator(w.RM.NumPaths())
		for t := 0; t < 50; t++ {
			acc.Add(series[t].Snap.LogRates())
		}
		if _, err := core.EstimateVariances(w.RM, acc, core.VarianceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveReduced(b *testing.B) {
	// Phase 2: eliminating and solving eq. (9) — "about 10 times longer".
	w, series := benchWorkload(b)
	vars, err := core.EstimateVariances(w.RM, benchCov(b, w, series), core.VarianceOptions{})
	if err != nil {
		b.Fatal(err)
	}
	y := series[50].Snap.LogRates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept, _ := core.Eliminate(w.RM, vars, core.EliminatePaperSequential)
		if _, err := core.SolveReduced(w.RM, kept, y); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md design choices) ----------------------------

func ablationRun(b *testing.B, cfg experiments.Config) stats.Detection {
	b.Helper()
	rng := rand.New(rand.NewPCG(cfg.Seed, 77))
	w, err := experiments.MakeWorkload("tree", cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	r, err := experiments.RunOnce(w, cfg, 77)
	if err != nil {
		b.Fatal(err)
	}
	return r.LIA.Det
}

func BenchmarkAblationElimination(b *testing.B) {
	for _, strat := range []core.Elimination{core.EliminatePaperSequential, core.EliminateGreedyBasis} {
		b.Run(strat.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Strategy = strat
			for i := 0; i < b.N; i++ {
				det := ablationRun(b, cfg)
				b.ReportMetric(det.DR, "DR")
				b.ReportMetric(det.FPR, "FPR")
			}
		})
	}
}

func BenchmarkAblationLossProcess(b *testing.B) {
	// Paper: "we also run simulations with Bernoulli losses, but the
	// differences are insignificant."
	for _, kind := range []lossmodel.ProcessKind{lossmodel.Gilbert, lossmodel.Bernoulli} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Kind = kind
			cfg.Fidelity = experiments.FidelityPacketShared
			for i := 0; i < b.N; i++ {
				det := ablationRun(b, cfg)
				b.ReportMetric(det.DR, "DR")
			}
		})
	}
}

func BenchmarkAblationS1Sharing(b *testing.B) {
	// Assumption S.1 exact (shared link state) vs approximate (independent
	// per-(path,link) processes) vs link-level aggregation.
	for _, f := range []experiments.Fidelity{
		experiments.FidelityExact,
		experiments.FidelityPacketShared,
		experiments.FidelityPacketPerPath,
	} {
		b.Run(f.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Fidelity = f
			for i := 0; i < b.N; i++ {
				det := ablationRun(b, cfg)
				b.ReportMetric(det.DR, "DR")
				b.ReportMetric(det.FPR, "FPR")
			}
		})
	}
}

func BenchmarkAblationNegativeCovPolicy(b *testing.B) {
	for _, pol := range []core.NegativeCovPolicy{core.ClampNegativeCov, core.DropNegativeCov} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Variance.NegPolicy = pol
			for i := 0; i < b.N; i++ {
				det := ablationRun(b, cfg)
				b.ReportMetric(det.DR, "DR")
				b.ReportMetric(det.FPR, "FPR")
			}
		})
	}
}

func BenchmarkAblationGoodRateShape(b *testing.B) {
	for _, g := range []lossmodel.GoodRateShape{lossmodel.GoodNearZero, lossmodel.GoodUniform} {
		b.Run(g.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Good = g
			for i := 0; i < b.N; i++ {
				det := ablationRun(b, cfg)
				b.ReportMetric(det.FPR, "FPR")
			}
		})
	}
}

// --- Substrate micro-benches -------------------------------------------------

func BenchmarkPivotedQRRank(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 3))
	m := linalg.NewDense(300, 200)
	for i := 0; i < 300; i++ {
		for j := 0; j < 200; j++ {
			if rng.Float64() < 0.05 {
				m.Set(i, j, 1)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.NewPivotedQR(m).Rank()
	}
}

func BenchmarkGilbertProcess(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 5))
	proc := lossmodel.NewProcess(lossmodel.Gilbert, 0.1, lossmodel.DefaultPStayBad, rng)
	b.ResetTimer()
	drops := 0
	for i := 0; i < b.N; i++ {
		if proc.Drop(rng) {
			drops++
		}
	}
	_ = drops
}

func BenchmarkSnapshotSimulation(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 7))
	net := topogen.Tree(rng, 200, 10)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		b.Fatal(err)
	}
	scen := lossmodel.NewScenario(lossmodel.Config{Fraction: 0.1}, rng, rm.NumLinks())
	for _, mode := range []netsim.Mode{netsim.ModeExact, netsim.ModePacketShared, netsim.ModePacketPerPath} {
		b.Run(mode.String(), func(b *testing.B) {
			sim := netsim.New(rm, netsim.Config{Probes: 1000, Seed: 1, Mode: mode})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(scen.Rates())
			}
		})
	}
}

func BenchmarkCovarianceAccumulate(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 9))
	const dim = 300
	y := make([]float64, dim)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	acc := stats.NewCovAccumulator(dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(y)
	}
}

// --- Parallel Phase-1 pipeline benches ---------------------------------------

// benchCov accumulates the learning snapshots of the planetlab-like workload
// into covariance moments, the input of EstimateVariances.
func benchCov(b *testing.B, w *experiments.Workload, series []experiments.SnapshotRecord) *stats.CovAccumulator {
	b.Helper()
	acc := stats.NewCovAccumulator(w.RM.NumPaths())
	for t := 0; t < 50; t++ {
		acc.Add(series[t].Snap.LogRates())
	}
	return acc
}

// BenchmarkEstimateVariances measures Phase 1 proper (the Σ* = A·v solve)
// on the solver the topology selects, with pools sized to GOMAXPROCS; run
// with -cpu to scale them. The per-solver serial and parallel legs live in
// internal/core.
func BenchmarkEstimateVariances(b *testing.B) {
	w, series := benchWorkload(b)
	acc := benchCov(b, w, series)
	w.RM.PrecomputePairSupports() // one-time index build is not timed here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateVariances(w.RM, acc, core.VarianceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVisitPairs measures the steady-state augmented-row enumeration —
// an index walk over the cached pair supports.
func BenchmarkVisitPairs(b *testing.B) {
	w, _ := benchWorkload(b)
	w.RM.PrecomputePairSupports() // one-time index build is not timed here
	b.ReportAllocs()
	b.ResetTimer()
	links := 0
	for i := 0; i < b.N; i++ {
		core.VisitPairs(w.RM, func(pi, pj int, support []int32) {
			links += len(support)
		})
	}
	_ = links
}

// --- Incremental-rebuild benches ----------------------------------------------

// benchRebuildWorkload builds the incremental-rebuild scale target: a
// 600-path tree (180 300 augmented pairs) with synthetic Gaussian snapshot
// moments, the regime a long-running engine rebuilds in.
func benchRebuildWorkload(b *testing.B) (*topology.RoutingMatrix, *stats.CovAccumulator) {
	b.Helper()
	rng := rand.New(rand.NewPCG(42, 1))
	net := topogen.Tree(rng, 1600, 6)
	if len(net.Hosts) < 600 {
		b.Fatalf("tree has %d hosts, need 600", len(net.Hosts))
	}
	paths := topogen.Routes(net, []int{0}, net.Hosts[:600])
	rm, err := topology.Build(paths)
	if err != nil {
		b.Fatal(err)
	}
	if rm.NumPaths() != 600 {
		b.Fatalf("workload has %d paths, want 600", rm.NumPaths())
	}
	truth := make([]float64, rm.NumLinks())
	for k := range truth {
		if rng.Float64() < 0.1 {
			truth[k] = 0.005 + 0.02*rng.Float64()
		} else {
			truth[k] = 1e-6 * rng.Float64()
		}
	}
	acc := stats.NewCovAccumulator(rm.NumPaths())
	x := make([]float64, rm.NumLinks())
	y := make([]float64, rm.NumPaths())
	for t := 0; t < 60; t++ {
		for k := range x {
			x[k] = rng.NormFloat64() * truth[k]
		}
		for i := range y {
			y[i] = 0
			for _, k := range rm.Row(i) {
				y[i] += x[k]
			}
		}
		acc.Add(y)
	}
	return rm, acc
}

// BenchmarkEngineRebuild measures one Phase-1 rebuild under the default
// clamp policy at the 600-path scale:
//
//   - cold: the from-scratch path — Gram accumulation over all 180 300
//     pairs plus the O(nc³) Cholesky factorization (what every rebuild cost
//     before the cached factorization);
//   - warm: the incremental path — core.Phase1 with its topology-only
//     factor already cached, paying only the right-hand-side fold and two
//     triangular solves.
//
// The two are bitwise-identical by construction; the benchmark asserts it
// before timing. The one-time pair-index build is excluded from both.
func BenchmarkEngineRebuild(b *testing.B) {
	rm, acc := benchRebuildWorkload(b)
	if err := rm.PrecomputePairSupports(); err != nil {
		b.Fatal(err)
	}
	opts := core.VarianceOptions{} // the size rule picks normal equations at this scale
	p1 := core.NewPhase1(rm, opts)
	cold, err := core.EstimateVariances(rm, acc, opts)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := p1.Estimate(acc) // first call builds the cached factor
	if err != nil {
		b.Fatal(err)
	}
	if !p1.Warm() {
		b.Fatal("Phase1 did not cache the factorization under the clamp policy")
	}
	for k := range cold {
		if cold[k] != warm[k] {
			b.Fatalf("link %d: warm rebuild %g != cold rebuild %g (not bitwise identical)", k, warm[k], cold[k])
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.EstimateVariances(rm, acc, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p1.Estimate(acc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineEpochRebuild measures the full per-epoch cost of a
// long-running serving engine at the 600-path scale: one Ingest plus the
// lazy state rebuild an inference then pays (warm Phase-1 estimate +
// Phase-2 elimination); the "eliminate" sub-bench reports the elimination
// alone.
func BenchmarkEngineEpochRebuild(b *testing.B) {
	rm, acc := benchRebuildWorkload(b)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(43, 7))
	y := make([]float64, rm.NumPaths())
	for i := range y {
		y[i] = -1e-4 * rng.Float64()
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 60; t++ {
		if err := eng.Ingest(y); err != nil { // content is irrelevant to the timing
			b.Fatal(err)
		}
	}
	if _, err := eng.Variances(ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("ingest-rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(y); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Variances(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eliminate", func(b *testing.B) {
		vars, err := core.EstimateVariances(rm, acc, core.VarianceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Eliminate(rm, vars, core.EliminatePaperSequential)
		}
	})
}

// --- Sharded-engine benches ----------------------------------------------------

// benchShardedWorkload builds the sharding scale target: four link-disjoint
// 150-path trees in one 600-path routing matrix. Every path of a tree
// shares the tree's root uplink, so each tree is exactly one link-connected
// component — and at 150 paths the size rule sends each component to the
// cacheable normal-equations path, the serving regime. The unsharded engine
// walks all 180 300 augmented pairs per rebuild; the partitioned engine
// walks 4 × 11 325 (cross-component pairs have empty supports and vanish)
// and rebuilds the components on separate cores.
func benchShardedWorkload(b testing.TB) (*topology.RoutingMatrix, []float64) {
	b.Helper()
	const comps = 4
	var paths []topology.Path
	for c := 0; c < comps; c++ {
		rng := rand.New(rand.NewPCG(42, uint64(c)))
		net := topogen.Tree(rng, 400, 6)
		if len(net.Hosts) < 150 {
			b.Fatalf("component %d tree has %d hosts, need 150", c, len(net.Hosts))
		}
		base := c * 10_000_000 // link-disjoint components
		for _, p := range topogen.Routes(net, []int{0}, net.Hosts[:150]) {
			links := make([]int, 0, len(p.Links)+1)
			links = append(links, base) // shared root uplink joins the tree
			for _, l := range p.Links {
				links = append(links, base+1+l)
			}
			paths = append(paths, topology.Path{
				Beacon: p.Beacon + base,
				Dst:    p.Dst + 1 + base,
				Links:  links,
			})
		}
	}
	rm, err := topology.Build(paths)
	if err != nil {
		b.Fatal(err)
	}
	if rm.NumPaths() != comps*150 {
		b.Fatalf("workload has %d paths, want %d", rm.NumPaths(), comps*150)
	}
	rng := rand.New(rand.NewPCG(43, 7))
	y := make([]float64, rm.NumPaths())
	for i := range y {
		y[i] = -1e-4 * rng.Float64()
	}
	return rm, y
}

// BenchmarkShardedEngineRebuild measures the steady-state per-epoch rebuild
// (one Ingest plus the state recomputation the next query pays) at the
// 600-path four-component scale, unsharded vs sharded. Before timing it
// asserts the sharded estimates are bitwise-identical across shard counts —
// the scheduling never changes the answer — so the CI scaling job can
// compare ns/op across GOMAXPROCS knowing the work is the same.
func BenchmarkShardedEngineRebuild(b *testing.B) {
	rm, y := benchShardedWorkload(b)
	ctx := context.Background()
	warm := func(b *testing.B, eng lia.Inferencer) {
		b.Helper()
		for t := 0; t < 60; t++ {
			if err := eng.Ingest(y); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Variances(ctx); err != nil {
			b.Fatal(err)
		}
	}
	se1, err := lia.NewShardedEngine(rm, lia.WithShards(1))
	if err != nil {
		b.Fatal(err)
	}
	se4, err := lia.NewShardedEngine(rm, lia.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	warm(b, se1)
	warm(b, se4)
	v1, err := se1.Variances(ctx)
	if err != nil {
		b.Fatal(err)
	}
	v4, err := se4.Variances(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for k := range v1 {
		if v1[k] != v4[k] {
			b.Fatalf("link %d: 1-shard estimate %g != 4-shard estimate %g (not bitwise identical)", k, v1[k], v4[k])
		}
	}
	bench := func(eng lia.Inferencer) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.Ingest(y); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Variances(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	un, err := lia.NewEngine(rm)
	if err != nil {
		b.Fatal(err)
	}
	warm(b, un)
	b.Run("unsharded", bench(un))
	b.Run("sharded", bench(se4))
}

// benchWindowedWorkload builds the windowed-rebuild target: four
// link-disjoint 150-path trees in one 600-path routing matrix. Components
// of this size are past the dense-QR budget, so each solves by the cached
// normal equations.
func benchWindowedWorkload(b testing.TB) *topology.RoutingMatrix {
	b.Helper()
	const comps, compPaths = 4, 150
	var paths []topology.Path
	for c := 0; c < comps; c++ {
		rng := rand.New(rand.NewPCG(52, uint64(c)))
		net := topogen.Tree(rng, 400, 4)
		if len(net.Hosts) < compPaths {
			b.Fatalf("component %d tree has %d hosts, need %d", c, len(net.Hosts), compPaths)
		}
		base := c * 10_000_000 // link-disjoint components
		for _, p := range topogen.Routes(net, []int{0}, net.Hosts[:compPaths]) {
			links := make([]int, 0, len(p.Links)+1)
			links = append(links, base) // shared root uplink joins the tree
			for _, l := range p.Links {
				links = append(links, base+1+l)
			}
			paths = append(paths, topology.Path{
				Beacon: p.Beacon + base,
				Dst:    p.Dst + 1 + base,
				Links:  links,
			})
		}
	}
	rm, err := topology.Build(paths)
	if err != nil {
		b.Fatal(err)
	}
	if rm.NumPaths() != comps*compPaths {
		b.Fatalf("workload has %d paths, want %d", rm.NumPaths(), comps*compPaths)
	}
	return rm
}

// BenchmarkEngineWindowedRebuild measures one sharded rebuild wave at the
// 600-path scale (4 components of 150 paths), with windowed moments:
//
//   - cold: a from-scratch rebuild wave — full Phase-1 fold, Cholesky and
//     elimination for all four components (engine construction and
//     window fill are excluded from the timing);
//   - warm: one snapshot plus the rebuild wave it triggers — every
//     component refolds its Phase-1 right-hand side against its cached
//     Cholesky factor.
func BenchmarkEngineWindowedRebuild(b *testing.B) {
	rm := benchWindowedWorkload(b)
	ctx := context.Background()
	const window = 64
	pool := make([][]float64, 128) // distinct snapshots so every epoch moves the window
	rng := rand.New(rand.NewPCG(44, 9))
	for t := range pool {
		y := make([]float64, rm.NumPaths())
		for i := range y {
			y[i] = -1e-4 * rng.Float64()
		}
		pool[t] = y
	}
	newEngine := func(b *testing.B) *lia.ShardedEngine {
		b.Helper()
		se, err := lia.NewShardedEngine(rm, lia.WithShards(4), lia.WithWindow(window))
		if err != nil {
			b.Fatal(err)
		}
		return se
	}
	fill := func(b *testing.B, se *lia.ShardedEngine) {
		b.Helper()
		for t := 0; t < window; t++ {
			if err := se.Ingest(pool[t%len(pool)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm := func(b *testing.B, se *lia.ShardedEngine) {
		b.Helper()
		fill(b, se)
		if _, err := se.Variances(ctx); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			se := newEngine(b)
			fill(b, se)
			b.StartTimer()
			if _, err := se.Variances(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		se := newEngine(b)
		warm(b, se)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := se.Ingest(pool[i%len(pool)]); err != nil {
				b.Fatal(err)
			}
			if _, err := se.Variances(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPairIndexBuild measures the one-time cost of constructing the
// cached pair-support index on a fresh routing matrix.
func BenchmarkPairIndexBuild(b *testing.B) {
	w, _ := benchWorkload(b)
	paths := make([]topology.Path, w.RM.NumPaths())
	for i := range paths {
		paths[i] = w.RM.Path(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rm, err := topology.Build(paths)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rm.PrecomputePairSupports()
	}
}

// BenchmarkSourceWrappers measures the per-snapshot cost the resilience
// combinators add to a healthy stream: the same simulator source consumed
// raw, behind RetrySource, and behind the full RetrySource+SanitizeSource
// chain liaserve installs. With no faults to absorb, a retry attempt is one
// delegated Next and the sanitizer one finite-check pass over the vector,
// so the wrapped rows should sit within noise of the raw row — the paper's
// inference math, not the armor, dominates the ingest path.
func BenchmarkSourceWrappers(b *testing.B) {
	rm, err := lia.NewTopology(apiTreePaths(2, 3))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sources := []struct {
		name string
		make func() lia.SnapshotSource
	}{
		{"raw", func() lia.SnapshotSource {
			return lia.NewSimSource(rm, lia.SimConfig{Probes: 400, Seed: 42})
		}},
		{"retry", func() lia.SnapshotSource {
			base := lia.NewSimSource(rm, lia.SimConfig{Probes: 400, Seed: 42})
			return lia.RetrySource(base, lia.RetryPolicy{MaxAttempts: 10, Seed: 1})
		}},
		{"retry+sanitize", func() lia.SnapshotSource {
			base := lia.NewSimSource(rm, lia.SimConfig{Probes: 400, Seed: 42})
			hardened := lia.RetrySource(base, lia.RetryPolicy{MaxAttempts: 10, Seed: 1})
			return lia.SanitizeSource(hardened, lia.SanitizeConfig{Dim: rm.NumPaths(), MaxAbs: 100})
		}},
	}
	for _, tc := range sources {
		b.Run(tc.name, func(b *testing.B) {
			src := tc.make()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Next(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
