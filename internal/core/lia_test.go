package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"lia/internal/linalg"
	"lia/internal/lossmodel"
	"lia/internal/netsim"
	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

func TestEliminateKeepsFullRank(t *testing.T) {
	rm := figure1(t)
	vars := []float64{0.5, 0.01, 0.4, 0.02, 0.03} // links 0 and 2 congested
	for _, strat := range []Elimination{EliminatePaperSequential, EliminateGreedyBasis} {
		kept, removed := Eliminate(rm, vars, strat)
		if len(kept)+len(removed) != rm.NumLinks() {
			t.Fatalf("%v: kept+removed != nc", strat)
		}
		sub := rm.DenseColumns(kept)
		if linalg.NewPivotedQR(sub).Rank() != len(kept) {
			t.Fatalf("%v: R* not full column rank", strat)
		}
		if len(kept) != rm.Rank() {
			t.Fatalf("%v: kept %d columns, rank(R) = %d", strat, len(kept), rm.Rank())
		}
		// The two highest-variance links must survive (they are independent
		// here).
		keptSet := map[int]bool{}
		for _, k := range kept {
			keptSet[k] = true
		}
		if !keptSet[0] || !keptSet[2] {
			t.Fatalf("%v: congested links dropped, kept %v", strat, kept)
		}
	}
}

func TestEliminateStrategiesDiffer(t *testing.T) {
	// Construct the case where the paper's sequential rule discards an
	// independent low-variance link unnecessarily while the greedy basis
	// keeps it: link a independent; links b,c dependent pair; var(a) lowest.
	//
	// Paths: P0={a}, P1={b,c} — after reduction b,c merge (identical path
	// sets), so instead use three paths to keep them distinct columns yet
	// dependent: P0={a}, P1={b}, P2={b,c}, P3={a,b,c} gives R with columns
	// a,b,c. Columns: a=[1,0,0,1], b=[0,1,1,1], c=[0,0,1,1]; independent, no
	// good. Dependency needs nc > rank. Use: P0={a,b}, P1={a,c}, P2={b,c}:
	// columns a=[1,1,0], b=[1,0,1], c=[0,1,1] — independent again. A clean
	// dependent-but-distinct construction: P0={a,b}, P1={c,b} with a,c
	// distinct columns and b shared; add P2={a,c} so all columns distinct:
	// a=[1,0,1], b=[1,1,0], c=[0,1,1] — rank 3. 0/1 routing columns over
	// enough paths are usually independent; dependence arises when nc
	// exceeds np. Take np=2: P0={a,b}, P1={a,c}: columns a=[1,1], b=[1,0],
	// c=[0,1]; rank 2, nc=3 → one column must go.
	rm, err := topology.Build([]topology.Path{
		{Beacon: 0, Dst: 1, Links: []int{10, 11}},
		{Beacon: 0, Dst: 2, Links: []int{10, 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Identify virtual indices.
	a, _ := rm.VirtualOf(10)
	b, _ := rm.VirtualOf(11)
	c, _ := rm.VirtualOf(12)
	vars := make([]float64, 3)
	vars[a] = 0.001 // shared link: lowest variance
	vars[b] = 0.5
	vars[c] = 0.4
	// Sequential: removes a first; {b,c} is independent → stops. Greedy:
	// keeps b, then c (independent), then rejects a (dependent on b,c? no —
	// a=[1,1] = b+c = [1,0]+[0,1] → dependent). Both keep {b,c} here, and
	// that's the correct maximum-variance basis.
	kept, _ := Eliminate(rm, vars, EliminatePaperSequential)
	if len(kept) != 2 {
		t.Fatalf("sequential kept %v, want 2 columns", kept)
	}
	keptG, _ := Eliminate(rm, vars, EliminateGreedyBasis)
	if len(keptG) != 2 {
		t.Fatalf("greedy kept %v, want 2 columns", keptG)
	}
	for _, k := range append(kept, keptG...) {
		if k == a {
			t.Fatal("lowest-variance dependent link should have been removed")
		}
	}
}

func TestSequentialMayDropIndependentLink(t *testing.T) {
	// Now give the *independent* link the lowest variance: columns
	// a=[1,1,0,0], b=[0,0,1,1], c=[0,0,1,0], d=[0,0,0,1] where b = c + d.
	// Sequential removal order (ascending variance) must discard a (then
	// possibly more) before reaching independence, while greedy keeps a.
	rm, err := topology.Build([]topology.Path{
		{Beacon: 0, Dst: 1, Links: []int{20, 21}}, // a-members (merged)
		{Beacon: 0, Dst: 2, Links: []int{20, 22}},
		{Beacon: 5, Dst: 6, Links: []int{30, 31}}, // b then c
		{Beacon: 5, Dst: 7, Links: []int{30, 32}}, // b then d
	})
	if err != nil {
		t.Fatal(err)
	}
	// Virtual links: 20 (shared, col [1,1,0,0]); 21 ([1,0,0,0]);
	// 22 ([0,1,0,0]); 30 ([0,0,1,1]); 31 ([0,0,1,0]); 32 ([0,0,0,1]).
	// nc = 6, np = 4 → rank ≤ 4; dependencies exist.
	v20, _ := rm.VirtualOf(20)
	v30, _ := rm.VirtualOf(30)
	vars := make([]float64, rm.NumLinks())
	for k := range vars {
		vars[k] = 0.5 // high by default
	}
	vars[v20] = 0.001 // independent-ish link with lowest variance
	vars[v30] = 0.002
	keptSeq, _ := Eliminate(rm, vars, EliminatePaperSequential)
	keptGreedy, _ := Eliminate(rm, vars, EliminateGreedyBasis)
	if len(keptSeq) > len(keptGreedy) {
		t.Fatalf("greedy basis should keep at least as many columns: seq %d, greedy %d",
			len(keptSeq), len(keptGreedy))
	}
	if len(keptGreedy) != rm.Rank() {
		t.Fatalf("greedy kept %d, want rank %d", len(keptGreedy), rm.Rank())
	}
}

func TestSolveReducedRecoversRates(t *testing.T) {
	rm := figure1(t)
	// Plant log rates on an independent column subset, zero elsewhere.
	vars := []float64{0.5, 0.4, 0.3, 0, 0} // keep 3 highest-variance links
	kept, removed := Eliminate(rm, vars, EliminatePaperSequential)
	x := make([]float64, rm.NumLinks())
	for _, k := range kept {
		x[k] = -0.05 * float64(k+1)
	}
	for _, k := range removed {
		x[k] = 0 // loss-free, consistent with elimination assumption
	}
	y := rm.Dense().MulVec(x)
	got, err := SolveReduced(rm, kept, y)
	if err != nil {
		t.Fatal(err)
	}
	for idx, k := range kept {
		if math.Abs(got[idx]-x[k]) > 1e-10 {
			t.Fatalf("link %d: x = %g, want %g", k, got[idx], x[k])
		}
	}
}

// testLIA composes LIA's stages the way lia.Engine runs them: Phase-1
// variances from the learning moments, variance-ordered elimination, then
// the reduced solve of the inferred snapshot. It lets core's accuracy tests
// exercise the whole pipeline without the engine's caches.
type testLIA struct {
	rm   *topology.RoutingMatrix
	opts Options
	acc  *stats.CovAccumulator
}

func newTestLIA(rm *topology.RoutingMatrix, opts Options) *testLIA {
	return &testLIA{rm: rm, opts: opts, acc: stats.NewCovAccumulator(rm.NumPaths())}
}

func (l *testLIA) AddSnapshot(y []float64) { l.acc.Add(y) }

func (l *testLIA) Infer(y []float64) (*Result, error) {
	vars, err := EstimateVariances(l.rm, l.acc, l.opts.Variance)
	if err != nil {
		return nil, err
	}
	kept, removed := Eliminate(l.rm, vars, l.opts.Strategy)
	x, err := SolveReduced(l.rm, kept, y)
	if err != nil {
		return nil, err
	}
	return AssembleResult(l.rm, l.opts.Observation, vars, kept, removed, x), nil
}

// runLIAOnTree is the end-to-end integration check: packet-level simulation
// on a random tree with the paper's LLRD1/Gilbert workload, then LIA.
func runLIAOnTree(t *testing.T, strategy Elimination, mode netsim.Mode) (stats.Detection, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(77, uint64(strategy)))
	net := topogen.Tree(rng, 200, 10)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	scen := lossmodel.NewScenario(lossmodel.Config{
		Model:    lossmodel.LLRD1,
		Fraction: 0.1,
	}, rng, rm.NumLinks())
	sim := netsim.New(rm, netsim.Config{Probes: 1000, Seed: 123, Mode: mode})

	l := newTestLIA(rm, Options{Strategy: strategy})
	const m = 50
	for s := 0; s < m; s++ {
		if s > 0 {
			scen.Advance()
		}
		snap := sim.Run(scen.Rates())
		l.AddSnapshot(snap.LogRates())
	}
	// The (m+1)-th snapshot to infer.
	scen.Advance()
	truth := append([]float64(nil), scen.Rates()...)
	snap := sim.Run(truth)
	res, err := l.Infer(snap.LogRates())
	if err != nil {
		t.Fatal(err)
	}
	trueCong := make([]bool, rm.NumLinks())
	for k, q := range truth {
		trueCong[k] = q > CongestionThreshold
	}
	det := stats.Detect(trueCong, res.Congested(CongestionThreshold))
	return det, truth, res.LossRates
}

func TestLIAEndToEndTree(t *testing.T) {
	det, truth, inferred := runLIAOnTree(t, EliminatePaperSequential, netsim.ModePacketPerPath)
	if det.DR < 0.85 {
		t.Errorf("DR = %.3f, want ≥ 0.85 (paper reports ≳0.9 at m=50)", det.DR)
	}
	// The FPR bound is looser than the paper's ~3%: with good-link rates
	// drawn uniformly from [0, tl], roughly half the retained good links sit
	// within one inference-error quantum (~0.001) of the threshold. The
	// shape that matters — every congested link found, false positives
	// confined to the handful of retained good links — is asserted here.
	if det.FPR > 0.40 {
		t.Errorf("FPR = %.3f, want ≤ 0.40", det.FPR)
	}
	if det.FalsePositives > len(truth)/10 {
		t.Errorf("%d false positives across %d links", det.FalsePositives, len(truth))
	}
	// Absolute errors should be small for nearly all links (Figure 6).
	var big int
	for k := range truth {
		if math.Abs(truth[k]-inferred[k]) > 0.01 {
			big++
		}
	}
	if frac := float64(big) / float64(len(truth)); frac > 0.1 {
		t.Errorf("%.1f%% links with absolute error > 0.01, want ≤ 10%%", 100*frac)
	}
}

func TestLIAEndToEndGreedy(t *testing.T) {
	det, _, _ := runLIAOnTree(t, EliminateGreedyBasis, netsim.ModePacketPerPath)
	if det.DR < 0.85 {
		t.Errorf("greedy: DR=%.3f, want ≥0.85", det.DR)
	}
	// The greedy basis keeps rank(R) columns — far more retained good links
	// than the paper's sequential rule — so its FPR is structurally worse.
	// That trade-off is exactly what the ablation bench measures.
}

func TestLIAEndToEndSharedState(t *testing.T) {
	det, _, _ := runLIAOnTree(t, EliminatePaperSequential, netsim.ModePacketShared)
	if det.DR < 0.85 || det.FPR > 0.55 {
		t.Errorf("shared-state: DR=%.3f FPR=%.3f, want ≥0.85 / ≤0.55", det.DR, det.FPR)
	}
}

func TestLIAErrorsVsRealizedRates(t *testing.T) {
	// Figure 6 / Table 2 shape: inferred rates track the realized per-link
	// sample rates with median error ~1e-3.
	rng := rand.New(rand.NewPCG(78, 1))
	net := topogen.Tree(rng, 200, 10)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	scen := lossmodel.NewScenario(lossmodel.Config{Model: lossmodel.LLRD1, Fraction: 0.1}, rng, rm.NumLinks())
	sim := netsim.New(rm, netsim.Config{Probes: 1000, Seed: 9})
	l := newTestLIA(rm, Options{})
	for s := 0; s < 50; s++ {
		if s > 0 {
			scen.Advance()
		}
		l.AddSnapshot(sim.Run(scen.Rates()).LogRates())
	}
	scen.Advance()
	snap := sim.Run(scen.Rates())
	res, err := l.Infer(snap.LogRates())
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, rm.NumLinks())
	for k := range errs {
		errs[k] = math.Abs(snap.LinkRealized[k] - res.LossRates[k])
	}
	sum := stats.Summarize(errs)
	if sum.Median > 0.003 {
		t.Errorf("median |realized − inferred| = %.4f, want ≤ 0.003", sum.Median)
	}
	if sum.Max > 0.05 {
		t.Errorf("max |realized − inferred| = %.4f, want ≤ 0.05", sum.Max)
	}
}

func TestLIAInferErrorsWithoutSnapshots(t *testing.T) {
	rm := figure1(t)
	l := newTestLIA(rm, Options{})
	if _, err := l.Infer(make([]float64, rm.NumPaths())); err == nil {
		t.Fatal("Infer without learning snapshots should fail")
	}
}

func TestResultCongestedThreshold(t *testing.T) {
	r := &Result{LossRates: []float64{0, 0.001, 0.05}}
	got := r.Congested(0.002)
	want := []bool{false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Congested = %v, want %v", got, want)
		}
	}
}

func TestVarGateAt(t *testing.T) {
	g := VarGateAt(0.002, 1000)
	if g <= 0 {
		t.Fatal("gate must be positive")
	}
	// More probes → tighter sampling variance → smaller gate.
	if VarGateAt(0.002, 4000) >= g {
		t.Error("gate should shrink with more probes")
	}
	// Default probes fallback.
	if VarGateAt(0.002, 0) != g {
		t.Error("zero probes should default to 1000")
	}
}

func TestCongestedGated(t *testing.T) {
	r := &Result{
		LossRates: []float64{0.05, 0.05, 0.001},
		Variances: []float64{1e-3, 1e-9, 1e-3},
	}
	got := r.CongestedGated(0.002, 1e-5)
	want := []bool{true, false, false} // link 1 gated out by variance
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CongestedGated = %v, want %v", got, want)
		}
	}
}

func TestObserveLinearDelays(t *testing.T) {
	// The Section 8 delay extension: plant additive link delays, verify the
	// linear-observation mode recovers them for kept links.
	rng := rand.New(rand.NewPCG(44, 4))
	rm := figure1(t)
	congested := []bool{true, false, true, false, false}
	draw := func() []float64 {
		d := make([]float64, rm.NumLinks())
		for k := range d {
			if congested[k] {
				d[k] = 5 + 10*rng.Float64()
			} else {
				d[k] = 0.01 * rng.Float64()
			}
		}
		return d
	}
	l := newTestLIA(rm, Options{Observation: ObserveLinear})
	for s := 0; s < 300; s++ {
		d := draw()
		y := make([]float64, rm.NumPaths())
		for i := range y {
			for _, k := range rm.Row(i) {
				y[i] += d[k]
			}
		}
		l.AddSnapshot(y)
	}
	truth := draw()
	y := make([]float64, rm.NumPaths())
	for i := range y {
		for _, k := range rm.Row(i) {
			y[i] += truth[k]
		}
	}
	res, err := l.Infer(y)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range congested {
		if !c {
			continue
		}
		if math.Abs(res.LossRates[k]-truth[k]) > 0.1 {
			t.Errorf("link %d delay: inferred %.3f, want %.3f", k, res.LossRates[k], truth[k])
		}
	}
}
