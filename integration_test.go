package lia_test

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"lia"
	"lia/internal/baseline"
	"lia/internal/core"
	"lia/internal/emunet"
	"lia/internal/experiments"
	"lia/internal/lossmodel"
	"lia/internal/netsim"
	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// TestFullPipelineSimulated is the repository's canonical integration test:
// topology generation → routing → packet simulation → Phase 1 → Phase 2 →
// evaluation, on a mesh with multiple beacons.
func TestFullPipelineSimulated(t *testing.T) {
	rng := rand.New(rand.NewPCG(1234, 0))
	network := topogen.BarabasiAlbert(rng, 150, 2)
	hosts := topogen.SelectHosts(rng, network, 8)
	paths := topogen.Routes(network, hosts, hosts)
	paths, _ = topology.RemoveFluttering(paths)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Identifiable(rm) {
		t.Fatal("mesh not identifiable")
	}

	scen := lossmodel.NewScenario(lossmodel.Config{Model: lossmodel.LLRD1, Fraction: 0.1}, rng, rm.NumLinks())
	sim := netsim.New(rm, netsim.Config{Probes: 1000, Seed: 55, Mode: netsim.ModeExact})
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 50; s++ {
		if s > 0 {
			scen.Advance()
		}
		if err := eng.Ingest(sim.Run(scen.Rates()).LogRates()); err != nil {
			t.Fatal(err)
		}
	}
	scen.Advance()
	truthRates := append([]float64(nil), scen.Rates()...)
	snap := sim.Run(truthRates)
	res, err := eng.Infer(context.Background(), snap.LogRates())
	if err != nil {
		t.Fatal(err)
	}

	truth := make([]bool, rm.NumLinks())
	for k, q := range truthRates {
		truth[k] = q > lossmodel.Threshold
	}
	gate := core.VarGateAt(lossmodel.Threshold, 1000)
	det := stats.Detect(truth, res.CongestedGated(lossmodel.Threshold+0.0005, gate))
	if det.DR < 0.9 {
		t.Errorf("integration DR = %.3f", det.DR)
	}
	if det.FPR > 0.3 {
		t.Errorf("integration FPR = %.3f", det.FPR)
	}
	// Inferred rates of kept links must track the realized rates closely.
	for _, k := range res.Kept {
		if math.Abs(res.LossRates[k]-snap.LinkRealized[k]) > 0.02 {
			t.Errorf("link %d: inferred %.4f vs realized %.4f",
				k, res.LossRates[k], snap.LinkRealized[k])
		}
	}
	// And LIA must beat SCFS on the same snapshot.
	scfs := baseline.GreedyCover(rm, baseline.PathStatus(rm, snap.Frac, lossmodel.Threshold))
	sdet := stats.Detect(truth, scfs)
	if det.DR < sdet.DR-0.05 {
		t.Errorf("LIA DR %.3f worse than SCFS %.3f", det.DR, sdet.DR)
	}
}

// TestFullPipelineOverlay runs the miniature Section 7 pipeline over real
// UDP sockets: deploy, discover, probe, infer, cross-validate.
func TestFullPipelineOverlay(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 0))
	network := topogen.PlanetLabLike(rng, 8, 2)
	hosts := topogen.SelectHosts(rng, network, 6)
	paths := topogen.Routes(network, hosts, hosts)
	paths, _ = topology.RemoveFluttering(paths)
	// SequentialBeacons makes the run bit-reproducible: with concurrent
	// beacons the interleaving at the shared core socket varies per run, and
	// the 0.8-consistency assertion sat within one validation path of the
	// threshold on unlucky interleavings.
	lab, err := emunet.NewLab(network, paths, emunet.LabConfig{
		Probes:            300,
		Seed:              99,
		Loss:              lossmodel.Config{Fraction: 0.05},
		SequentialBeacons: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()

	discovered, err := lab.Discover()
	if err != nil {
		t.Fatal(err)
	}
	discovered, _ = topology.RemoveFluttering(discovered)
	if len(discovered) < len(paths)/2 {
		t.Fatalf("discovery kept only %d of %d paths", len(discovered), len(paths))
	}
	rm, err := topology.Build(discovered)
	if err != nil {
		t.Fatal(err)
	}
	if !core.Identifiable(rm) {
		t.Error("discovered topology not identifiable")
	}

	const m = 16
	for s := 0; s <= m; s++ {
		if _, err := lab.RunSnapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", s, err)
		}
	}
	fracs := lab.History()

	// Cross-validation at a tolerance matched to S=300 sampling noise.
	consistent, err := experiments.CrossValidate(discovered, fracs, m, 300, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if consistent < 0.8 {
		t.Errorf("overlay cross-validation consistency %.2f, want ≥ 0.8", consistent)
	}
}

// TestExperimentHarnessSmall exercises every experiment entry point at tiny
// scale so regressions in any runner are caught by `go test ./...` at the
// repository root too.
func TestExperimentHarnessSmall(t *testing.T) {
	cfg := experiments.Config{Scale: 0.12, Runs: 1, Snapshots: 12, Seed: 5}
	if _, err := experiments.Figure5(cfg); err != nil {
		t.Error(err)
	}
	if _, _, err := experiments.Figure6(cfg); err != nil {
		t.Error(err)
	}
	if _, err := experiments.Figure7(cfg); err != nil {
		t.Error(err)
	}
	if _, err := experiments.Table2(cfg); err != nil {
		t.Error(err)
	}
	if _, err := experiments.Figure9(cfg); err != nil {
		t.Error(err)
	}
	if _, err := experiments.Table3(cfg); err != nil {
		t.Error(err)
	}
	if _, _, err := experiments.Figure3(cfg, 40); err != nil {
		t.Error(err)
	}
	if _, err := experiments.CongestionDurations(cfg, 6, 0.01); err != nil {
		t.Error(err)
	}
	if _, err := experiments.RunningTimes(cfg, "planetlab"); err != nil {
		t.Error(err)
	}
}
