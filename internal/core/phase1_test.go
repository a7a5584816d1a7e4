package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// phase1Workload builds a randomized topology plus two moment states: the
// initial accumulator and an extended one with extra snapshots, so tests can
// exercise both the cold (cache-building) and warm (factor-reusing) paths of
// Phase1 against genuinely different right-hand sides.
func phase1Workload(t *testing.T, seed uint64) (*topology.RoutingMatrix, *stats.CovAccumulator, *stats.CovAccumulator) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*31+7))
	net := topogen.Tree(rng, 70, 5)
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
	acc := syntheticSnapshots(rng, rm, truth, 150)
	more := acc.Clone()
	x := make([]float64, rm.NumLinks())
	y := make([]float64, rm.NumPaths())
	for t := 0; t < 60; t++ {
		for k := range x {
			x[k] = rng.NormFloat64() * math.Sqrt(truth[k])
		}
		for i := range y {
			y[i] = 0
			for _, k := range rm.Row(i) {
				y[i] += x[k]
			}
		}
		more.Add(y)
	}
	return rm, acc, more
}

// TestPhase1MatchesEstimateVariances asserts a reused Phase1 is bitwise
// identical to a one-shot solve across every negative-covariance policy,
// both solvers, and several worker counts — on both the cold (first) and
// warm (cached-factor) calls.
func TestPhase1MatchesEstimateVariances(t *testing.T) {
	rm, acc, more := phase1Workload(t, 13)
	for _, sv := range solvers {
		for _, pol := range []NegativeCovPolicy{ClampNegativeCov, DropNegativeCov} {
			for _, workers := range []int{shardWorkers(rm.NumPairs()), 1, 3, 8} {
				opts := VarianceOptions{NegPolicy: pol}
				p1 := pinnedPhase1(rm, opts, sv.dense)
				for pass, cov := range []*stats.CovAccumulator{acc, more} {
					want, err := pinnedPhase1(rm, opts, sv.dense).estimate(cov, workers)
					if err != nil {
						t.Fatalf("%s/%v/w%d pass %d: one-shot: %v", sv.name, pol, workers, pass, err)
					}
					got, err := p1.estimate(cov, workers)
					if err != nil {
						t.Fatalf("%s/%v/w%d pass %d: Phase1: %v", sv.name, pol, workers, pass, err)
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s/%v/w%d pass %d link %d: cached %g != from-scratch %g (not bitwise identical)",
								sv.name, pol, workers, pass, k, got[k], want[k])
						}
					}
				}
				if wantWarm := pol != DropNegativeCov && !sv.dense; p1.Warm() != wantWarm {
					t.Fatalf("%s/%v/w%d: Warm() = %v, want %v", sv.name, pol, workers, p1.Warm(), wantWarm)
				}
			}
		}
	}
}

// TestPhase1ViewMatchesAccumulator: estimating against a frozen CovSnapshot
// (what lia.Engine captures under its ingest lock) must equal estimating
// against the live accumulator, bit for bit.
func TestPhase1ViewMatchesAccumulator(t *testing.T) {
	rm, acc, _ := phase1Workload(t, 29)
	p1 := pinnedPhase1(rm, VarianceOptions{}, false)
	live, err := p1.Estimate(acc)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := p1.Estimate(acc.View())
	if err != nil {
		t.Fatal(err)
	}
	for k := range live {
		if live[k] != frozen[k] {
			t.Fatalf("link %d: view estimate %g != accumulator estimate %g", k, frozen[k], live[k])
		}
	}
}

// TestPhase1Errors mirrors the EstimateVariances input gating.
func TestPhase1Errors(t *testing.T) {
	rm, _, _ := phase1Workload(t, 41)
	p1 := NewPhase1(rm, VarianceOptions{})
	if _, err := p1.Estimate(stats.NewCovAccumulator(rm.NumPaths())); !errors.Is(err, ErrTooFewSnapshots) {
		t.Fatalf("err = %v, want ErrTooFewSnapshots", err)
	}
	wrong := stats.NewCovAccumulator(rm.NumPaths() + 1)
	wrong.Add(make([]float64, rm.NumPaths()+1))
	wrong.Add(make([]float64, rm.NumPaths()+1))
	if _, err := p1.Estimate(wrong); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("err = %v, want ErrDimensionMismatch", err)
	}
}

// TestGramBandsPartition sanity-checks the row-band layout: monotone,
// covering, and degenerating to one band for one worker.
func TestGramBandsPartition(t *testing.T) {
	rm, _, _ := phase1Workload(t, 53)
	nc := rm.NumLinks()
	for _, workers := range []int{1, 2, 3, 7, nc, nc + 5} {
		bands := gramBands(rm, workers)
		if bands[0] != 0 || bands[len(bands)-1] != nc {
			t.Fatalf("workers=%d: bands %v do not cover [0,%d)", workers, bands, nc)
		}
		for i := 1; i < len(bands); i++ {
			if bands[i] < bands[i-1] {
				t.Fatalf("workers=%d: bands %v not monotone", workers, bands)
			}
		}
	}
	if b := gramBands(rm, 1); len(b) != 2 {
		t.Fatalf("one worker should get one band, got %v", b)
	}
}
