package core

import (
	"math/rand/v2"
	"testing"

	"lia/internal/stats"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// deltaTopology builds a routing matrix whose Phase-1 pair stream spans
// several shards (np(np+1)/2 well past pairsPerShard), so the right-hand
// side folds over more than one staging slot.
func deltaTopology(t *testing.T, seed uint64) *topology.RoutingMatrix {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	net := topogen.Tree(rng, 200, 4)
	paths := topogen.Routes(net, []int{0}, net.Hosts)
	rm, err := topology.Build(paths)
	if err != nil {
		t.Fatal(err)
	}
	if rm.NumPairs() <= 2*pairsPerShard {
		t.Fatalf("topology too small for a multi-shard fold: %d pairs", rm.NumPairs())
	}
	return rm
}

// tailVec returns an np-vector with noisy head coordinates and — when quiet
// — the last `tail` coordinates pinned to fixed per-path constants.
func tailVec(rng *rand.Rand, np, tail int, quiet bool) []float64 {
	y := make([]float64, np)
	for i := range y {
		if quiet && i >= np-tail {
			y[i] = 0.01 * float64(i+1)
		} else {
			y[i] = rng.NormFloat64()
		}
	}
	return y
}

// TestPhase1DeltaFoldBitwiseWindowed: a windowed accumulator at capacity
// (every add evicts a snapshot) over a topology where two thirds of the
// paths are quiet. Every warm Estimate against the cached factor must stay
// bitwise-identical to a one-shot solve, across worker counts.
func TestPhase1DeltaFoldBitwiseWindowed(t *testing.T) {
	rm := deltaTopology(t, 21)
	np := rm.NumPaths()
	tail := 2 * np / 3
	const window = 24
	for i, workers := range []int{shardWorkers(rm.NumPairs()), 1, 3} {
		rng := rand.New(rand.NewPCG(99, uint64(i)))
		acc := stats.NewWindowedCovAccumulator(np, window)
		for i := 0; i < window; i++ {
			acc.Add(tailVec(rng, np, tail, true))
		}
		p1 := pinnedPhase1(rm, VarianceOptions{}, false)
		for epoch := 0; epoch < 4; epoch++ {
			view := acc.View()
			want, err := pinnedPhase1(rm, VarianceOptions{}, false).estimate(view, workers)
			if err != nil {
				t.Fatalf("w%d epoch %d: one-shot: %v", workers, epoch, err)
			}
			got, err := p1.estimate(view, workers)
			if err != nil {
				t.Fatalf("w%d epoch %d: Phase1: %v", workers, epoch, err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("w%d epoch %d link %d: warm %g != cold %g (not bitwise identical)",
						workers, epoch, k, got[k], want[k])
				}
			}
			acc.Add(tailVec(rng, np, tail, true))
		}
	}
}

// TestPhase1DeltaDecayDegradesToFullFold: λ<1 rescales every co-moment and
// moves the divisor on each add; every warm Estimate must still be
// bitwise-identical to the cold fold.
func TestPhase1DeltaDecayDegradesToFullFold(t *testing.T) {
	rm := deltaTopology(t, 29)
	np := rm.NumPaths()
	rng := rand.New(rand.NewPCG(103, 9))
	acc := stats.NewDecayCovAccumulator(np, 0.9)
	for i := 0; i < 30; i++ {
		acc.Add(tailVec(rng, np, 2*np/3, true))
	}
	p1 := pinnedPhase1(rm, VarianceOptions{}, false)
	for epoch := 0; epoch < 3; epoch++ {
		view := acc.View()
		want, err := pinnedPhase1(rm, VarianceOptions{}, false).Estimate(view)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p1.Estimate(view)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("epoch %d link %d: %g != %g under decay", epoch, k, got[k], want[k])
			}
		}
		acc.Add(tailVec(rng, np, 2*np/3, true))
	}
}
