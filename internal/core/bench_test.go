package core

import (
	"math"
	"testing"
)

// BenchmarkEstimateVariances measures Phase 1 proper (the Σ* = A·v solve)
// on each solver, pinned, with one worker against the GOMAXPROCS-sized
// pool; run with -cpu to scale the pool.
func BenchmarkEstimateVariances(b *testing.B) {
	rm, _, acc := randomWorkload(b, 5, 200)
	if err := rm.PrecomputePairSupports(); err != nil { // not timed here
		b.Fatal(err)
	}
	for _, sv := range solvers {
		for _, leg := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", shardWorkers(rm.NumPairs())}} {
			b.Run(sv.name+"/"+leg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pinnedPhase1(rm, VarianceOptions{}, sv.dense).estimate(acc, leg.workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationVarianceSolver compares the two Phase-1 solvers on one
// synthetic tree whose link variances are known: the time per solve and the
// mean absolute estimation error (abserr).
func BenchmarkAblationVarianceSolver(b *testing.B) {
	rm, truth, acc := randomWorkload(b, 11, 120)
	for _, sv := range solvers {
		b.Run(sv.name, func(b *testing.B) {
			var got []float64
			for i := 0; i < b.N; i++ {
				var err error
				if got, err = pinnedPhase1(rm, VarianceOptions{}, sv.dense).Estimate(acc); err != nil {
					b.Fatal(err)
				}
			}
			var sum float64
			for k := range got {
				sum += math.Abs(got[k] - truth[k])
			}
			b.ReportMetric(sum/float64(len(got)), "abserr")
		})
	}
}
