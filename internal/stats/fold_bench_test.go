package stats

import (
	"fmt"
	"testing"
)

// BenchmarkMomentFold times one 64-snapshot batch folded snapshot by
// snapshot with Add against one AddBatch, on the shapes the pipeline
// benchmark's workloads fold: a 600-path cumulative accumulator (one
// ingest600 component) and a 25-path windowed one (one fed5k component).
func BenchmarkMomentFold(b *testing.B) {
	const batch = 64
	for _, tc := range []struct {
		name string
		mk   func() MomentAccumulator
		dim  int
	}{
		{"cumulative-600", func() MomentAccumulator { return NewCovAccumulator(600) }, 600},
		{"windowed64-25", func() MomentAccumulator { return NewWindowedCovAccumulator(25, 64) }, 25},
	} {
		ys := randVecs(5, batch, tc.dim, 0.02)
		for _, mode := range []string{"add", "batch"} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(b *testing.B) {
				acc := tc.mk()
				acc.AddBatch(ys) // fill the window: steady state evicts
				b.ReportAllocs()
				for b.Loop() {
					if mode == "batch" {
						acc.AddBatch(ys)
						continue
					}
					for _, y := range ys {
						acc.Add(y)
					}
				}
			})
		}
	}
}
