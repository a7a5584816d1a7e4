package lia_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"lia"
)

func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong-length snapshots are rejected with ErrDimensionMismatch.
	bad := make([]float64, rm.NumPaths()+1)
	if err := eng.Ingest(bad); !errors.Is(err, lia.ErrDimensionMismatch) {
		t.Fatalf("Ingest dim error = %v, want ErrDimensionMismatch", err)
	}
	if err := eng.IngestBatch([][]float64{make([]float64, rm.NumPaths()), bad}); !errors.Is(err, lia.ErrDimensionMismatch) {
		t.Fatalf("IngestBatch dim error = %v, want ErrDimensionMismatch", err)
	}
	if eng.Snapshots() != 0 {
		t.Fatalf("failed IngestBatch folded %d snapshots, want 0", eng.Snapshots())
	}
	if _, err := eng.Infer(ctx, bad); !errors.Is(err, lia.ErrDimensionMismatch) {
		t.Fatalf("Infer dim error = %v, want ErrDimensionMismatch", err)
	}

	// Inference before two learning snapshots: ErrTooFewSnapshots.
	y := make([]float64, rm.NumPaths())
	if _, err := eng.Infer(ctx, y); !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Fatalf("Infer with 0 snapshots = %v, want ErrTooFewSnapshots", err)
	}
	if err := eng.Ingest(y); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Variances(ctx); !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Fatalf("Variances with 1 snapshot = %v, want ErrTooFewSnapshots", err)
	}

}

func TestSentinelUnidentifiable(t *testing.T) {
	// Two paths sharing a link, with anti-correlated observations: the
	// single cross-pair covariance equation comes out negative, and the
	// paper's drop rule discards it — leaving 2 equations for 3 virtual
	// links. The engine must diagnose this as ErrUnidentifiable.
	ctx := context.Background()
	rm, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 1, Links: []int{1, 2}},
		{Beacon: 0, Dst: 2, Links: []int{1, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm, lia.WithNegCovPolicy(lia.NegDrop))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		y := []float64{-0.01, -0.02}
		if i%2 == 0 {
			y = []float64{-0.02, -0.01}
		}
		if err := eng.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Infer(ctx, []float64{-0.01, -0.01}); !errors.Is(err, lia.ErrUnidentifiable) {
		t.Fatalf("Infer on dropped-equation system = %v, want ErrUnidentifiable", err)
	}
	// The default clamp policy keeps the equation and stays solvable.
	clamped, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		y := []float64{-0.01, -0.02}
		if i%2 == 0 {
			y = []float64{-0.02, -0.01}
		}
		if err := clamped.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := clamped.Infer(ctx, []float64{-0.01, -0.01}); err != nil {
		t.Fatalf("clamp policy should stay identifiable, got %v", err)
	}
}

func TestThresholdOption(t *testing.T) {
	rm, err := lia.NewTopology(apiTreePaths(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	def, _ := lia.NewEngine(rm)
	if got := def.Threshold(); got != lia.DefaultThreshold {
		t.Fatalf("default threshold = %g, want %g", got, lia.DefaultThreshold)
	}
	custom, _ := lia.NewEngine(rm, lia.WithThreshold(0.01))
	if got := custom.Threshold(); got != 0.01 {
		t.Fatalf("threshold = %g, want 0.01", got)
	}
	// An explicit zero is honored, not silently replaced by the default.
	zero, _ := lia.NewEngine(rm, lia.WithThreshold(0))
	if got := zero.Threshold(); got != 0 {
		t.Fatalf("explicit zero threshold = %g, want 0", got)
	}
}

func TestThresholdZeroClassifies(t *testing.T) {
	// With tl = 0, InferCongested must flag every link with any inferred
	// loss — the behaviour the old threshold() default silently prevented.
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm, lia.WithThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	src := lia.NewSimSource(rm, lia.SimConfig{Probes: 500, Seed: 21, CongestedFraction: 0.3})
	if _, err := eng.Consume(ctx, lia.Limit(src, 30)); err != nil {
		t.Fatal(err)
	}
	probe, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	congested, res, err := eng.InferCongested(ctx, probe.Y)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range congested {
		if want := res.LossRates[k] > 0; c != want {
			t.Fatalf("link %d: congested=%v with loss %g under tl=0", k, c, res.LossRates[k])
		}
	}
}

func TestEngineWorkerCountsAgree(t *testing.T) {
	// The pool sizes come from GOMAXPROCS, which must never change a bit of
	// the answer. 100 paths give 5050 pairs: enough for a parallel fold.
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *lia.Result
	for _, procs := range []int{1, 2, 7} {
		runtime.GOMAXPROCS(procs)
		eng, err := lia.NewEngine(rm)
		if err != nil {
			t.Fatal(err)
		}
		src := lia.NewSimSource(rm, lia.SimConfig{Probes: 600, Seed: 9, CongestedFraction: 0.2})
		if _, err := eng.Consume(ctx, lia.Limit(src, 25)); err != nil {
			t.Fatal(err)
		}
		probe, err := src.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Infer(ctx, probe.Y)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for k := range ref.LossRates {
			if ref.LossRates[k] != res.LossRates[k] || ref.Variances[k] != res.Variances[k] {
				t.Fatalf("GOMAXPROCS=%d diverges from GOMAXPROCS=1 at link %d", procs, k)
			}
		}
	}
}
