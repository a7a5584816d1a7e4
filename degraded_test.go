package lia_test

// degraded_test.go covers the engine's degraded-mode boundary: a rebuild
// that fails after at least one state was built keeps serving the
// last-good epoch, surfaces the failure through Stats, and self-heals
// when the data becomes solvable again. The reliable failure trigger is
// WithWindow + NegDrop: once a window holds only anti-correlated
// snapshots, the negative path covariance equation is dropped and the
// system loses identifiability.

import (
	"context"
	"errors"
	"testing"

	"lia"
)

// sharedPairTopology is the smallest topology whose identifiability
// depends on one covariance equation: two paths sharing link 1, so
// dropping cov(p0,p1) leaves 2 equations for 3 virtual links.
func sharedPairTopology(t *testing.T) *lia.RoutingMatrix {
	t.Helper()
	rm, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 2, Links: []int{1, 2}},
		{Beacon: 0, Dst: 3, Links: []int{1, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// correlated snapshots keep cov(p0,p1) > 0 (solvable); antiCorrelated
// flip the pairing so the windowed covariance goes negative (NegDrop
// discards the equation → unidentifiable).
var (
	correlated = [][]float64{
		{-0.01, -0.01}, {-0.04, -0.04}, {-0.02, -0.02}, {-0.05, -0.05},
	}
	antiCorrelated = [][]float64{
		{-0.01, -0.04}, {-0.04, -0.01}, {-0.02, -0.05}, {-0.05, -0.02},
	}
)

func TestEngineDegradesOnRebuildFailure(t *testing.T) {
	ctx := context.Background()
	eng, err := lia.NewEngine(sharedPairTopology(t),
		lia.WithWindow(4), lia.WithNegCovPolicy(lia.NegDrop))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(correlated); err != nil {
		t.Fatal(err)
	}
	good, err := eng.Variances(ctx)
	if err != nil {
		t.Fatalf("solvable regime: %v", err)
	}
	if st := eng.Stats(); st.Degraded || st.RebuildFailures != 0 {
		t.Fatalf("healthy engine reports degradation: %+v", st)
	}

	// Regime shift: the window now holds only anti-correlated snapshots,
	// so the rebuild fails — but queries must keep answering from the
	// last-good epoch, bitwise unchanged.
	if err := eng.IngestBatch(antiCorrelated); err != nil {
		t.Fatal(err)
	}
	served, err := eng.Variances(ctx)
	if err != nil {
		t.Fatalf("degraded query failed instead of serving last-good: %v", err)
	}
	for k := range good {
		if served[k] != good[k] {
			t.Fatalf("link %d: degraded answer %g != last-good %g", k, served[k], good[k])
		}
	}
	if _, err := eng.Infer(ctx, antiCorrelated[0]); err != nil {
		t.Fatalf("degraded Infer: %v", err)
	}
	st := eng.Stats()
	if !st.Degraded {
		t.Fatal("Stats.Degraded = false after a failed rebuild")
	}
	if st.RebuildFailures == 0 {
		t.Fatal("Stats.RebuildFailures = 0 after a failed rebuild")
	}
	if st.LastError == "" || st.LastFailure.IsZero() {
		t.Fatalf("failure record empty: LastError=%q LastFailure=%v", st.LastError, st.LastFailure)
	}
	if st.StateEpoch != len(correlated) {
		t.Fatalf("served epoch %d, want last-good %d", st.StateEpoch, len(correlated))
	}
	if st.StateAge < 0 {
		t.Fatalf("StateAge = %v, want non-negative", st.StateAge)
	}

	// Recovery: a solvable window clears the degradation on the next query.
	if err := eng.IngestBatch(correlated); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Variances(ctx); err != nil {
		t.Fatalf("recovered regime: %v", err)
	}
	if st := eng.Stats(); st.Degraded || st.StateEpoch != 12 {
		t.Fatalf("engine did not recover: %+v", st)
	}
}

func TestEngineRebuildFailureWithoutStateSurfaces(t *testing.T) {
	ctx := context.Background()
	eng, err := lia.NewEngine(sharedPairTopology(t),
		lia.WithWindow(4), lia.WithNegCovPolicy(lia.NegDrop))
	if err != nil {
		t.Fatal(err)
	}
	// No state has ever been built: there is nothing to degrade to, so the
	// failure must surface, typed and with its cause intact.
	if err := eng.IngestBatch(antiCorrelated); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Variances(ctx)
	if !errors.Is(err, lia.ErrRebuildFailed) || !errors.Is(err, lia.ErrUnidentifiable) {
		t.Fatalf("stateless failure = %v, want ErrRebuildFailed wrapping ErrUnidentifiable", err)
	}
}

func TestEngineColdStartIsNotAFailure(t *testing.T) {
	ctx := context.Background()
	eng, err := lia.NewEngine(sharedPairTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest([]float64{-0.01, -0.02}); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Variances(ctx)
	if !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Fatalf("cold engine error = %v, want ErrTooFewSnapshots", err)
	}
	if errors.Is(err, lia.ErrRebuildFailed) {
		t.Fatalf("warm-up wrongly typed as a rebuild failure: %v", err)
	}
	if st := eng.Stats(); st.RebuildFailures != 0 || st.Degraded || st.LastError != "" {
		t.Fatalf("warm-up polluted the failure record: %+v", st)
	}
}
