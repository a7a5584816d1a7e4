package lia

// White-box coverage of the rebuild recover path: rebuildPanicHook stands
// in for a panic anywhere inside the Phase-1 solve, proving a poisoned
// rebuild is converted into degraded serving rather than unwinding the
// caller's goroutine.

import (
	"context"
	"strings"
	"testing"
)

func TestEngineRecoversRebuildPanic(t *testing.T) {
	ctx := context.Background()
	rm, err := NewTopology([]Path{
		{Beacon: 0, Dst: 2, Links: []int{1, 2}},
		{Beacon: 0, Dst: 3, Links: []int{1, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	ys := [][]float64{{-0.01, -0.01}, {-0.04, -0.04}, {-0.02, -0.02}}
	if err := eng.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	good, err := eng.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rebuildPanicHook = func() { panic("solver corrupted") }
	defer func() { rebuildPanicHook = nil }()
	if err := eng.Ingest([]float64{-0.05, -0.03}); err != nil {
		t.Fatal(err)
	}
	served, err := eng.Variances(ctx)
	if err != nil {
		t.Fatalf("panicking rebuild failed the query: %v", err)
	}
	for k := range good {
		if served[k] != good[k] {
			t.Fatalf("link %d: degraded answer %g != last-good %g", k, served[k], good[k])
		}
	}
	st := eng.Stats()
	if !st.Degraded || st.RebuildFailures == 0 {
		t.Fatalf("panic not recorded as degradation: %+v", st)
	}
	if !strings.Contains(st.LastError, "solver corrupted") {
		t.Fatalf("LastError %q lost the panic value", st.LastError)
	}

	// Removing the fault heals the engine on the next query.
	rebuildPanicHook = nil
	if _, err := eng.Variances(ctx); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Degraded || st.StateEpoch != 4 {
		t.Fatalf("engine did not heal after the panic cleared: %+v", st)
	}
}

// TestEngineFirstRebuildPanicSurfaces: an engine that has never built a
// state has nothing to degrade to, so a panicking first rebuild fails the
// query and the error keeps the panic value.
func TestEngineFirstRebuildPanicSurfaces(t *testing.T) {
	ctx := context.Background()
	rm, err := NewTopology([]Path{{Beacon: 0, Dst: 1, Links: []int{1}}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch([][]float64{{-0.01}, {-0.02}}); err != nil {
		t.Fatal(err)
	}
	rebuildPanicHook = func() { panic("solver corrupted") }
	defer func() { rebuildPanicHook = nil }()
	if _, err := eng.Variances(ctx); err == nil {
		t.Fatal("an engine with no state served through a panicking rebuild")
	} else if !strings.Contains(err.Error(), "solver corrupted") {
		t.Fatalf("error %v lost the panic value", err)
	}
}
