package lia_test

import (
	"context"
	"errors"
	"testing"

	"lia"
)

// TestIngestSparseValidation: malformed sparse snapshots are rejected with
// ErrDimensionMismatch, partial-component coverage with ErrPartialComponent,
// and — the all-or-nothing contract — a rejected snapshot leaves every
// moment untouched, including components the snapshot fully covered.
func TestIngestSparseValidation(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	se, err := lia.NewShardedEngine(rm, lia.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range snaps {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	base, err := se.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}

	np := rm.NumPaths()
	bad := []struct {
		name  string
		paths []int
		n     int
	}{
		{"empty", nil, 0},
		{"length mismatch", []int{0, 3}, 1},
		{"descending", []int{3, 0}, 2},
		{"duplicate", []int{3, 3}, 2},
		{"out of range", []int{0, np}, 2},
		{"negative", []int{-1, 0}, 2},
	}
	for _, tc := range bad {
		if err := se.IngestSparse(tc.paths, make([]float64, tc.n)); !errors.Is(err, lia.ErrDimensionMismatch) {
			t.Fatalf("%s: err = %v, want ErrDimensionMismatch", tc.name, err)
		}
	}

	// Component 0 fully covered, component 1 missing one path: rejected as
	// a whole, nothing folds anywhere.
	part := se.Partition()
	c0, c1 := part.Component(0), part.Component(1)
	paths := append(append([]int(nil), c0.Paths...), c1.Paths[:len(c1.Paths)-1]...)
	if err := se.IngestSparse(sortedInts(paths), make([]float64, len(paths))); !errors.Is(err, lia.ErrPartialComponent) {
		t.Fatalf("partial component: err = %v, want ErrPartialComponent", err)
	}
	if got := se.Snapshots(); got != len(snaps) {
		t.Fatalf("rejected sparse snapshot advanced the epoch: %d, want %d", got, len(snaps))
	}
	after, err := se.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range base {
		if after[k] != base[k] {
			t.Fatalf("link %d: variance moved %g -> %g after a rejected sparse snapshot", k, base[k], after[k])
		}
	}
}

// sortedInts returns a sorted copy (insertion sort; test-sized inputs).
func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestEngineIngestSparse: the plain engine accepts exactly full coverage —
// where IngestSparse is Ingest — and rejects anything less with
// ErrPartialComponent.
func TestEngineIngestSparse(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(shardStar(0, 100, 6))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, rm.NumPaths())
	for i := range all {
		all[i] = i
	}
	for _, y := range shardSnapshots(rm, 30, 5) {
		if err := eng.IngestSparse(all, y); err != nil {
			t.Fatal(err)
		}
		if err := ref.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	got, err := eng.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("link %d: IngestSparse %g != Ingest %g (not bitwise)", k, got[k], want[k])
		}
	}
	if err := eng.IngestSparse(all[:len(all)-1], make([]float64, len(all)-1)); !errors.Is(err, lia.ErrPartialComponent) {
		t.Fatalf("partial coverage on plain engine: err = %v, want ErrPartialComponent", err)
	}
}

// TestShardedIngestSparseSkipsUntouched is the engine-level O(delta)
// contract: after sparse snapshots covering only component 0, the next
// rebuild wave rebuilds exactly that component — its estimates
// bitwise-match a standalone reference engine fed the same rows — while
// every untouched component's variances stay bitwise-frozen and the wave
// counters (DirtyComponents, DirtyShards, SkippedComponents) record the
// skipped work.
func TestShardedIngestSparseSkipsUntouched(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	se, err := lia.NewShardedEngine(rm, lia.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	part := se.Partition()
	comp0 := part.Component(0)

	// Standalone reference over component 0's paths alone.
	paths := make([]lia.Path, len(comp0.Paths))
	for pl, pg := range comp0.Paths {
		paths[pl] = rm.Path(pg)
	}
	crm, err := lia.NewTopology(paths)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lia.NewEngine(crm)
	if err != nil {
		t.Fatal(err)
	}

	sub := make([]float64, len(comp0.Paths))
	for _, y := range snaps {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
		for pl, pg := range comp0.Paths {
			sub[pl] = y[pg]
		}
		if err := ref.Ingest(sub); err != nil {
			t.Fatal(err)
		}
	}
	base, err := se.Variances(ctx) // wave 1: every component rebuilds
	if err != nil {
		t.Fatal(err)
	}

	// Steady state: only component 0 sees traffic.
	for _, y := range shardSnapshots(rm, 5, 42) {
		for pl, pg := range comp0.Paths {
			sub[pl] = y[pg]
		}
		if err := se.IngestSparse(comp0.Paths, sub); err != nil {
			t.Fatal(err)
		}
		if err := ref.Ingest(sub); err != nil {
			t.Fatal(err)
		}
	}
	vars, err := se.Variances(ctx) // wave 2: component 0 only
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}

	comp0Link := make(map[int]bool, len(comp0.Links))
	for _, kg := range comp0.Links {
		comp0Link[kg] = true
	}
	for kl := 0; kl < crm.NumLinks(); kl++ {
		kg, ok := rm.VirtualOf(crm.Members(kl)[0])
		if !ok {
			t.Fatalf("component link %d lost its global identity", kl)
		}
		if vars[kg] != want[kl] {
			t.Fatalf("covered link %d: sparse-fed sharded variance %g != reference %g (not bitwise)",
				kg, vars[kg], want[kl])
		}
	}
	for k := range vars {
		if !comp0Link[k] && vars[k] != base[k] {
			t.Fatalf("untouched link %d: variance moved %g -> %g across a wave that should have skipped it",
				k, base[k], vars[k])
		}
	}

	st := se.Stats()
	if st.DirtyComponents != 1 {
		t.Fatalf("DirtyComponents = %d, want 1 (only component 0 saw snapshots)", st.DirtyComponents)
	}
	if st.DirtyShards != 1 {
		t.Fatalf("DirtyShards = %d, want 1 (one rebuild group held the dirty component)", st.DirtyShards)
	}
	if want := uint64(part.NumComponents() - 1); st.SkippedComponents != want {
		t.Fatalf("SkippedComponents = %d, want %d (wave 2 skipped every untouched component)",
			st.SkippedComponents, want)
	}
	if st.Snapshots != len(snaps)+5 {
		t.Fatalf("Snapshots = %d, want %d (sparse snapshots advance the global epoch)", st.Snapshots, len(snaps)+5)
	}
}

// TestEngineStatsDeltaRebuilds wires the Phase-1 delta-fold telemetry
// through Engine.Stats: a windowed engine at capacity reports one
// DeltaRebuild per warm rebuild (with estimates bitwise-equal to a
// cold-built reference each time), while a decayed engine — whose divisor
// moves on every add — reports zero, degrading to full folds without ever
// diverging.
func TestEngineStatsDeltaRebuilds(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(shardStar(0, 100, 8))
	if err != nil {
		t.Fatal(err)
	}
	const window = 10
	stream := shardSnapshots(rm, window+4, 3)

	// The delta fold lives on the cacheable normal-equations path; a system
	// this small would auto-pick dense QR, so pin the method.
	check := func(t *testing.T, opt lia.Option, wantDelta func(i int) uint64) {
		eng, err := lia.NewEngine(rm, opt, lia.WithVarianceMethod(lia.VarianceNormalEquations))
		if err != nil {
			t.Fatal(err)
		}
		for _, y := range stream[:window] {
			if err := eng.Ingest(y); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Variances(ctx); err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.DeltaRebuilds != 0 {
			t.Fatalf("priming rebuild: DeltaRebuilds = %d, want 0 (first fold is always full)", st.DeltaRebuilds)
		}
		for i, y := range stream[window:] {
			if err := eng.Ingest(y); err != nil {
				t.Fatal(err)
			}
			got, err := eng.Variances(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// Cold reference: a fresh engine fed the same stream, first solve.
			cold, err := lia.NewEngine(rm, opt, lia.WithVarianceMethod(lia.VarianceNormalEquations))
			if err != nil {
				t.Fatal(err)
			}
			for _, yy := range stream[:window+i+1] {
				if err := cold.Ingest(yy); err != nil {
					t.Fatal(err)
				}
			}
			want, err := cold.Variances(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("epoch %d link %d: warm %g != cold %g (not bitwise)", i, k, got[k], want[k])
				}
			}
			st := eng.Stats()
			if st.DeltaRebuilds != wantDelta(i) {
				t.Fatalf("epoch %d: DeltaRebuilds = %d, want %d", i, st.DeltaRebuilds, wantDelta(i))
			}
			if st.DirtyShards < 1 {
				t.Fatalf("epoch %d: DirtyShards = %d after a rebuild", i, st.DirtyShards)
			}
		}
	}

	t.Run("windowed", func(t *testing.T) {
		check(t, lia.WithWindow(window), func(i int) uint64 { return uint64(i + 1) })
	})
	t.Run("decay", func(t *testing.T) {
		check(t, lia.WithDecay(0.9), func(int) uint64 { return 0 })
	})
}
