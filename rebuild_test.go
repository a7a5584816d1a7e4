package lia_test

import (
	"context"
	"testing"

	"lia"
)

// TestShardedDirtyComponents pins the DirtyComponents rule of the sharded
// roll-up: after an ingest every component's state trails its snapshots,
// so every component is dirty; a gather rebuilds them all, and none is.
func TestShardedDirtyComponents(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	se, err := lia.NewShardedEngine(rm, lia.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := se.Stats(); st.DirtyComponents != 0 {
		t.Fatalf("DirtyComponents = %d before any snapshot, want 0", st.DirtyComponents)
	}
	for round := 0; round < 2; round++ {
		if err := se.IngestBatch(snaps[round*30 : (round+1)*30]); err != nil {
			t.Fatal(err)
		}
		if st := se.Stats(); st.DirtyComponents != se.NumComponents() {
			t.Fatalf("round %d: DirtyComponents = %d after an ingest, want %d (all)",
				round, st.DirtyComponents, se.NumComponents())
		}
		if _, err := se.Steady(ctx); err != nil {
			t.Fatal(err)
		}
		if st := se.Stats(); st.DirtyComponents != 0 {
			t.Fatalf("round %d: DirtyComponents = %d after Steady, want 0", round, st.DirtyComponents)
		}
	}
}

// TestEngineWarmRebuildMatchesCold: every warm rebuild — the cached Phase-1
// factor against a fresh right-hand-side fold — is bitwise-equal to a
// cold-built engine fed the same stream, both for a windowed engine at
// capacity and for a decayed one whose divisor moves on every add.
func TestEngineWarmRebuildMatchesCold(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(shardStar(0, 100, 8))
	if err != nil {
		t.Fatal(err)
	}
	const window = 10
	stream := shardSnapshots(rm, window+4, 3)

	// The cached factor lives on the normal-equations path; a system this
	// small would auto-pick dense QR, so pin the method.
	check := func(t *testing.T, opt lia.Option) {
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
		}
	}

	t.Run("windowed", func(t *testing.T) {
		check(t, lia.WithWindow(window))
	})
	t.Run("decay", func(t *testing.T) {
		check(t, lia.WithDecay(0.9))
	})
}
