package lia_test

// sharded_degraded_test.go covers per-component failure isolation: one
// poisoned component of a ShardedEngine degrades only its own links —
// zeros, listed as Unresolved — while every healthy component's estimates
// stay bitwise-identical to a plain Engine over that component alone.

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"lia"
)

// twoComponentEngine builds a sharded engine over two link-disjoint
// two-path stars (A: links 1..3, B: links 1001..1003), interleaved so the
// components are non-contiguous in global path order: [A0 B0 A1 B1].
func twoComponentEngine(t *testing.T, opts ...lia.Option) (*lia.ShardedEngine, *lia.RoutingMatrix) {
	t.Helper()
	rm, err := lia.NewTopology(shardInterleave(shardStar(1, 100, 2), shardStar(1001, 200, 2)))
	if err != nil {
		t.Fatal(err)
	}
	se, err := lia.NewShardedEngine(rm, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if se.NumComponents() != 2 {
		t.Fatalf("topology has %d components, want 2", se.NumComponents())
	}
	return se, rm
}

// interleaveRows builds global snapshots from per-component pair streams:
// component A's pairs land on global paths 0/2, component B's on 1/3.
func interleaveRows(a, b [][]float64) [][]float64 {
	ys := make([][]float64, len(a))
	for i := range ys {
		ys[i] = []float64{a[i][0], b[i][0], a[i][1], b[i][1]}
	}
	return ys
}

// globalLinks maps a component's physical star links to their global
// virtual link IDs.
func globalLinks(t *testing.T, rm *lia.RoutingMatrix, base int) []int {
	t.Helper()
	out := make([]int, 0, 3)
	for _, phys := range []int{base, base + 1, base + 2} {
		kg, ok := rm.VirtualOf(phys)
		if !ok {
			t.Fatalf("physical link %d has no virtual identity", phys)
		}
		out = append(out, kg)
	}
	return out
}

func TestShardedPoisonedComponentDegradesOnlyItsLinks(t *testing.T) {
	ctx := context.Background()
	opts := []lia.Option{lia.WithWindow(4), lia.WithNegCovPolicy(lia.NegDrop), lia.WithShards(2)}
	se, rm := twoComponentEngine(t, opts...)

	// Component A sees solvable correlated pairs; component B sees only
	// anti-correlated ones, so B's covariance equation drops and B never
	// builds a state.
	if err := se.IngestBatch(interleaveRows(correlated, antiCorrelated)); err != nil {
		t.Fatal(err)
	}

	// The reference: a plain engine over component A alone, same options,
	// same rows. Bitwise parity must survive B's failure.
	crm, err := lia.NewTopology(shardStar(1, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lia.NewEngine(crm, lia.WithWindow(4), lia.WithNegCovPolicy(lia.NegDrop))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(correlated); err != nil {
		t.Fatal(err)
	}

	// aLinks[kl] is the global virtual link behind the reference engine's
	// local link kl (mapped through a shared physical member, as virtual
	// link order differs between the global and component reductions);
	// bLinks is simply the set of B's global links.
	aLinks := make([]int, crm.NumLinks())
	for kl := range aLinks {
		kg, ok := rm.VirtualOf(crm.Members(kl)[0])
		if !ok {
			t.Fatalf("component link %d lost its global identity", kl)
		}
		aLinks[kl] = kg
	}
	bLinks := globalLinks(t, rm, 1001)

	vars, err := se.Variances(ctx)
	if err != nil {
		t.Fatalf("one healthy component should carry the gather: %v", err)
	}
	want, err := ref.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for kl, kg := range aLinks {
		if vars[kg] != want[kl] {
			t.Fatalf("healthy link %d: sharded %g != reference %g (not bitwise)", kg, vars[kg], want[kl])
		}
	}
	for _, kg := range bLinks {
		if vars[kg] != 0 {
			t.Fatalf("poisoned link %d reports %g, want 0", kg, vars[kg])
		}
	}

	probe := []float64{-0.02, -0.03, -0.02, -0.01}
	res, err := se.Infer(ctx, probe)
	if err != nil {
		t.Fatalf("degraded Infer: %v", err)
	}
	wantRes, err := ref.Infer(ctx, []float64{probe[0], probe[2]})
	if err != nil {
		t.Fatal(err)
	}
	for kl, kg := range aLinks {
		if res.LossRates[kg] != wantRes.LossRates[kl] || res.LogRates[kg] != wantRes.LogRates[kl] {
			t.Fatalf("healthy link %d: sharded inference (%g, %g) != reference (%g, %g)",
				kg, res.LossRates[kg], res.LogRates[kg], wantRes.LossRates[kl], wantRes.LogRates[kl])
		}
	}
	if len(res.Unresolved) != len(bLinks) {
		t.Fatalf("Unresolved = %v, want component B's links %v", res.Unresolved, bLinks)
	}
	unresolved := map[int]bool{}
	for _, kg := range res.Unresolved {
		unresolved[kg] = true
	}
	for _, kg := range bLinks {
		if !unresolved[kg] {
			t.Fatalf("poisoned link %d missing from Unresolved %v", kg, res.Unresolved)
		}
	}
	if got := len(res.Kept) + len(res.Removed) + len(res.Unresolved); got != rm.NumLinks() {
		t.Fatalf("kept+removed+unresolved = %d, want %d links", got, rm.NumLinks())
	}
	if res.Epoch != 4 {
		t.Fatalf("gathered epoch %d, want the healthy component's 4", res.Epoch)
	}

	st, err := se.Steady(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Unresolved) != len(bLinks) {
		t.Fatalf("Steady.Unresolved = %v, want %d links", st.Unresolved, len(bLinks))
	}

	stats := se.Stats()
	if !stats.Degraded || stats.DegradedComponents != 1 {
		t.Fatalf("Stats = %+v, want Degraded with exactly 1 degraded component", stats)
	}
	if stats.RebuildFailures == 0 || stats.LastError == "" {
		t.Fatalf("failure record empty: %+v", stats)
	}
	unhealthyCount := 0
	for _, cs := range se.ComponentStats() {
		if cs.RebuildFailures > 0 && cs.StateEpoch < 0 {
			unhealthyCount++
		}
	}
	if unhealthyCount != 1 {
		t.Fatalf("ComponentStats shows %d never-built failing components, want 1", unhealthyCount)
	}

	// Healing: once B's window turns solvable, the whole engine recovers.
	if err := se.IngestBatch(interleaveRows(correlated, correlated)); err != nil {
		t.Fatal(err)
	}
	res, err = se.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unresolved) != 0 {
		t.Fatalf("recovered Infer still reports Unresolved %v", res.Unresolved)
	}
	if stats := se.Stats(); stats.Degraded || stats.DegradedComponents != 0 {
		t.Fatalf("engine did not recover: %+v", stats)
	}
}

func TestShardedAllComponentsFailingSurfaces(t *testing.T) {
	ctx := context.Background()
	se, _ := twoComponentEngine(t,
		lia.WithWindow(4), lia.WithNegCovPolicy(lia.NegDrop), lia.WithShards(2))
	if err := se.IngestBatch(interleaveRows(antiCorrelated, antiCorrelated)); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Variances(ctx); !errors.Is(err, lia.ErrRebuildFailed) {
		t.Fatalf("total failure = %v, want ErrRebuildFailed", err)
	}
}

func TestShardedColdStartIsNotAFailure(t *testing.T) {
	ctx := context.Background()
	se, _ := twoComponentEngine(t, lia.WithShards(2))
	if err := se.Ingest([]float64{-0.01, -0.02, -0.03, -0.04}); err != nil {
		t.Fatal(err)
	}
	_, err := se.Variances(ctx)
	if !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Fatalf("cold sharded engine = %v, want ErrTooFewSnapshots", err)
	}
	if errors.Is(err, lia.ErrRebuildFailed) {
		t.Fatalf("warm-up wrongly typed as rebuild failure: %v", err)
	}
}

// TestShardedOverflowedComponentIsUnresolved overflows one component's
// moments with huge finite observations from its first snapshot on: its
// Phase-1 variances are not finite, so it never builds a state and only its
// links come back Unresolved, while the healthy component keeps inferring
// and every value served stays finite.
func TestShardedOverflowedComponentIsUnresolved(t *testing.T) {
	ctx := context.Background()
	se, rm := twoComponentEngine(t, lia.WithShards(2))
	overflowed := make([][]float64, len(correlated))
	for i, y := range correlated {
		overflowed[i] = slices.Clone(y)
	}
	overflowed[0] = []float64{-1e300, -1e300}
	if err := se.IngestBatch(interleaveRows(correlated, overflowed)); err != nil {
		t.Fatal(err)
	}
	res, err := se.Infer(ctx, []float64{-0.02, -0.03, -0.02, -0.01})
	if err != nil {
		t.Fatalf("one healthy component should carry the gather: %v", err)
	}
	bLinks := globalLinks(t, rm, 1001)
	if !slices.Equal(res.Unresolved, slices.Sorted(slices.Values(bLinks))) {
		t.Fatalf("Unresolved = %v, want the overflowed component's links %v", res.Unresolved, bLinks)
	}
	for k := range res.LossRates {
		for _, v := range []float64{res.LossRates[k], res.LogRates[k], res.Variances[k]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("link %d serves a non-finite value %v", k, v)
			}
		}
	}
	if aLinks := globalLinks(t, rm, 1); slices.Contains(res.Unresolved, aLinks[0]) {
		t.Fatalf("healthy link %d is Unresolved", aLinks[0])
	}
	if stats := se.Stats(); stats.DegradedComponents != 1 || stats.RebuildFailures == 0 {
		t.Fatalf("Stats = %+v, want exactly 1 failing component", stats)
	}
}
