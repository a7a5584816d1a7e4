package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestMergeResults pins the gather rule on a hand-built three-component
// answer: local links map to global ones, Kept and Removed sort, the failed
// component's links read zero and Unresolved, and Epoch is the oldest
// healthy component's.
func TestMergeResults(t *testing.T) {
	links := [][]int{{4, 0}, {1, 5}, {2, 3}}
	parts := []*Result{
		{Epoch: 9, LossRates: []float64{0.1, 0.2}, LogRates: []float64{-1, -2}, Variances: []float64{1, 2}, Kept: []int{0, 1}},
		nil,
		{Epoch: 7, LossRates: []float64{0.3, 0}, LogRates: []float64{-3, 0}, Variances: []float64{3, 4}, Kept: []int{0}, Removed: []int{1}},
	}
	errs := []error{nil, errors.New("component 1 failed"), nil}
	got, err := MergeResults(context.Background(), 6, links, parts, errs)
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{
		LossRates:  []float64{0.2, 0, 0.3, 0, 0.1, 0},
		LogRates:   []float64{-2, 0, -3, 0, -1, 0},
		Variances:  []float64{2, 0, 3, 4, 1, 0},
		Kept:       []int{0, 2, 4},
		Removed:    []int{3},
		Unresolved: []int{1, 5},
		Epoch:      7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %+v, want %+v", got, want)
	}

	st, err := MergeSteady(context.Background(), 6, links, []*Result{
		{Epoch: 9, Variances: parts[0].Variances, Kept: parts[0].Kept}, nil, {Epoch: 7, Variances: parts[2].Variances, Kept: []int{0}, Removed: []int{1}},
	}, errs)
	if err != nil {
		t.Fatal(err)
	}
	wantSt := &SteadyState{Epoch: 7, Variances: want.Variances, Kept: want.Kept, Removed: want.Removed, Unresolved: want.Unresolved}
	if !reflect.DeepEqual(st, wantSt) {
		t.Fatalf("steady %+v, want %+v", st, wantSt)
	}
}

// TestMergeResultsTotalFailure checks the failure-tolerant error rule: a
// gather with one healthy component serves, one where every component
// failed returns the joined errors, and a cancelled caller always wins.
func TestMergeResultsTotalFailure(t *testing.T) {
	links := [][]int{{0}, {1}}
	errs := []error{ErrTooFewSnapshots, ErrTooFewSnapshots}
	if _, err := MergeResults(context.Background(), 2, links, make([]*Result, 2), errs); !errors.Is(err, ErrTooFewSnapshots) {
		t.Fatalf("total failure: %v, want ErrTooFewSnapshots", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	parts := []*Result{{Variances: []float64{1}}, {Variances: []float64{2}}}
	if _, err := MergeResults(ctx, 2, links, parts, make([]error, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather: %v, want context.Canceled", err)
	}
}

// TestRollUp pins the stats roll-up: counters sum, StateEpoch is the
// oldest component's, a component is unhealthy while Degraded or while it
// failed with no state built, DirtyComponents counts the healthy
// components that lag their snapshots, and EpochLag follows from the
// host's Snapshots.
func TestRollUp(t *testing.T) {
	comps := []Stats{
		{StateEpoch: 10, EpochLag: 2, Rebuilds: 2},                                    // lagging, healthy: dirty
		{StateEpoch: 8, EpochLag: 4, Rebuilds: 1, RebuildFailures: 1, Degraded: true}, // lagging, degraded: not dirty
		{StateEpoch: -1, EpochLag: 12, RebuildFailures: 2},                            // failing unbuilt: not dirty
		{StateEpoch: -1, EpochLag: 12},                                                // not built yet, but not failing either: dirty
		{StateEpoch: 12},                                                              // warm: not dirty
	}
	got := RollUp(Stats{Snapshots: 12, Components: 4}, comps[:2])
	want := Stats{Snapshots: 12, Components: 4, StateEpoch: 8, EpochLag: 4, Rebuilds: 3,
		RebuildFailures: 1, Degraded: true, DegradedComponents: 1, DirtyComponents: 1}
	if got != want {
		t.Fatalf("RollUp = %+v, want %+v", got, want)
	}
	got = RollUp(Stats{Snapshots: 12}, comps)
	if got.StateEpoch != -1 || got.EpochLag != 12 || got.DegradedComponents != 2 || got.DirtyComponents != 2 {
		t.Fatalf("RollUp with unbuilt components = %+v", got)
	}
	if got := RollUp(Stats{Snapshots: 3}, nil); got.StateEpoch != -1 || got.EpochLag != 3 || got.Degraded {
		t.Fatalf("RollUp of no components = %+v", got)
	}
}
