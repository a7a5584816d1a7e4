package lia_test

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"lia"
)

// collectSnapshots drains n snapshot vectors from a fresh simulator source.
func collectSnapshots(t *testing.T, rm *lia.RoutingMatrix, seed uint64, n int) [][]float64 {
	t.Helper()
	ctx := context.Background()
	src := lia.NewSimSource(rm, lia.SimConfig{Probes: 600, Seed: seed, CongestedFraction: 0.2})
	ys := make([][]float64, 0, n)
	for len(ys) < n {
		snap, err := src.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ys = append(ys, snap.Y)
	}
	return ys
}

// TestEngineWindowMatchesFresh: a WithWindow(n) engine that has ingested a
// long history must produce the same Phase-1 variances as a fresh engine fed
// only the last n snapshots, up to the rounding error of the exact
// reverse-Welford removals.
func TestEngineWindowMatchesFresh(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	const window, total = 40, 130
	ys := collectSnapshots(t, rm, 77, total)

	windowed, err := lia.NewEngine(rm, lia.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range ys {
		if err := windowed.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	if got := windowed.Snapshots(); got != total {
		t.Fatalf("Snapshots = %d, want lifetime count %d", got, total)
	}
	if st := windowed.Stats(); st.Window != window {
		t.Fatalf("Stats.Window = %d, want %d", st.Window, window)
	}

	fresh, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.IngestBatch(ys[total-window:]); err != nil {
		t.Fatal(err)
	}

	got, err := windowed.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if d := math.Abs(got[k] - want[k]); d > 1e-12+1e-8*math.Abs(want[k]) {
			t.Fatalf("link %d: windowed variance %g, fresh-last-%d variance %g (Δ=%g)",
				k, got[k], window, want[k], d)
		}
	}
}

// TestEngineWindowTracksRegimeChange: after a congestion regime change that
// fills the window, the windowed engine's variance ordering reflects the new
// regime while staying a valid Phase-1 input (inference still works).
func TestEngineWindowTracksRegimeChange(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm, lia.WithWindow(30))
	if err != nil {
		t.Fatal(err)
	}
	// Two campaigns with different seeds → different congested link sets.
	old := collectSnapshots(t, rm, 5, 60)
	cur := collectSnapshots(t, rm, 6, 60)
	if err := eng.IngestBatch(old); err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(cur); err != nil {
		t.Fatal(err)
	}
	// The window now holds only new-regime snapshots: the engine must agree
	// with a fresh engine over the same 30, and inference must run.
	fresh, _ := lia.NewEngine(rm)
	if err := fresh.IngestBatch(cur[len(cur)-30:]); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if d := math.Abs(got[k] - want[k]); d > 1e-12+1e-8*math.Abs(want[k]) {
			t.Fatalf("link %d: windowed %g vs fresh %g after regime change", k, got[k], want[k])
		}
	}
	if _, err := eng.Infer(ctx, cur[len(cur)-1]); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDecayOneMatchesDefault: WithDecay(1) is the cumulative engine,
// bit for bit.
func TestEngineDecayOneMatchesDefault(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	ys := collectSnapshots(t, rm, 9, 40)
	decayed, err := lia.NewEngine(rm, lia.WithDecay(1))
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := lia.NewEngine(rm)
	if err := decayed.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	if err := plain.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	a, err := decayed.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("link %d: WithDecay(1) %g != default %g", k, a[k], b[k])
		}
	}
}

// TestEngineDecaySmoke: a λ < 1 engine stays solvable and inferable.
func TestEngineDecaySmoke(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm, lia.WithDecay(0.97))
	if err != nil {
		t.Fatal(err)
	}
	ys := collectSnapshots(t, rm, 15, 80)
	if err := eng.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(ctx, ys[len(ys)-1]); err != nil {
		t.Fatal(err)
	}
}

// TestMomentOptionValidation: invalid window/decay configurations fail at
// construction, not at first use.
func TestMomentOptionValidation(t *testing.T) {
	rm, err := lia.NewTopology(apiTreePaths(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]lia.Option{
		"window-1":     {lia.WithWindow(1)},
		"decay-0":      {lia.WithDecay(0)},
		"decay-1.5":    {lia.WithDecay(1.5)},
		"window+decay": {lia.WithWindow(10), lia.WithDecay(0.9)},
	} {
		if _, err := lia.NewEngine(rm, opts...); err == nil {
			t.Fatalf("%s: NewEngine accepted an invalid moment configuration", name)
		}
	}
}

// failAfterSource yields n snapshots from the wrapped source, then a
// non-EOF error.
type failAfterSource struct {
	src  lia.SnapshotSource
	left int
}

var errSourceBroke = errors.New("source broke")

func (f *failAfterSource) Next(ctx context.Context) (lia.Snapshot, error) {
	if f.left <= 0 {
		return lia.Snapshot{}, errSourceBroke
	}
	f.left--
	return f.src.Next(ctx)
}

// TestConsumeBatchingMatchesIngestLoop: the batched Consume must fold the
// same snapshots in the same order as a per-snapshot Ingest loop — same
// count, bitwise-same variances — including when the stream length is not a
// multiple of the batch size, and must flush the buffered prefix when the
// source fails mid-stream.
func TestConsumeBatchingMatchesIngestLoop(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	const total = 150 // 2×64 + 22: exercises full and partial batches
	ys := collectSnapshots(t, rm, 33, total)

	consumed, _ := lia.NewEngine(rm)
	if n, err := consumed.Consume(ctx, lia.NewSliceSource(ys)); err != nil || n != total {
		t.Fatalf("Consume = (%d, %v), want (%d, nil)", n, err, total)
	}
	looped, _ := lia.NewEngine(rm)
	for _, y := range ys {
		if err := looped.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	if consumed.Snapshots() != looped.Snapshots() {
		t.Fatalf("Snapshots: consumed %d, looped %d", consumed.Snapshots(), looped.Snapshots())
	}
	a, err := consumed.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := looped.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("link %d: batched Consume %g != Ingest loop %g", k, a[k], b[k])
		}
	}

	// A mid-stream failure (not at a batch boundary) must still fold the
	// snapshots read so far.
	broken, _ := lia.NewEngine(rm)
	n, err := broken.Consume(ctx, &failAfterSource{src: lia.NewSliceSource(ys), left: 70})
	if !errors.Is(err, errSourceBroke) {
		t.Fatalf("Consume error = %v, want errSourceBroke", err)
	}
	if n != 70 || broken.Snapshots() != 70 {
		t.Fatalf("Consume flushed (%d, %d snapshots), want 70", n, broken.Snapshots())
	}
	_ = io.EOF // (EOF path covered by the happy case above)
}
