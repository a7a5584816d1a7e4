package lia_test

// engine_stats_test.go covers the engine observability hooks behind
// liaserve's /v1/status endpoint (Stats, Steady), warm rebuilds against a
// from-scratch engine, and the typed NDJSON line errors of FileSource.

import (
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"lia"
)

// TestEngineStatsWarmMatchesFresh: Stats must track epochs and rebuilds,
// and a second rebuild must give results bitwise identical to a
// from-scratch engine fed the same snapshots.
func TestEngineStatsWarmMatchesFresh(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	ys := collectSnapshots(t, rm, 11, 60)

	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Snapshots != 0 || st.StateEpoch != -1 || st.Rebuilds != 0 {
		t.Fatalf("fresh engine Stats = %+v", st)
	}
	if err := eng.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.EpochLag != 60 {
		t.Fatalf("pre-rebuild EpochLag = %d, want 60", st.EpochLag)
	}
	if _, err := eng.Infer(ctx, ys[len(ys)-1]); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Snapshots != 60 || st.StateEpoch != 60 || st.EpochLag != 0 {
		t.Fatalf("post-rebuild Stats = %+v", st)
	}
	if st.Rebuilds != 1 || st.LastRebuild <= 0 {
		t.Fatalf("Rebuilds = %d, LastRebuild = %v", st.Rebuilds, st.LastRebuild)
	}
	if st.Window != 0 || st.Decay != 0 {
		t.Fatalf("cumulative engine reports Window=%d Decay=%g", st.Window, st.Decay)
	}

	// Doubling the identical campaign triggers a second rebuild.
	if err := eng.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Infer(ctx, ys[len(ys)-1])
	if err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Rebuilds != 2 {
		t.Fatalf("after second campaign: Rebuilds=%d, want 2", st.Rebuilds)
	}

	// From-scratch reference over the same 120 snapshots: the partition and
	// every inferred value must match bitwise.
	fresh, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	if err := fresh.IngestBatch(ys); err != nil {
		t.Fatal(err)
	}
	wantRes, err := fresh.Infer(ctx, ys[len(ys)-1])
	if err != nil {
		t.Fatal(err)
	}
	steady, err := eng.Steady(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantSteady, err := fresh.Steady(ctx)
	if err != nil {
		t.Fatal(err)
	}
	kept, removed := steady.Kept, steady.Removed
	wantKept, wantRemoved := wantSteady.Kept, wantSteady.Removed
	if len(kept) != len(wantKept) || len(removed) != len(wantRemoved) {
		t.Fatalf("partition sizes: kept %d/%d removed %d/%d", len(kept), len(wantKept), len(removed), len(wantRemoved))
	}
	for i := range kept {
		if kept[i] != wantKept[i] {
			t.Fatalf("kept[%d] = %d, from-scratch %d", i, kept[i], wantKept[i])
		}
	}
	for i := range removed {
		if removed[i] != wantRemoved[i] {
			t.Fatalf("removed[%d] = %d, from-scratch %d", i, removed[i], wantRemoved[i])
		}
	}
	for k := range wantRes.LossRates {
		if math.Float64bits(res.LossRates[k]) != math.Float64bits(wantRes.LossRates[k]) ||
			math.Float64bits(res.Variances[k]) != math.Float64bits(wantRes.Variances[k]) {
			t.Fatalf("link %d: warm result differs from from-scratch: loss %v vs %v, var %v vs %v",
				k, res.LossRates[k], wantRes.LossRates[k], res.Variances[k], wantRes.Variances[k])
		}
	}
}

// TestFileSourceLineErrorResume: malformed and partial NDJSON lines surface
// as *LineError with the 1-based line number, and the source resumes on the
// following line.
func TestFileSourceLineErrorResume(t *testing.T) {
	ctx := context.Background()
	const stream = "[0.9, 1.0]\n[0.8, 0.95\n{\"snapshot\": 2}\n[0.7, 0.85]\n"
	src := lia.NewFileSource(strings.NewReader(stream), 1000)

	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	var le *lia.LineError
	if _, err := src.Next(ctx); !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("line 2: got %v, want *LineError{Line: 2}", err)
	}
	le = nil
	if _, err := src.Next(ctx); !errors.As(err, &le) || le.Line != 3 {
		t.Fatalf("line 3 (object without frac): got %v, want *LineError{Line: 3}", err)
	}
	if !strings.Contains(le.Error(), "line 3") {
		t.Fatalf("LineError message %q does not name the line", le.Error())
	}
	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("resume after bad lines: %v", err)
	}
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF: got %v", err)
	}
}

// TestFileSourceOverlongLineResume: a line beyond the 16 MB bound is
// consumed and reported as a *LineError, and the stream resumes on the
// following line instead of dying.
func TestFileSourceOverlongLineResume(t *testing.T) {
	ctx := context.Background()
	huge := "[" + strings.Repeat("0.5,", (16<<20)/4+16) + "0.5]" // > 16 MB, one line
	stream := "[0.9, 1.0]\n" + huge + "\n[0.7, 0.85]\n"
	src := lia.NewFileSource(strings.NewReader(stream), 1000)

	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	var le *lia.LineError
	if _, err := src.Next(ctx); !errors.As(err, &le) || le.Line != 2 {
		t.Fatalf("overlong line: got %v, want *LineError{Line: 2}", err)
	}
	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("resume after overlong line: %v", err)
	}
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF: got %v", err)
	}
}

// TestFileSourceReadErrorSticky: an I/O failure of the underlying reader is
// terminal — every later Next repeats the same *LineError instead of
// pretending the stream can resume.
func TestFileSourceReadErrorSticky(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("disk on fire")
	src := lia.NewFileSource(io.MultiReader(
		strings.NewReader("[0.9, 1.0]\n"),
		iotest.ErrReader(boom),
	), 1000)

	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	var le *lia.LineError
	if _, err := src.Next(ctx); !errors.As(err, &le) || !errors.Is(err, boom) || le.Line != 2 {
		t.Fatalf("read failure: got %v, want *LineError{Line: 2} wrapping the cause", err)
	}
	if _, err := src.Next(ctx); !errors.Is(err, boom) {
		t.Fatalf("sticky failure: got %v, want the same cause again", err)
	}
}

// TestConsumePartialStreamReportsPrefix: Engine.Consume over a stream with a
// corrupt middle line must ingest the valid prefix, report its exact count,
// and surface the line number of the failure.
func TestConsumePartialStreamReportsPrefix(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	const stream = "[0.9, 1.0]\n[0.8, 0.95]\n[0.7, 0.85,\n[0.6, 0.75]\n"
	n, err := eng.Consume(ctx, lia.NewFileSource(strings.NewReader(stream), 1000))
	var le *lia.LineError
	if !errors.As(err, &le) || le.Line != 3 {
		t.Fatalf("Consume error = %v, want *LineError{Line: 3}", err)
	}
	if n != 2 {
		t.Fatalf("Consume ingested %d before the failure, want 2", n)
	}
	if eng.Snapshots() != 2 {
		t.Fatalf("engine holds %d snapshots, want the 2-snapshot prefix", eng.Snapshots())
	}
}

// TestIngestBatchNamesOffendingIndex: a dimension error inside a batch names
// the bad index and leaves the moments untouched.
func TestIngestBatchNamesOffendingIndex(t *testing.T) {
	rm, err := lia.NewTopology(apiTreePaths(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.IngestBatch([][]float64{{-0.1, -0.2}, {-0.1}, {-0.3, -0.4}})
	if !errors.Is(err, lia.ErrDimensionMismatch) {
		t.Fatalf("IngestBatch error = %v, want ErrDimensionMismatch", err)
	}
	if !strings.Contains(err.Error(), "batch snapshot 1") {
		t.Fatalf("error %q does not name the offending batch index", err)
	}
	if eng.Snapshots() != 0 {
		t.Fatalf("failed batch ingested %d snapshots, want 0", eng.Snapshots())
	}
}
