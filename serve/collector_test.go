package serve_test

// collector_test.go round-trips the live CollectorSource against in-process
// emunet agents speaking the collector report protocol over real TCP.

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"lia"
	"lia/internal/emunet"
	"lia/serve"
)

// TestCollectorSourceRoundTrip: beacon-style sent reports and sink-style
// received reports merge into ordered snapshots whose log rates match
// lia.LogRates exactly.
func TestCollectorSourceRoundTrip(t *testing.T) {
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     2,
		Probes:    100,
		Settle:    -1, // no merge wait: see the report order below
		Timeout:   10 * time.Second,
		Snapshots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	rc, err := emunet.DialCollector(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Out-of-order and split reports, as real agents produce: beacons send
	// Sent immediately, sinks send Received on their own timer. A snapshot
	// completes once every path's Sent is merged, and with Settle -1 it is
	// read at that instant. The collector merges one connection's reports
	// in order, so snapshot 0's completing Sent goes last: both Received
	// reports are merged before it.
	reports := []emunet.Report{
		{PathID: 1, Snapshot: 0, Sent: 100},
		{PathID: 0, Snapshot: 0, Received: 90},
		{PathID: 1, Snapshot: 0, Received: 100},
		{PathID: 0, Snapshot: 0, Sent: 100},
		{PathID: 0, Snapshot: 1, Sent: 100, Received: 0}, // total loss
		{PathID: 1, Snapshot: 1, Sent: 100, Received: 37},
	}
	for _, rep := range reports {
		if err := rc.Send(rep); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	snap0, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want0 := lia.LogRates([]float64{0.9, 1.0}, 100)
	for i := range want0 {
		if math.Float64bits(snap0.Y[i]) != math.Float64bits(want0[i]) {
			t.Fatalf("snapshot 0 path %d: %v, want %v", i, snap0.Y[i], want0[i])
		}
	}
	snap1, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Zero delivery clamps to half a probe: log(0.5/100).
	want1 := lia.LogRates([]float64{0, 0.37}, 100)
	for i := range want1 {
		if math.Float64bits(snap1.Y[i]) != math.Float64bits(want1[i]) {
			t.Fatalf("snapshot 1 path %d: %v, want %v", i, snap1.Y[i], want1[i])
		}
	}
	// The configured cap makes the stream finite.
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("after cap: %v, want io.EOF", err)
	}
}

// TestCollectorSourceFeedsEngine closes the loop: Engine.Consume drains a
// CollectorSource while an agent goroutine reports measurements, with no
// NDJSON hop in between.
func TestCollectorSourceFeedsEngine(t *testing.T) {
	rm, err := lia.NewTopology(treePaths(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	const snapshots = 5
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     rm.NumPaths(),
		Probes:    200,
		Settle:    -1,
		Timeout:   10 * time.Second,
		Snapshots: snapshots,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	go func() {
		rc, err := emunet.DialCollector(src.Addr())
		if err != nil {
			return
		}
		defer rc.Close()
		for snap := 0; snap < snapshots; snap++ {
			for p := 0; p < rm.NumPaths(); p++ {
				_ = rc.Send(emunet.Report{
					PathID: p, Snapshot: snap,
					Sent: 200, Received: 180 + (snap+p)%20,
				})
			}
			time.Sleep(5 * time.Millisecond) // agents pace their snapshots
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := eng.Consume(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if n != snapshots || eng.Snapshots() != snapshots {
		t.Fatalf("consumed %d, engine holds %d, want %d", n, eng.Snapshots(), snapshots)
	}
	if _, err := eng.Variances(ctx); err != nil {
		t.Fatalf("variances over collector-fed moments: %v", err)
	}
}

// TestCollectorSourceValidation pins the constructor's contract.
func TestCollectorSourceValidation(t *testing.T) {
	if _, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{}); err == nil {
		t.Fatal("zero path count must be rejected")
	}
}
