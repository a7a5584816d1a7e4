package lia_test

// api_test.go exercises the full public pipeline — topology construction,
// snapshot streaming, concurrent inference — using ONLY exported
// identifiers of the root lia package: what an external importer of the
// module can write.

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"lia"
)

// apiTreePaths builds the paths of a complete fanout-ary probing tree of
// the given depth, beacon at the root probing every leaf. Trees satisfy
// T.1/T.2, so Theorem 1 guarantees variance identifiability.
func apiTreePaths(depth, fanout int) []lia.Path {
	var paths []lia.Path
	nextNode, nextLink := 1, 1
	var walk func(node int, trail []int, d int)
	walk = func(node int, trail []int, d int) {
		if d == depth {
			paths = append(paths, lia.Path{Beacon: 0, Dst: node, Links: append([]int(nil), trail...)})
			return
		}
		for c := 0; c < fanout; c++ {
			child := nextNode
			nextNode++
			link := nextLink
			nextLink++
			walk(child, append(trail, link), d+1)
		}
	}
	walk(0, nil, 0)
	return paths
}

func TestPublicAPIFullPipeline(t *testing.T) {
	ctx := context.Background()
	paths, removed := lia.RemoveFluttering(apiTreePaths(3, 3))
	if len(removed) != 0 {
		t.Fatalf("tree paths reported as fluttering: %v", removed)
	}
	rm, err := lia.NewTopology(paths)
	if err != nil {
		t.Fatal(err)
	}
	if rm.NumPaths() != 27 || rm.NumLinks() != 39 {
		t.Fatalf("tree reduced to %d×%d, want 27×39", rm.NumPaths(), rm.NumLinks())
	}
	if !lia.Identifiable(rm) {
		t.Fatal("tree topology must be identifiable (Theorem 1)")
	}
	if got := lia.AugmentedRank(rm); got != rm.NumLinks() {
		t.Fatalf("AugmentedRank = %d, want %d", got, rm.NumLinks())
	}

	eng, err := lia.NewEngine(rm, lia.WithStrategy(lia.StrategyPaperSequential))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CheckIdentifiable(); err != nil {
		t.Fatal(err)
	}

	// Stream a learning campaign from the simulator-backed source.
	src := lia.NewSimSource(rm, lia.SimConfig{Probes: 1000, Seed: 11, CongestedFraction: 0.15})
	const m = 40
	n, err := eng.Consume(ctx, lia.Limit(src, m))
	if err != nil {
		t.Fatal(err)
	}
	if n != m || eng.Snapshots() != m {
		t.Fatalf("consumed %d snapshots, engine has %d, want %d", n, eng.Snapshots(), m)
	}

	// The inference snapshot, with ground truth attached by the source.
	probe, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Many concurrent inferences against the shared cached state; all must
	// agree bit-for-bit since they solve the same system.
	const inferers = 8
	results := make([]*lia.Result, inferers)
	var wg sync.WaitGroup
	errs := make([]error, inferers)
	for g := 0; g < inferers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = eng.Infer(ctx, probe.Y)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("inferer %d: %v", g, err)
		}
	}
	res := results[0]
	for g := 1; g < inferers; g++ {
		for k := range res.LossRates {
			if res.LossRates[k] != results[g].LossRates[k] {
				t.Fatalf("inferer %d disagrees at link %d", g, k)
			}
		}
	}

	if len(res.Kept)+len(res.Removed) != rm.NumLinks() {
		t.Fatalf("kept %d + removed %d != %d links", len(res.Kept), len(res.Removed), rm.NumLinks())
	}
	for _, k := range res.Removed {
		if res.LossRates[k] != 0 {
			t.Fatalf("eliminated link %d reports loss %g, want 0", k, res.LossRates[k])
		}
	}

	// Inference quality: every solidly congested link (true rate > 0.02)
	// must come out lossy, and the per-link error must stay small.
	detected, congested := 0, 0
	for k, q := range probe.Truth {
		if q > 0.02 {
			congested++
			if res.LossRates[k] > lia.DefaultThreshold {
				detected++
			}
		}
		if e := math.Abs(res.LossRates[k] - q); e > 0.05 {
			t.Fatalf("link %d: inferred %.4f vs true %.4f", k, res.LossRates[k], q)
		}
	}
	if congested == 0 {
		t.Fatal("campaign produced no congested links; seed needs adjusting")
	}
	if detected < congested*3/4 {
		t.Fatalf("detected only %d of %d congested links", detected, congested)
	}

	// The source keeps streaming; a bounded source ends with io.EOF.
	bounded := lia.NewSimSource(rm, lia.SimConfig{Probes: 100, Seed: 3, Snapshots: 2})
	for i := 0; i < 2; i++ {
		if _, err := bounded.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bounded.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("bounded source returned %v, want io.EOF", err)
	}
}

// TestConcurrentIngestInfer hammers one engine from ingesting and
// inferring goroutines simultaneously — the contract the epoch-cached state
// exists for. Run with -race.
func TestConcurrentIngestInfer(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(apiTreePaths(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	src := lia.NewSimSource(rm, lia.SimConfig{Probes: 200, Seed: 5})
	if _, err := eng.Consume(ctx, lia.Limit(src, 8)); err != nil {
		t.Fatal(err)
	}
	probe, err := src.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				snap, err := src.Next(ctx)
				if err != nil {
					fail <- err
					return
				}
				if err := eng.Ingest(snap.Y); err != nil {
					fail <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := eng.Infer(ctx, probe.Y)
				if err != nil {
					fail <- err
					return
				}
				if len(res.LossRates) != rm.NumLinks() {
					fail <- errors.New("short result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if got := eng.Snapshots(); got != 8+30 {
		t.Fatalf("engine absorbed %d snapshots, want %d", got, 8+30)
	}
	if _, err := eng.Infer(ctx, probe.Y); err != nil {
		t.Fatal(err)
	}
}
