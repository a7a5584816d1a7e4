package lia_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"lia"
	"lia/internal/topology"
)

// shardStar builds a 2-level star component: n leaf paths sharing one root
// link, link IDs offset by base so several stars are link-disjoint.
func shardStar(base, beacon, n int) []lia.Path {
	paths := make([]lia.Path, n)
	for i := range paths {
		paths[i] = lia.Path{Beacon: beacon, Dst: beacon + 1 + i, Links: []int{base, base + 1 + i}}
	}
	return paths
}

// shardInterleave merges path sets round-robin so components are
// non-contiguous in the global row order.
func shardInterleave(sets ...[]lia.Path) []lia.Path {
	var out []lia.Path
	for i := 0; ; i++ {
		added := false
		for _, s := range sets {
			if i < len(s) {
				out = append(out, s[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// shardSnapshots synthesizes m Gaussian snapshots over rm: per-link latent
// variances, per-snapshot link draws summed along each path. Deterministic
// for a given seed.
func shardSnapshots(rm *lia.RoutingMatrix, m int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 99))
	sigma := make([]float64, rm.NumLinks())
	for k := range sigma {
		sigma[k] = 1e-3 * (1 + rng.Float64())
	}
	snaps := make([][]float64, m)
	x := make([]float64, rm.NumLinks())
	for t := range snaps {
		for k := range x {
			x[k] = rng.NormFloat64() * sigma[k]
		}
		y := make([]float64, rm.NumPaths())
		for i := range y {
			for _, k := range rm.Row(i) {
				y[i] += x[k]
			}
		}
		snaps[t] = y
	}
	return snaps
}

// disconnectedWorkload builds a 3-component interleaved topology with 60
// learning snapshots.
func disconnectedWorkload(t testing.TB) (*lia.RoutingMatrix, [][]float64) {
	t.Helper()
	rm, err := lia.NewTopology(shardInterleave(
		shardStar(0, 100, 6),
		shardStar(1000, 200, 4),
		shardStar(2000, 300, 3),
	))
	if err != nil {
		t.Fatal(err)
	}
	return rm, shardSnapshots(rm, 60, 7)
}

// TestShardedBitwiseParityPerComponent is the tentpole invariant: every
// component of a ShardedEngine produces estimates bitwise-identical to a
// plain Engine run on that component's paths alone, fed the same rows of
// the same snapshots.
func TestShardedBitwiseParityPerComponent(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	se, err := lia.NewShardedEngine(rm, lia.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if se.NumComponents() != 3 {
		t.Fatalf("workload has %d components, want 3", se.NumComponents())
	}
	if se.NumShards() != 2 {
		t.Fatalf("WithShards(2) produced %d shards", se.NumShards())
	}
	for _, y := range snaps {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	probe := shardSnapshots(rm, 1, 1234)[0]
	res, err := se.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	vars, err := se.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}

	part := topology.NewPartition(rm)
	seenKept := map[int]bool{}
	for _, k := range res.Kept {
		seenKept[k] = true
	}
	for c := 0; c < part.NumComponents(); c++ {
		comp := part.Component(c)
		paths := make([]lia.Path, len(comp.Paths))
		for pl, pg := range comp.Paths {
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
		sub := make([]float64, len(comp.Paths))
		for _, y := range snaps {
			for pl, pg := range comp.Paths {
				sub[pl] = y[pg]
			}
			if err := ref.Ingest(sub); err != nil {
				t.Fatal(err)
			}
		}
		for pl, pg := range comp.Paths {
			sub[pl] = probe[pg]
		}
		want, err := ref.Infer(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		for kl := 0; kl < crm.NumLinks(); kl++ {
			kg, ok := rm.VirtualOf(crm.Members(kl)[0])
			if !ok {
				t.Fatalf("component %d link %d lost its global identity", c, kl)
			}
			if vars[kg] != want.Variances[kl] {
				t.Fatalf("component %d link %d: sharded variance %g != reference %g (not bitwise)",
					c, kl, vars[kg], want.Variances[kl])
			}
			if res.LossRates[kg] != want.LossRates[kl] || res.LogRates[kg] != want.LogRates[kl] {
				t.Fatalf("component %d link %d: sharded inference (%g, %g) != reference (%g, %g)",
					c, kl, res.LossRates[kg], res.LogRates[kg], want.LossRates[kl], want.LogRates[kl])
			}
			wantKept := false
			for _, wk := range want.Kept {
				if wk == kl {
					wantKept = true
				}
			}
			if seenKept[kg] != wantKept {
				t.Fatalf("component %d link %d: sharded kept=%v, reference kept=%v",
					c, kl, seenKept[kg], wantKept)
			}
		}
	}
	if len(res.Kept)+len(res.Removed) != rm.NumLinks() {
		t.Fatalf("kept %d + removed %d != %d links", len(res.Kept), len(res.Removed), rm.NumLinks())
	}
}

// TestShardedMatchesUnshardedApprox sanity-checks the whole-matrix view:
// the global unsharded solve on a disconnected topology decomposes
// block-wise, so sharded and unsharded variances agree to floating-point
// reassociation noise (the reduction orders differ, so this is approximate
// by design; the bitwise contract is per component, tested above).
func TestShardedMatchesUnshardedApprox(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	se, err := lia.NewShardedEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	un, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range snaps {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
		if err := un.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	sv, err := se.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	uv, err := un.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sv {
		diff := math.Abs(sv[k] - uv[k])
		scale := math.Max(math.Abs(uv[k]), 1e-12)
		if diff > 1e-9*scale && diff > 1e-18 {
			t.Fatalf("link %d: sharded %g vs unsharded %g diverge beyond reassociation noise", k, sv[k], uv[k])
		}
	}
}

// TestShardedSingleComponentBitwise: a fully connected topology yields one
// shard, whose engine is the plain engine — results must be bitwise equal.
func TestShardedSingleComponentBitwise(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology(shardStar(0, 100, 8))
	if err != nil {
		t.Fatal(err)
	}
	snaps := shardSnapshots(rm, 50, 3)
	se, err := lia.NewShardedEngine(rm, lia.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if se.NumComponents() != 1 || se.NumShards() != 1 {
		t.Fatalf("connected topology gave %d components in %d shards, want 1 in 1",
			se.NumComponents(), se.NumShards())
	}
	ref, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range snaps {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
		if err := ref.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	probe := shardSnapshots(rm, 1, 77)[0]
	got, err := se.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.LossRates {
		if got.LossRates[k] != want.LossRates[k] || got.LogRates[k] != want.LogRates[k] ||
			got.Variances[k] != want.Variances[k] {
			t.Fatalf("link %d: single-component sharded result differs from plain engine", k)
		}
	}
	if got.Epoch != want.Epoch {
		t.Fatalf("epoch %d != %d", got.Epoch, want.Epoch)
	}
}

// TestNewAutoDispatch: New picks a ShardedEngine exactly when the topology
// is disconnected (or sharding was requested), and a plain Engine otherwise.
func TestNewAutoDispatch(t *testing.T) {
	connected, err := lia.NewTopology(shardStar(0, 100, 4))
	if err != nil {
		t.Fatal(err)
	}
	disconnected, err := lia.NewTopology(shardInterleave(shardStar(0, 100, 3), shardStar(1000, 200, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if eng, err := lia.New(connected); err != nil {
		t.Fatal(err)
	} else if _, ok := eng.(*lia.Engine); !ok {
		t.Fatalf("New on a connected topology returned %T, want *lia.Engine", eng)
	}
	if eng, err := lia.New(disconnected); err != nil {
		t.Fatal(err)
	} else if _, ok := eng.(*lia.ShardedEngine); !ok {
		t.Fatalf("New on a disconnected topology returned %T, want *lia.ShardedEngine", eng)
	}
	if eng, err := lia.New(disconnected, lia.WithShards(1)); err != nil {
		t.Fatal(err)
	} else if _, ok := eng.(*lia.Engine); !ok {
		t.Fatalf("New with WithShards(1) returned %T, want *lia.Engine", eng)
	}
	if eng, err := lia.New(disconnected, lia.WithShards(2)); err != nil {
		t.Fatal(err)
	} else if _, ok := eng.(*lia.ShardedEngine); !ok {
		t.Fatalf("New with WithShards(2) returned %T, want *lia.ShardedEngine", eng)
	}
	// A connected topology gets the plain engine even under an explicit
	// shard request: one component means sharding is pure overhead.
	if eng, err := lia.New(connected, lia.WithShards(2)); err != nil {
		t.Fatal(err)
	} else if _, ok := eng.(*lia.Engine); !ok {
		t.Fatalf("New with WithShards(2) on a connected topology returned %T, want *lia.Engine", eng)
	}
	if _, err := lia.New(disconnected, lia.WithShards(-1)); err == nil {
		t.Fatal("New accepted a negative shard count")
	}
}

// TestShardedShardCapAndSinglePathComponents: k beyond the component count
// caps, and single-path components (one unbranched path each, reduced to a
// single virtual link) infer correctly.
func TestShardedShardCapAndSinglePathComponents(t *testing.T) {
	ctx := context.Background()
	rm, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 1, Links: []int{10, 11}},
		{Beacon: 0, Dst: 2, Links: []int{20}},
		{Beacon: 0, Dst: 3, Links: []int{30, 31, 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	se, err := lia.NewShardedEngine(rm, lia.WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	if se.NumComponents() != 3 {
		t.Fatalf("got %d components, want 3", se.NumComponents())
	}
	if se.NumShards() != 3 {
		t.Fatalf("WithShards(16) over 3 components produced %d shards, want 3", se.NumShards())
	}
	for _, y := range shardSnapshots(rm, 30, 5) {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	res, err := se.Infer(ctx, []float64{-0.01, -0.002, -0.03})
	if err != nil {
		t.Fatal(err)
	}
	// Each component has a 1x1 full-rank system: everything is kept and the
	// per-link log rate is the path observation itself.
	if len(res.Kept) != 3 || len(res.Removed) != 0 {
		t.Fatalf("kept %v removed %v, want all 3 kept", res.Kept, res.Removed)
	}
	for i, want := range []float64{-0.01, -0.002, -0.03} {
		kg, ok := rm.VirtualOf([]int{10, 20, 30}[i])
		if !ok {
			t.Fatalf("physical link of path %d not covered", i)
		}
		if res.LogRates[kg] != want {
			t.Fatalf("path %d: log rate %g, want %g", i, res.LogRates[kg], want)
		}
	}
}

// TestShardedIngestBatchAndConsumeParity: the three ingestion surfaces fold
// identical moments.
func TestShardedIngestBatchAndConsumeParity(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	mk := func() *lia.ShardedEngine {
		se, err := lia.NewShardedEngine(rm)
		if err != nil {
			t.Fatal(err)
		}
		return se
	}
	one, batch, consumed := mk(), mk(), mk()
	for _, y := range snaps {
		if err := one.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	if n, err := consumed.Consume(ctx, lia.NewSliceSource(snaps)); err != nil || n != len(snaps) {
		t.Fatalf("Consume ingested %d (%v), want %d", n, err, len(snaps))
	}
	v1, err := one.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for name, se := range map[string]*lia.ShardedEngine{"batch": batch, "consume": consumed} {
		if se.Snapshots() != len(snaps) {
			t.Fatalf("%s: %d snapshots, want %d", name, se.Snapshots(), len(snaps))
		}
		v, err := se.Variances(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for k := range v1 {
			if v[k] != v1[k] {
				t.Fatalf("%s: link %d variance %g != per-snapshot %g", name, k, v[k], v1[k])
			}
		}
	}
}

// TestShardedErrorsAndStats: sentinel errors surface through the sharded
// fan-out, and Stats aggregates sensibly.
func TestShardedErrorsAndStats(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	se, err := lia.NewShardedEngine(rm, lia.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Ingest(make([]float64, rm.NumPaths()+1)); !errors.Is(err, lia.ErrDimensionMismatch) {
		t.Fatalf("bad dimension ingest: %v", err)
	}
	if err := se.IngestBatch([][]float64{snaps[0], make([]float64, 1)}); !errors.Is(err, lia.ErrDimensionMismatch) {
		t.Fatalf("bad dimension batch: %v", err)
	}
	if se.Snapshots() != 0 {
		t.Fatalf("failed ingests advanced the epoch to %d", se.Snapshots())
	}
	if _, err := se.Infer(ctx, snaps[0]); !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Fatalf("inference before learning: %v", err)
	}
	st := se.Stats()
	if st.Shards != 2 || st.Components != 3 {
		t.Fatalf("Stats reports %d shards / %d components, want 2 / 3", st.Shards, st.Components)
	}
	if st.StateEpoch != -1 || st.EpochLag != 0 {
		t.Fatalf("pre-learning stats: %+v", st)
	}
	for _, y := range snaps {
		if err := se.Ingest(y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := se.Variances(ctx); err != nil {
		t.Fatal(err)
	}
	st = se.Stats()
	if st.Snapshots != len(snaps) || st.StateEpoch != len(snaps) || st.EpochLag != 0 {
		t.Fatalf("post-rebuild stats: %+v", st)
	}
	// One rebuild per component.
	if st.Rebuilds != uint64(se.NumComponents()) {
		t.Fatalf("%d rebuilds after one warm-up, want %d", st.Rebuilds, se.NumComponents())
	}
	steady, err := se.Steady(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(steady.Kept)+len(steady.Removed) != rm.NumLinks() {
		t.Fatalf("kept %d + removed %d != %d links", len(steady.Kept), len(steady.Removed), rm.NumLinks())
	}
	if steady.Epoch != len(snaps) {
		t.Fatalf("steady epoch %d, want %d", steady.Epoch, len(snaps))
	}
}

// scalingFingerprint is the SHA-256 of TestScalingFingerprint's estimates.
// Any change to the moment fold, Phase 1, the elimination or the reduced
// solve that moves a bit moves it.
const scalingFingerprint = "4bd42598452e914b1ad7f03314f0f365a59e0ed924d578ce23eccd5eab5a59ce"

// TestScalingFingerprint pins a digest of the sharded and unsharded
// estimates. CI's scaling job also runs it at GOMAXPROCS=1,2,4 and asserts
// the printed fingerprint never changes: every parallel path is
// bit-deterministic across worker counts.
func TestScalingFingerprint(t *testing.T) {
	ctx := context.Background()
	rm, snaps := disconnectedWorkload(t)
	h := sha256.New()
	feed := func(vals []float64) {
		var buf [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, shards := range []int{1, 2, 3} {
		eng, err := lia.New(rm, lia.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(snaps); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Infer(ctx, snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		feed(res.Variances)
		feed(res.LossRates)
		feed(res.LogRates)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("fingerprint=%s", got)
	if got != scalingFingerprint {
		t.Fatalf("fingerprint = %s, want %s", got, scalingFingerprint)
	}
}
