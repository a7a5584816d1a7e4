package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"lia"
	"lia/cluster"
)

// star builds a 2-level star component: n leaf paths sharing one root link,
// link IDs offset by base so several stars are link-disjoint.
func star(base, beacon, n int) []lia.Path {
	paths := make([]lia.Path, n)
	for i := range paths {
		paths[i] = lia.Path{Beacon: beacon, Dst: beacon + 1 + i, Links: []int{base, base + 1 + i}}
	}
	return paths
}

// interleave merges path sets round-robin so components are non-contiguous
// in the global row order.
func interleave(sets ...[]lia.Path) []lia.Path {
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

// synthSnapshots synthesizes m Gaussian snapshots over rm, deterministic
// for a given seed (the same generator the root package's sharded tests
// use, so fingerprints are comparable in spirit).
func synthSnapshots(rm *lia.RoutingMatrix, m int, seed uint64) [][]float64 {
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

// workload is the canonical 3-component interleaved topology with 60
// learning snapshots.
func workload(t testing.TB) (*lia.RoutingMatrix, [][]float64) {
	t.Helper()
	rm, err := lia.NewTopology(interleave(
		star(0, 100, 6),
		star(1000, 200, 4),
		star(2000, 300, 3),
	))
	if err != nil {
		t.Fatal(err)
	}
	return rm, synthSnapshots(rm, 60, 7)
}

// testNode is one in-process cluster worker behind a real HTTP listener.
type testNode struct {
	id   string
	node *cluster.Node
	srv  *httptest.Server
}

// testCluster is a coordinator fleet plus its worker nodes, all in-process
// over loopback HTTP.
type testCluster struct {
	fleet *cluster.Fleet
	coord *httptest.Server
	nodes map[string]*testNode
}

// startNode boots a worker with the given identity and registers it.
func (tc *testCluster) startNode(t testing.TB, id string) *testNode {
	t.Helper()
	return tc.startNodeWith(t, id, nil)
}

// startNodeWith boots a worker, applying configure (may be nil) before it
// starts serving — e.g. to give the node a durable StateDir.
func (tc *testCluster) startNodeWith(t testing.TB, id string, configure func(*cluster.Node)) *testNode {
	t.Helper()
	n := cluster.NewNode(id)
	n.WatchPoll = 5 * time.Millisecond
	if configure != nil {
		configure(n)
	}
	tn := &testNode{id: id, node: n, srv: httptest.NewServer(n.Handler())}
	tc.nodes[id] = tn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Register(ctx, nil, tc.coord.URL, tn.srv.URL); err != nil {
		t.Fatalf("register node %s: %v", id, err)
	}
	return tn
}

// startCluster boots a fleet of len(ids) nodes, registering them in the
// given order, and waits until every node holds its assignment.
func startCluster(t testing.TB, rm *lia.RoutingMatrix, ids []string) *testCluster {
	t.Helper()
	return startClusterWith(t, rm, ids, nil)
}

// startClusterWith is startCluster with a per-node configure hook.
func startClusterWith(t testing.TB, rm *lia.RoutingMatrix, ids []string, configure func(id string, n *cluster.Node)) *testCluster {
	t.Helper()
	fleet, err := cluster.NewFleet(rm, cluster.FleetConfig{
		Size:         len(ids),
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 200 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{fleet: fleet, coord: httptest.NewServer(fleet.Handler()), nodes: map[string]*testNode{}}
	t.Cleanup(func() {
		_ = fleet.Close()
		tc.coord.Close()
		for _, tn := range tc.nodes {
			tn.srv.Close()
		}
	})
	for _, id := range ids {
		if configure != nil {
			id := id
			tc.startNodeWith(t, id, func(n *cluster.Node) { configure(id, n) })
		} else {
			tc.startNode(t, id)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, tn := range tc.nodes {
		for tn.node.Assignment() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never received its assignment", tn.id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return tc
}

// sync ingests nothing; it waits until every node folded what was sent.
func (tc *testCluster) sync(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := tc.fleet.Synced(ctx); err != nil {
		t.Fatalf("fleet never synced: %v", err)
	}
}

// TestFleetParity is the tentpole invariant: Infer and Steady gathered from
// an N-node cluster are bitwise-identical to a single lia.New engine fed
// the same snapshots, for every N in {1, 2, 4}, regardless of join order.
func TestFleetParity(t *testing.T) {
	ctx := context.Background()
	rm, snaps := workload(t)
	probe := synthSnapshots(rm, 1, 1234)[0]

	ref, err := lia.New(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	wantSteady, err := ref.Steady(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ids  []string
	}{
		{"1node", []string{"a"}},
		{"2nodes", []string{"a", "b"}},
		{"2nodes-reversed-join", []string{"b", "a"}},
		{"4nodes", []string{"a", "b", "c", "d"}},
		{"4nodes-shuffled-join", []string{"c", "a", "d", "b"}},
	}
	for _, tcase := range cases {
		t.Run(tcase.name, func(t *testing.T) {
			tc := startCluster(t, rm, tcase.ids)
			if err := tc.fleet.IngestBatch(snaps); err != nil {
				t.Fatal(err)
			}
			tc.sync(t)
			res, err := tc.fleet.Infer(ctx, probe)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("gathered Infer diverges from single-process engine:\n got %+v\nwant %+v", res, wantRes)
			}
			steady, err := tc.fleet.Steady(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(steady, wantSteady) {
				t.Errorf("gathered Steady diverges from single-process engine:\n got %+v\nwant %+v", steady, wantSteady)
			}
			if got := tc.fleet.Snapshots(); got != len(snaps) {
				t.Errorf("fleet counted %d snapshots, want %d", got, len(snaps))
			}
			if missed := tc.fleet.Missed(); missed != 0 {
				t.Errorf("healthy cluster dropped %d snapshots", missed)
			}
		})
	}
}

// TestClusterScalingFingerprint extends the root package's scaling
// fingerprint to cluster placement: the SHA-256 of the gathered estimates
// is bitwise-identical across 1/2/4-node placements, across join orders,
// and to the single-process engine. CI runs this at several GOMAXPROCS
// values and asserts the printed fingerprint never changes.
func TestClusterScalingFingerprint(t *testing.T) {
	ctx := context.Background()
	rm, snaps := workload(t)
	probe := snaps[0]

	digest := func(res *lia.Result) [32]byte {
		h := sha256.New()
		var buf [8]byte
		for _, vals := range [][]float64{res.Variances, res.LossRates, res.LogRates} {
			for _, v := range vals {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		var out [32]byte
		copy(out[:], h.Sum(nil))
		return out
	}

	ref, err := lia.New(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	want := digest(refRes)

	for _, ids := range [][]string{
		{"solo"},
		{"a", "b"},
		{"b", "a"},
		{"a", "b", "c", "d"},
		{"d", "c", "b", "a"},
	} {
		tc := startCluster(t, rm, ids)
		if err := tc.fleet.IngestBatch(snaps); err != nil {
			t.Fatal(err)
		}
		tc.sync(t)
		res, err := tc.fleet.Infer(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(res); got != want {
			t.Errorf("placement %v: fingerprint %x diverges from single-process %x", ids, got, want)
		}
		_ = tc.fleet.Close()
	}
	t.Logf("fingerprint=%x", want)
}

// TestFleetColdStart asserts the fleet reports the standard retryable
// warm-up sentinel until placement completes.
func TestFleetColdStart(t *testing.T) {
	rm, snaps := workload(t)
	fleet, err := cluster.NewFleet(rm, cluster.FleetConfig{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if err := fleet.IngestBatch(snaps); !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Errorf("ingest before placement: %v, want ErrTooFewSnapshots", err)
	}
	if _, err := fleet.Infer(context.Background(), snaps[0]); !errors.Is(err, lia.ErrTooFewSnapshots) {
		t.Errorf("infer before placement: %v, want ErrTooFewSnapshots", err)
	}
	st := fleet.Stats()
	if !st.Degraded || st.Components != 3 {
		t.Errorf("cold fleet stats: %+v", st)
	}
}

// TestFleetStatsFromWatch asserts the coordinator's cached watch-stream
// state converges to the fleet's true epoch without any blocking node
// calls.
func TestFleetStatsFromWatch(t *testing.T) {
	rm, snaps := workload(t)
	tc := startCluster(t, rm, []string{"a", "b"})
	if err := tc.fleet.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	tc.sync(t)
	if _, err := tc.fleet.Infer(context.Background(), snaps[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tc.fleet.Stats()
		if st.StateEpoch == len(snaps) && !st.Degraded && st.EpochLag == 0 {
			if st.Components != 3 {
				t.Fatalf("stats components = %d, want 3", st.Components)
			}
			cs := tc.fleet.ComponentStats()
			if len(cs) != 3 {
				t.Fatalf("ComponentStats returned %d entries, want 3", len(cs))
			}
			for c, s := range cs {
				if s.StateEpoch != len(snaps) || s.Degraded {
					t.Fatalf("component %d stats: %+v", c, s)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged via watch stream: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if total, live := tc.fleet.ClusterNodes(); total != 2 || live != 2 {
		t.Errorf("ClusterNodes = (%d, %d), want (2, 2)", total, live)
	}
}

// rollup is the part of lia.Stats both component hosts compute with the
// shared roll-up, and so must agree on.
type rollup struct {
	Snapshots, StateEpoch, EpochLag int
	Rebuilds                        uint64
	Components                      int
	Degraded                        bool
	DegradedComponents              int
}

func rollupOf(s lia.Stats) rollup {
	return rollup{s.Snapshots, s.StateEpoch, s.EpochLag, s.Rebuilds,
		s.Components, s.Degraded, s.DegradedComponents}
}

// TestFleetStatsMatchShardedEngine feeds a healthy fleet and an in-process
// ShardedEngine with the same options the same snapshots, and checks that
// once the fleet's watch-fed stats settle after one Steady on each, both
// hosts roll their components' stats up to the same values.
func TestFleetStatsMatchShardedEngine(t *testing.T) {
	ctx := context.Background()
	rm, snaps := workload(t)
	tc := startCluster(t, rm, []string{"a", "b"})
	sharded, err := lia.NewShardedEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	for round, batch := range [][][]float64{snaps, synthSnapshots(rm, 20, 11)} {
		if err := tc.fleet.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := sharded.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		tc.sync(t)
		if _, err := tc.fleet.Steady(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Steady(ctx); err != nil {
			t.Fatal(err)
		}
		want := rollupOf(sharded.Stats())
		if want.StateEpoch != want.Snapshots || want.Degraded {
			t.Fatalf("round %d: sharded engine not settled: %+v", round, want)
		}
		t.Logf("round %d: %+v", round, want)
		deadline := time.Now().Add(10 * time.Second)
		for {
			got := rollupOf(tc.fleet.Stats())
			if got == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: fleet stats %+v, sharded engine %+v", round, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestFleetNodeDeathAndRejoin exercises the degradation contract end to
// end: killing one node marks only its components' links Unresolved (the
// healthy node's estimates stay bitwise identical), and a restarted node
// with the same identity is re-assigned, re-learns from fresh snapshots,
// and the fleet recovers.
func TestFleetNodeDeathAndRejoin(t *testing.T) {
	ctx := context.Background()
	rm, snaps := workload(t)
	probe := synthSnapshots(rm, 1, 1234)[0]
	part := lia.NewPartition(rm)

	// Sorted node IDs get the LPT shard groups in order: "a" takes the
	// heaviest component (the 6-leaf star), "b" the other two.
	tc := startCluster(t, rm, []string{"a", "b"})
	if err := tc.fleet.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	tc.sync(t)
	baseline, err := tc.fleet.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Unresolved) != 0 {
		t.Fatalf("healthy cluster has unresolved links: %v", baseline.Unresolved)
	}

	// Kill node b (sever its live streams first, then the listener).
	tc.nodes["b"].srv.CloseClientConnections()
	tc.nodes["b"].srv.Close()
	res, err := tc.fleet.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	ownedByA := map[int]bool{}
	for k := 0; k < rm.NumLinks(); k++ {
		if part.ComponentOfLink(k) == 0 { // component 0 is the heaviest star
			ownedByA[k] = true
		}
	}
	for _, k := range res.Unresolved {
		if ownedByA[k] {
			t.Errorf("link %d owned by live node a is unresolved", k)
		}
	}
	if want := rm.NumLinks() - len(ownedByA); len(res.Unresolved) != want {
		t.Errorf("%d unresolved links after killing b, want %d", len(res.Unresolved), want)
	}
	for k := range ownedByA {
		if res.Variances[k] != baseline.Variances[k] || res.LossRates[k] != baseline.LossRates[k] {
			t.Errorf("link %d estimates changed when an unrelated node died", k)
		}
	}
	for _, k := range res.Kept {
		if !ownedByA[k] {
			t.Errorf("dead node's link %d still in Kept", k)
		}
	}

	// The watch stream notices the death and the degradation surfaces.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tc.fleet.Stats()
		if st.Degraded && st.DegradedComponents == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never surfaced node death: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Rejoin: a fresh process with the same identity at a new address.
	tc.startNode(t, "b")
	deadline = time.Now().Add(10 * time.Second)
	for tc.nodes["b"].node.Assignment() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejoined node never received its assignment")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fresh snapshots re-warm the rejoined node's components.
	snaps2 := synthSnapshots(rm, 60, 8)
	if err := tc.fleet.IngestBatch(snaps2); err != nil {
		t.Fatal(err)
	}
	tc.sync(t)
	rec, err := tc.fleet.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Unresolved) != 0 {
		t.Fatalf("cluster did not recover after rejoin: unresolved %v", rec.Unresolved)
	}
	// Node a saw both batches; its estimates match an engine fed both. The
	// rejoined node restarted its learning; its estimates match an engine
	// fed only the post-rejoin batch.
	refBoth, err := lia.New(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := refBoth.IngestBatch(append(append([][]float64{}, snaps...), snaps2...)); err != nil {
		t.Fatal(err)
	}
	wantBoth, err := refBoth.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	refNew, err := lia.New(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := refNew.IngestBatch(snaps2); err != nil {
		t.Fatal(err)
	}
	wantNew, err := refNew.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rm.NumLinks(); k++ {
		want := wantNew
		if ownedByA[k] {
			want = wantBoth
		}
		if rec.Variances[k] != want.Variances[k] || rec.LossRates[k] != want.LossRates[k] {
			t.Errorf("link %d after rejoin: var %v loss %v, want %v / %v",
				k, rec.Variances[k], rec.LossRates[k], want.Variances[k], want.LossRates[k])
		}
	}
}

// TestNodeRejectsForeignAssignment asserts a node refuses an assignment
// addressed to a different identity.
func TestNodeRejectsForeignAssignment(t *testing.T) {
	rm, _ := workload(t)
	fleet, err := cluster.NewFleet(rm, cluster.FleetConfig{Size: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(fleet.Handler())

	n := cluster.NewNode("right")
	srv := httptest.NewServer(n.Handler())
	// The fleet's supervision streams hold persistent connections; it must
	// close before the servers or their Close blocks on the live streams.
	defer func() {
		_ = fleet.Close()
		coord.Close()
		srv.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	wrong := cluster.NewNode("wrong")
	// Registering "right"'s URL under "wrong"'s identity: the assignment
	// callback reaches the node but is addressed to "wrong", so it must be
	// rejected and the node stays unassigned.
	if err := wrong.Register(ctx, nil, coord.URL, srv.URL); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if got := n.Assignment(); got != 0 {
		t.Errorf("node accepted a foreign assignment (generation %d)", got)
	}
}

// TestFleetNodeRestartRestoresState is the cluster leg of the durability
// invariant: a node with a StateDir is killed (listener severed, engines
// abandoned without Close — everything acked is on disk, as after SIGKILL)
// and a fresh process with the same identity and StateDir rejoins. Its
// placed components restore from local state, so the cluster's answers are
// bitwise-identical to never having lost the node — no re-teaching batch
// required.
func TestFleetNodeRestartRestoresState(t *testing.T) {
	ctx := context.Background()
	rm, snaps := workload(t)
	probe := synthSnapshots(rm, 1, 1234)[0]

	stateDirs := map[string]string{"a": t.TempDir(), "b": t.TempDir()}
	durable := func(id string, n *cluster.Node) {
		n.StateDir = stateDirs[id]
		n.Durability = lia.DurabilityOptions{CheckpointEvery: 16}
		n.Logf = t.Logf
	}
	tc := startClusterWith(t, rm, []string{"a", "b"}, durable)
	if err := tc.fleet.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	tc.sync(t)
	baseline, err := tc.fleet.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Unresolved) != 0 {
		t.Fatalf("healthy cluster has unresolved links: %v", baseline.Unresolved)
	}

	// Kill node b without closing its engines: the WAL has every acked
	// batch (appends are unbuffered write syscalls), exactly like SIGKILL.
	tc.nodes["b"].srv.CloseClientConnections()
	tc.nodes["b"].srv.Close()

	// Rejoin with the same identity AND the same state directory.
	tc.startNodeWith(t, "b", func(n *cluster.Node) { durable("b", n) })
	deadline := time.Now().Add(10 * time.Second)
	for tc.nodes["b"].node.Assignment() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted node never received its assignment")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := tc.nodes["b"].node.Snapshots(); got != len(snaps) {
		t.Fatalf("restarted node reports %d snapshots, want %d restored", got, len(snaps))
	}

	// No new snapshots: the restored state alone must answer, bitwise.
	rec, err := tc.fleet.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Unresolved) != 0 {
		t.Fatalf("restored node left links unresolved: %v", rec.Unresolved)
	}
	for k := 0; k < rm.NumLinks(); k++ {
		if math.Float64bits(rec.Variances[k]) != math.Float64bits(baseline.Variances[k]) ||
			math.Float64bits(rec.LossRates[k]) != math.Float64bits(baseline.LossRates[k]) {
			t.Fatalf("link %d differs after restart-with-state", k)
		}
	}

	// The stream continues: later snapshots fold on top of the restored
	// moments, staying bitwise-equal to an uninterrupted reference. Wait for
	// the fleet's ingest stream to node b to re-establish first — deliveries
	// against a still-reconnecting stream are dropped by design.
	for {
		if total, live := tc.fleet.ClusterNodes(); total == 2 && live == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet streams to the restarted node never went live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snaps2 := synthSnapshots(rm, 40, 8)
	if err := tc.fleet.IngestBatch(snaps2); err != nil {
		t.Fatal(err)
	}
	tc.sync(t)
	if got, want := tc.nodes["b"].node.Snapshots(), len(snaps)+len(snaps2); got != want {
		t.Fatalf("node b has %d snapshots after the post-restart stream, want %d", got, want)
	}
	final, err := tc.fleet.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lia.New(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.IngestBatch(append(append([][]float64{}, snaps...), snaps2...)); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Infer(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rm.NumLinks(); k++ {
		if math.Float64bits(final.Variances[k]) != math.Float64bits(want.Variances[k]) ||
			math.Float64bits(final.LossRates[k]) != math.Float64bits(want.LossRates[k]) {
			t.Fatalf("link %d differs after post-restart stream", k)
		}
	}
}

// nodeStatsEvent fetches one node's GET /cluster/v1/stats body.
func nodeStatsEvent(t testing.TB, tn *testNode) cluster.NodeEvent {
	t.Helper()
	resp, err := http.Get(tn.srv.URL + "/cluster/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats endpoint: %s", resp.Status)
	}
	var ev cluster.NodeEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestNodeStatsDirtyComponents pins the per-node dirty surface of
// /cluster/v1/stats: after an ingest wave with no gather, every component a
// node carries is dirty — it holds snapshots its served state has not
// absorbed — and one gathered inference rebuilds exactly those components,
// draining the count to zero.
func TestNodeStatsDirtyComponents(t *testing.T) {
	rm, snaps := workload(t)
	tc := startCluster(t, rm, []string{"a", "b"})
	if err := tc.fleet.IngestBatch(snaps); err != nil {
		t.Fatal(err)
	}
	tc.sync(t)
	for id, tn := range tc.nodes {
		ev := nodeStatsEvent(t, tn)
		if len(ev.Components) == 0 {
			t.Fatalf("node %s carries no components", id)
		}
		if ev.DirtyComponents != len(ev.Components) {
			t.Fatalf("node %s: DirtyComponents = %d before any gather, want %d (all)",
				id, ev.DirtyComponents, len(ev.Components))
		}
	}
	if _, err := tc.fleet.Infer(context.Background(), snaps[0]); err != nil {
		t.Fatal(err)
	}
	for id, tn := range tc.nodes {
		ev := nodeStatsEvent(t, tn)
		if ev.DirtyComponents != 0 {
			t.Fatalf("node %s: DirtyComponents = %d after a gathered inference, want 0",
				id, ev.DirtyComponents)
		}
		for _, cs := range ev.Components {
			if cs.Rebuilds == 0 || cs.StateEpoch != len(snaps) {
				t.Fatalf("node %s component %d: %+v after gather", id, cs.Component, cs)
			}
		}
	}
}
