package serve_test

// world_soak_test.go is the regime-shift soak: liaserve's ingestion path
// (supervised, sanitized background sources) fed by an in-process world
// server through a scheduled congestion regime change. Windowed and decayed
// engines must re-converge to the post-shift ground truth while the served
// state stays ready. Runs under -race in CI.

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lia"
	"lia/serve"
	"lia/world"
)

// recordingWorldSource remembers every observation it delivers, so the test
// can replay the engine's exact input through a reference engine.
type recordingWorldSource struct {
	src lia.SnapshotSource
	mu  sync.Mutex
	ys  [][]float64
}

func (r *recordingWorldSource) Next(ctx context.Context) (lia.Snapshot, error) {
	snap, err := r.src.Next(ctx)
	if err == nil {
		r.mu.Lock()
		r.ys = append(r.ys, append([]float64(nil), snap.Y...))
		r.mu.Unlock()
	}
	return snap, err
}

func (r *recordingWorldSource) Close() error { return lia.CloseSource(r.src) }

// recorded returns a copy of the first n delivered observations.
func (r *recordingWorldSource) recorded(n int) [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.ys) {
		n = len(r.ys)
	}
	return append([][]float64(nil), r.ys[:n]...)
}

func TestWorldRegimeShiftSoak(t *testing.T) {
	rm, err := lia.NewTopology(treePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The congestion victim: the first-level link shared by paths 0..2.
	shared := rm.Path(0).Links[0]
	vShared, ok := rm.VirtualOf(shared)
	if !ok {
		t.Fatalf("physical link %d has no virtual link", shared)
	}

	ws := world.NewServer(world.ServerConfig{World: world.Config{Seed: 1909}})
	if err := ws.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ws.Close()

	const window = 64
	const probes = 400
	retry := lia.RetryPolicy{MaxAttempts: 5, InitialBackoff: time.Millisecond, Seed: 2}
	// Exact fractions (no binomial sampling): per-probe noise on the log
	// scale is ~(1−p)/(S·p) per path and would land on the leaf links,
	// blurring the congested link's dominance this test asserts.
	newSource := func(scenario string) *recordingWorldSource {
		return &recordingWorldSource{src: lia.RetrySource(
			lia.NewWorldSource(ws.Addr(), rm, lia.WorldConfig{
				Scenario: scenario, Batch: 8,
			}), retry)}
	}
	recWin := newSource("win")
	recDec := newSource("dec")

	engWin, err := lia.NewEngine(rm, lia.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	engDec, err := lia.NewEngine(rm, lia.WithDecay(0.9))
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{RebuildEvery: 16, RebuildInterval: 25 * time.Millisecond})
	if err := s.Add("win", serve.Topology{Engine: engWin, Probes: probes,
		Sources: []lia.SnapshotSource{recWin}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("dec", serve.Topology{Engine: engDec, Probes: probes,
		Sources: []lia.SnapshotSource{recDec}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = s.Run(ctx) }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase 1 — pre-shift regime: the default world is uncongested, so
	// every path delivers all probes and every link variance is exactly 0.
	waitFor("pre-shift ingestion", func() bool {
		return engWin.Snapshots() >= 80 && engDec.Snapshots() >= 80
	})
	waitFor("/readyz", func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	preVars, err := engWin.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if preVars[vShared] > 1e-9 {
		t.Fatalf("pre-shift variance of shared link = %g, want ~0 (uncongested world)", preVars[vShared])
	}

	// Phase 2 — schedule a permanent 6x congest on the shared link in both
	// scenarios. The world advances between Stats and Shift (the consumers
	// keep pulling), so aim a few ticks ahead and retry on a lost race.
	ctl, err := world.Dial(ws.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	shift := func(scenario string) int {
		t.Helper()
		for attempt := 0; attempt < 10; attempt++ {
			st, err := ctl.Stats(scenario)
			if err != nil {
				t.Fatal(err)
			}
			tick := st.Tick + 16
			err = ctl.Shift(scenario, world.Event{
				Kind: world.KindCongest, Tick: tick, Links: []int{shared}, Factor: 6,
			})
			if err == nil {
				return tick
			}
		}
		t.Fatalf("could not schedule the %s shift in 10 attempts", scenario)
		return 0
	}
	shiftWin := shift("win")
	shiftDec := shift("dec")

	// Phase 3 — run deep into the new regime: enough that the window holds
	// only post-shift snapshots (ticks equal ingestion indices, since these
	// scenarios have exactly one consumer each).
	waitFor("post-shift ingestion", func() bool {
		return engWin.Snapshots() >= shiftWin+window+32 && engDec.Snapshots() >= shiftDec+window+32
	})
	// The served state must have stayed ready straight through the shift.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d after the regime shift, want 200", resp.StatusCode)
	}
	cancel()
	<-runDone
	ctx = context.Background()

	// Ground truth moved: the world's regime for the shared link is the 6x
	// overload loss now.
	truth, err := ctl.Truth("win")
	if err != nil {
		t.Fatal(err)
	}
	sharedRegime := math.NaN()
	for i, id := range truth.LinkIDs {
		if id == shared {
			sharedRegime = truth.Regime[i]
		}
	}
	if !(sharedRegime > 0.4) {
		t.Fatalf("post-shift ground-truth regime for link %d = %g, want > 0.4 under 6x congest", shared, sharedRegime)
	}

	// Post-shift, the windowed engine's moments cover only the new regime:
	// the congested link's variance is positive, the largest in the
	// topology, and equal to replaying the window's exact input through a
	// fresh engine.
	postVars, err := engWin.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if postVars[vShared] < 1e-4 {
		t.Fatalf("windowed post-shift variance for the congested link = %g, want clearly positive", postVars[vShared])
	}
	for k, v := range postVars {
		if k != vShared && v >= postVars[vShared] {
			t.Fatalf("link %d variance %g >= congested link's %g — the shift signature is not dominant",
				k, v, postVars[vShared])
		}
	}
	n := engWin.Snapshots()
	ys := recWin.recorded(n)
	if len(ys) < n {
		t.Fatalf("recorded %d observations, engine ingested %d", len(ys), n)
	}
	fresh, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.IngestBatch(ys[n-window:]); err != nil {
		t.Fatal(err)
	}
	refVars, err := fresh.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range refVars {
		if d := math.Abs(postVars[k] - refVars[k]); d > 1e-12+1e-8*math.Abs(refVars[k]) {
			t.Fatalf("link %d: windowed %g vs fresh-last-%d replay %g (Δ=%g)",
				k, postVars[k], window, refVars[k], d)
		}
	}

	// A cumulative engine over the mixed stream does NOT converge to the
	// within-regime variance: the regime shift moves the mean, so the
	// mixture variance overshoots by the between-regime term. That gap is
	// what windowing buys. The cumulative engine takes the window+32
	// snapshots on either side of the shift, not everything recorded: the
	// sources pull thousands of pre-shift snapshots before the shift is
	// scheduled and more after the wait returns, as fast as the machine
	// runs, and that mix decides the ratio. shiftWin ≥ window+32, since the
	// shift was scheduled 16 ticks past at least 80 ingested snapshots.
	cum, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	mixed := recWin.recorded(shiftWin + window + 32)[shiftWin-window-32:]
	if err := cum.IngestBatch(mixed); err != nil {
		t.Fatal(err)
	}
	cumVars, err := cum.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cumVars[vShared] < 2*postVars[vShared] {
		t.Fatalf("cumulative variance %g vs windowed %g — expected the mixed-regime estimate to overshoot the within-regime one by ≥ 2x",
			cumVars[vShared], postVars[vShared])
	}

	// The decayed engine forgets the old regime geometrically and lands in
	// the same within-regime ballpark as the windowed engine.
	decVars, err := engDec.Variances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if decVars[vShared] < 1e-4 {
		t.Fatalf("decayed post-shift variance for the congested link = %g, want clearly positive", decVars[vShared])
	}
	if r := decVars[vShared] / postVars[vShared]; r < 0.1 || r > 10 {
		t.Fatalf("decayed %g vs windowed %g (ratio %g) — both should estimate the new regime",
			decVars[vShared], postVars[vShared], r)
	}
}
