package serve_test

// resilience_test.go covers the serve layer's failure-mode contract: the
// readiness split (/readyz flips while /healthz stays up), degrade-don't-
// fail serving (last-good epoch through rebuild failures, 503 only when
// there is nothing to serve), source supervision (restart with backoff,
// quarantine and error surfacing in /v1/status), and the CollectorSource's
// mid-stream reconnect.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lia"
	"lia/internal/emunet"
	"lia/serve"
)

// pairTopology is the smallest topology whose identifiability hangs on one
// covariance equation: two paths sharing link 1. Under WithWindow(4) +
// NegDrop, a window of anti-correlated snapshots drops that equation and
// every rebuild fails — the deterministic poison used below.
func pairTopology(t *testing.T) *lia.RoutingMatrix {
	t.Helper()
	rm, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 2, Links: []int{1, 2}},
		{Beacon: 0, Dst: 3, Links: []int{1, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

var (
	pairCorrelated = [][]float64{
		{-0.01, -0.01}, {-0.04, -0.04}, {-0.02, -0.02}, {-0.05, -0.05},
	}
	pairAntiCorrelated = [][]float64{
		{-0.01, -0.04}, {-0.04, -0.01}, {-0.02, -0.05}, {-0.05, -0.02},
	}
)

// newPairServer serves one WithWindow(4)+NegDrop engine over the pair
// topology, rebuilds driven only by queries.
func newPairServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	eng, err := lia.NewEngine(pairTopology(t),
		lia.WithWindow(4), lia.WithNegCovPolicy(lia.NegDrop))
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{RebuildEvery: -1, Logf: t.Logf})
	if err := s.Add("default", serve.Topology{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getStatus fetches and decodes /v1/status.
func getStatus(t *testing.T, base string) serve.StatusResponse {
	t.Helper()
	code, body := do(t, http.MethodGet, base+"/v1/status", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st serve.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReadyzLifecycle: a fresh server is alive but not ready; once every
// topology has a built state it turns ready.
func TestReadyzLifecycle(t *testing.T) {
	_, ts := newPairServer(t)

	code, body := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz on cold server: %d %s", code, body)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on cold server: %d %s", code, body)
	}
	var rr serve.ReadyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "degraded" || len(rr.Reasons) != 1 || !strings.Contains(rr.Reasons[0], "no inference state built yet") {
		t.Fatalf("cold readyz body: %s", body)
	}

	ingestAll(t, ts.URL, "/v1", pairCorrelated)
	if code, body = do(t, http.MethodGet, ts.URL+"/v1/links", nil); code != http.StatusOK {
		t.Fatalf("links: %d %s", code, body)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	if code != http.StatusOK {
		t.Fatalf("readyz with built state: %d %s", code, body)
	}
}

// TestDegradedEngineKeepsServingLinks is the acceptance criterion at the
// HTTP level: when every rebuild fails, /v1/links and /v1/infer keep
// answering 200 from the last-good epoch — never a 500 — while /readyz,
// /v1/status and /metrics all report the degradation; fresh solvable data
// heals everything.
func TestDegradedEngineKeepsServingLinks(t *testing.T) {
	_, ts := newPairServer(t)

	ingestAll(t, ts.URL, "/v1", pairCorrelated)
	code, body := do(t, http.MethodGet, ts.URL+"/v1/links", nil)
	if code != http.StatusOK {
		t.Fatalf("links in solvable regime: %d %s", code, body)
	}
	var good serve.LinksResponse
	if err := json.Unmarshal(body, &good); err != nil {
		t.Fatal(err)
	}
	if good.Epoch != 4 {
		t.Fatalf("solvable epoch = %d, want 4", good.Epoch)
	}

	// Poison the window: every rebuild now fails, the served state must not.
	ingestAll(t, ts.URL, "/v1", pairAntiCorrelated)
	code, body = do(t, http.MethodGet, ts.URL+"/v1/links", nil)
	if code != http.StatusOK {
		t.Fatalf("links while degraded: %d %s — degraded serving must stay 200", code, body)
	}
	var degraded serve.LinksResponse
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Epoch != 4 {
		t.Fatalf("degraded epoch = %d, want last-good 4", degraded.Epoch)
	}
	for k := range good.Links {
		if math.Float64bits(degraded.Links[k].Variance) != math.Float64bits(good.Links[k].Variance) {
			t.Fatalf("link %d drifted while degraded: %g != %g",
				k, degraded.Links[k].Variance, good.Links[k].Variance)
		}
	}
	if code, body = do(t, http.MethodPost, ts.URL+"/v1/infer",
		serve.SnapshotPayload{Y: []float64{-0.02, -0.03}}); code != http.StatusOK {
		t.Fatalf("infer while degraded: %d %s", code, body)
	}

	code, body = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Fatalf("readyz while degraded: %d %s", code, body)
	}
	d := getStatus(t, ts.URL).Topologies["default"]
	if !d.Degraded || d.RebuildFailures == 0 || d.LastError == "" || d.LastFailure == "" {
		t.Fatalf("status does not surface the degradation: %+v", d)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `liaserve_degraded{topology="default"} 1`) {
		t.Fatalf("metrics while degraded: %d\n%s", code, body)
	}

	// Healing: a solvable window brings readiness and a fresh epoch back.
	ingestAll(t, ts.URL, "/v1", pairCorrelated)
	code, body = do(t, http.MethodGet, ts.URL+"/v1/links", nil)
	if code != http.StatusOK {
		t.Fatalf("links after healing: %d %s", code, body)
	}
	var healed serve.LinksResponse
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Epoch != 12 {
		t.Fatalf("healed epoch = %d, want 12", healed.Epoch)
	}
	if code, body = do(t, http.MethodGet, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after healing: %d %s", code, body)
	}
	if d := getStatus(t, ts.URL).Topologies["default"]; d.Degraded {
		t.Fatalf("still degraded after healing: %+v", d)
	}
}

// TestRebuildFailureWithoutStateIs503: with no last-good state to fall back
// on, a failing rebuild is a 503 (service unavailable until healthier
// data), not a 500.
func TestRebuildFailureWithoutStateIs503(t *testing.T) {
	_, ts := newPairServer(t)
	ingestAll(t, ts.URL, "/v1", pairAntiCorrelated)
	code, body := do(t, http.MethodGet, ts.URL+"/v1/links", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("links with nothing to serve: %d %s, want 503", code, body)
	}
	if !strings.Contains(string(body), "rebuild failed") {
		t.Fatalf("503 body does not name the rebuild failure: %s", body)
	}
}

// scriptStep is one Next outcome of a scriptedSource.
type scriptStep struct {
	y   []float64
	err error
}

// scriptedSource replays a fixed script of snapshots and errors, then EOF.
type scriptedSource struct {
	mu    sync.Mutex
	steps []scriptStep
	i     int
}

func (s *scriptedSource) Next(ctx context.Context) (lia.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.i >= len(s.steps) {
		return lia.Snapshot{}, io.EOF
	}
	st := s.steps[s.i]
	s.i++
	if st.err != nil {
		return lia.Snapshot{}, st.err
	}
	return lia.Snapshot{Y: st.y}, nil
}

// TestSupervisorRestartsFailingSource: a source that fails mid-stream is
// restarted and drained to exhaustion, its poisoned snapshot is
// quarantined, and the whole history — restarts, last error, quarantine —
// shows in /v1/status.
func TestSupervisorRestartsFailingSource(t *testing.T) {
	rm, err := lia.NewTopology(treePaths(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	ys := testVectors(t, rm, 11, 6)
	script := []scriptStep{
		{y: ys[0]}, {y: ys[1]},
		{err: errors.New("probe plane flapped")},
		{y: ys[2]}, {y: ys[3]},
		{y: []float64{math.NaN(), -0.01, -0.02}}, // quarantined, not ingested
		{y: ys[4]}, {y: ys[5]},
	}
	s := serve.New(serve.Config{
		RebuildEvery: 1, PollInterval: 2 * time.Millisecond,
		RestartBackoff: 5 * time.Millisecond, Logf: t.Logf,
	})
	if err := s.Add("default", serve.Topology{
		Engine:  eng,
		Sources: []lia.SnapshotSource{&scriptedSource{steps: script}},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = s.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		d := getStatus(t, ts.URL).Topologies["default"]
		if len(d.SourceDetail) == 1 && d.SourceDetail[0].State == "exhausted" && d.StateEpoch >= 2 {
			if d.SourceSnapshots != 6 {
				t.Fatalf("ingested %d source snapshots, want the 6 clean ones", d.SourceSnapshots)
			}
			if d.SourceRestarts != 1 || d.SourceDetail[0].Restarts != 1 {
				t.Fatalf("restarts = %d/%d, want 1", d.SourceRestarts, d.SourceDetail[0].Restarts)
			}
			if d.Quarantined != 1 || d.SourceDetail[0].Quarantined != 1 {
				t.Fatalf("quarantined = %d/%d, want 1", d.Quarantined, d.SourceDetail[0].Quarantined)
			}
			if !strings.Contains(d.SourceDetail[0].LastError, "probe plane flapped") ||
				d.SourceDetail[0].LastErrorAt == "" {
				t.Fatalf("source error not surfaced: %+v", d.SourceDetail[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("source never drained: %+v", d)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Exhausted is a clean end state: with the state built, the server is
	// ready despite the restart in its history.
	if code, body := do(t, http.MethodGet, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d %s", code, body)
	}
}

// brokenSource always fails: the supervisor can never make progress, so
// the source lives in restart backoff.
type brokenSource struct{}

func (brokenSource) Next(ctx context.Context) (lia.Snapshot, error) {
	return lia.Snapshot{}, errors.New("collector unreachable")
}

// TestReadyzFlipsWhileSourceRestarting: a persistently failing source flips
// /readyz to 503 with the restart reason while the API keeps serving the
// built state.
func TestReadyzFlipsWhileSourceRestarting(t *testing.T) {
	rm, err := lia.NewTopology(treePaths(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.IngestBatch(testVectors(t, rm, 13, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Variances(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{
		RebuildEvery: -1, RestartBackoff: 50 * time.Millisecond, Logf: t.Logf,
	})
	if err := s.Add("default", serve.Topology{
		Engine:  eng,
		Sources: []lia.SnapshotSource{brokenSource{}},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); _ = s.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := do(t, http.MethodGet, ts.URL+"/readyz", nil)
		if code == http.StatusServiceUnavailable && strings.Contains(string(body), "restarting") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never flipped: %d %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The data plane is unaffected: the built state keeps serving.
	if code, body := do(t, http.MethodGet, ts.URL+"/v1/links", nil); code != http.StatusOK {
		t.Fatalf("links during source outage: %d %s", code, body)
	}
	if d := getStatus(t, ts.URL).Topologies["default"]; d.SourceRestarts == 0 ||
		!strings.Contains(d.SourceDetail[0].LastError, "collector unreachable") {
		t.Fatalf("restart history not surfaced: %+v", d)
	}
}

// TestCollectorSourceReconnects: killing the report listener mid-stream
// surfaces one error, then the source re-listens on the same address and
// resumes at the interrupted snapshot index.
func TestCollectorSourceReconnects(t *testing.T) {
	src, err := serve.NewCollectorSource("127.0.0.1:0", serve.CollectorConfig{
		Paths:     2,
		Probes:    100,
		Settle:    -1,
		Timeout:   10 * time.Second,
		Snapshots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	addr := src.Addr()

	send := func(t *testing.T, reports []emunet.Report) {
		t.Helper()
		rc, err := emunet.DialCollector(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		for _, rep := range reports {
			if err := rc.Send(rep); err != nil {
				t.Fatal(err)
			}
		}
	}

	ctx := context.Background()
	send(t, []emunet.Report{
		{PathID: 0, Snapshot: 0, Sent: 100, Received: 90},
		{PathID: 1, Snapshot: 0, Sent: 100, Received: 80},
	})
	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("snapshot 0: %v", err)
	}

	// The listener dies. The Next that observes it must error — that is the
	// supervisor's signal — without closing the source.
	if err := src.InjectListenerFailure(); err != nil {
		t.Fatal(err)
	}
	_, err = src.Next(ctx)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("Next over dead listener: %v, want a surfaced outage", err)
	}
	if !errors.Is(err, emunet.ErrCollectorClosed) {
		t.Fatalf("outage error = %v, want ErrCollectorClosed in the chain", err)
	}

	// An agent redials once the address answers again (the next Next
	// re-listens) and reports the interrupted snapshot.
	go func() {
		for {
			rc, err := emunet.DialCollector(addr)
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			for _, rep := range []emunet.Report{
				{PathID: 0, Snapshot: 1, Sent: 100, Received: 70},
				{PathID: 1, Snapshot: 1, Sent: 100, Received: 60},
			} {
				_ = rc.Send(rep)
			}
			rc.Close()
			return
		}
	}()
	snap, err := src.Next(ctx)
	if err != nil {
		t.Fatalf("snapshot 1 after reconnect: %v", err)
	}
	want := lia.LogRates([]float64{0.7, 0.6}, 100)
	for i := range want {
		if math.Float64bits(snap.Y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("resumed snapshot path %d: %v, want %v", i, snap.Y[i], want[i])
		}
	}
	if src.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d, want 1", src.Reconnects())
	}
	if src.Addr() != addr {
		t.Fatalf("address changed across reconnect: %s != %s", src.Addr(), addr)
	}
}

// TestHugeSnapshotIsRejected posts a snapshot of huge finite values, which
// would overflow the cumulative moments for good: it is a 400 that folds
// nothing, and the server keeps learning and stays ready.
func TestHugeSnapshotIsRejected(t *testing.T) {
	_, rm, ts := newTestServer(t)
	ys := testVectors(t, rm, 26, 31)
	ingestAll(t, ts.URL, "/v1", ys[:30])

	huge := make([]float64, rm.NumPaths())
	for i := range huge {
		huge[i] = -1e300
	}
	code, body := do(t, http.MethodPost, ts.URL+"/v1/snapshots", serve.IngestRequest{
		SnapshotPayload: serve.SnapshotPayload{Y: huge},
	})
	var er serve.ErrorResponse
	if code != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || !strings.Contains(er.Error, "not a log rate") {
		t.Fatalf("ingest of a huge snapshot: %d %s, want a 400 naming the value", code, body)
	}
	ingestAll(t, ts.URL, "/v1", ys[30:])
	code, body = do(t, http.MethodGet, ts.URL+"/v1/links", nil)
	var links serve.LinksResponse
	if code != http.StatusOK || json.Unmarshal(body, &links) != nil || links.Epoch != 31 || links.Snapshots != 31 {
		t.Fatalf("links after the rejected snapshot: %d %s, want epoch 31 of 31 snapshots", code, body)
	}
	// The test server's "lab" topology has learned nothing, so only it may
	// keep /readyz from 200.
	_, body = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	var ready serve.ReadyResponse
	if json.Unmarshal(body, &ready) != nil || strings.Contains(strings.Join(ready.Reasons, ";"), "default") {
		t.Fatalf("readyz after the rejected snapshot: %s, want the default topology ready", body)
	}
}

// TestOverflowingSnapshotKeepsResponsesEncodable folds huge finite values
// through the engine's own Ingest, which takes any finite vector, so the
// cumulative moments overflow for good. The rebuild on them fails, and the
// server keeps answering from the last good epoch with /readyz at 503,
// never with a 200 and an empty body.
func TestOverflowingSnapshotKeepsResponsesEncodable(t *testing.T) {
	rm, err := lia.NewTopology(treePaths(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lia.NewEngine(rm)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{RebuildEvery: -1, Logf: t.Logf})
	if err := s.Add("default", serve.Topology{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ys := testVectors(t, rm, 26, 31)
	ingestAll(t, ts.URL, "/v1", ys[:30])
	if code, body := do(t, http.MethodGet, ts.URL+"/v1/links", nil); code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("links before the overflow: %d %q", code, body)
	}

	huge := make([]float64, rm.NumPaths())
	for i := range huge {
		huge[i] = -1e300
	}
	if err := eng.Ingest(huge); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, body := do(t, http.MethodGet, ts.URL+"/v1/links", nil)
		var links serve.LinksResponse
		if code != http.StatusOK || json.Unmarshal(body, &links) != nil {
			t.Fatalf("links after the overflow: %d %q", code, body)
		}
		if links.Epoch != 30 || links.Snapshots != 31 {
			t.Fatalf("links after the overflow serve epoch %d of %d snapshots, want the last good epoch 30 of 31",
				links.Epoch, links.Snapshots)
		}
	}
	if code, body := do(t, http.MethodGet, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after the overflow: %d %s, want 503", code, body)
	}
	if code, body := do(t, http.MethodPost, ts.URL+"/v1/infer", serve.SnapshotPayload{Y: ys[30]}); code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("infer on the last good epoch: %d %q", code, body)
	}
}
