package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"lia"
	"lia/internal/core"
)

// nodeComponent is one assigned component running on a node: an engine over
// the component's own routing matrix (rebuilt node-side from the
// coordinator's paths — Build is deterministic, so the local link order
// matches the coordinator's Partition.ComponentMatrix exactly). The engine
// is a plain lia.Engine, or a lia.DurableEngine around one when the node
// has a StateDir.
type nodeComponent struct {
	component int   // global component index
	links     []int // local virtual link -> global virtual link
	npaths    int
	eng       lia.Inferencer
}

// placement is one immutable assignment generation: handlers snapshot it
// once and work against it, so a concurrent re-assign can never interleave
// two generations inside one request.
type placement struct {
	assignment uint64
	comps      []*nodeComponent
	totalPaths int
	epoch      atomic.Uint64 // snapshots folded into this placement
	mu         sync.Mutex    // serialises ingestion across the components
}

// Node is the worker side of a cluster: it accepts component assignments
// from a coordinator, runs one plain engine per component, folds in the
// snapshot stream the coordinator scatters to it, and answers the gather
// and watch calls. Zero value is not usable; construct with NewNode.
type Node struct {
	// ID identifies the node across reconnects; the coordinator keys
	// placement on it, so a restarted node with the same ID gets its
	// components back.
	ID string

	// WatchPoll and WatchHeartbeat pace the /cluster/v1/watch push stream
	// (defaults 50ms / 10s).
	WatchPoll      time.Duration
	WatchHeartbeat time.Duration

	// StateDir, when non-empty, makes every placed component durable: its
	// engine journals snapshots and checkpoints moments under
	// StateDir/component-%04d (keyed by global component index), and a
	// restarted node that receives the same placement back restores each
	// component's moments from local disk — bitwise-identical to the state
	// at the kill — before the coordinator resumes its stream. A component
	// whose local state is unsalvageable or belongs to a different
	// placement shape is wiped and boots cold (the log records it); the
	// node never refuses an assignment over dead state. Set before serving.
	StateDir string

	// Durability tunes the per-component WAL and checkpoint cadence when
	// StateDir is set (zero value = lia defaults).
	Durability lia.DurabilityOptions

	// Logf receives supervision logs (default log is discarded).
	Logf func(format string, args ...any)

	mu    sync.Mutex
	place *placement // nil before the first assignment
}

// NewNode creates a node with the given stable identity.
func NewNode(id string) *Node {
	return &Node{
		ID:             id,
		WatchPoll:      50 * time.Millisecond,
		WatchHeartbeat: 10 * time.Second,
		Logf:           func(string, ...any) {},
	}
}

// Handler returns the node's cluster-protocol HTTP handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/assign", n.handleAssign)
	mux.HandleFunc("POST /cluster/v1/ingest", n.handleIngest)
	mux.HandleFunc("POST /cluster/v1/infer", n.handleInfer)
	mux.HandleFunc("GET /cluster/v1/steady", n.handleSteady)
	mux.HandleFunc("GET /cluster/v1/stats", n.handleStats)
	mux.HandleFunc("GET /cluster/v1/watch", n.handleWatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// current returns the active placement, or nil before assignment.
func (n *Node) current() *placement {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.place
}

// Assignment returns the active assignment generation (0 before any).
func (n *Node) Assignment() uint64 {
	if p := n.current(); p != nil {
		return p.assignment
	}
	return 0
}

// Snapshots returns the snapshots folded into the active placement.
func (n *Node) Snapshots() int {
	if p := n.current(); p != nil {
		return int(p.epoch.Load())
	}
	return 0
}

// Close releases the active placement's engines after the node's HTTP
// server has drained. For a durable node (StateDir set) this writes each
// component's final checkpoint, so the next boot restores without WAL
// replay; a node killed without Close recovers the same state, just by
// replaying the journal tail. A later assignment builds fresh engines.
func (n *Node) Close() error {
	n.mu.Lock()
	p := n.place
	n.place = nil
	n.mu.Unlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, nc := range p.comps {
		if c, ok := nc.eng.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// apply installs a new placement from an assignment request, discarding any
// older generation's engines and their learning state.
func (n *Node) apply(req AssignRequest) (*placement, error) {
	opts, err := req.Options.Options()
	if err != nil {
		return nil, err
	}
	p := &placement{assignment: req.Assignment}
	for _, ca := range req.Components {
		paths := make([]lia.Path, len(ca.Paths))
		for i, pd := range ca.Paths {
			paths[i] = lia.Path{Beacon: pd.Beacon, Dst: pd.Dst, Links: pd.Links}
		}
		rm, err := lia.NewTopology(paths)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", ca.Component, err)
		}
		if got := rm.NumLinks(); got != len(ca.Links) {
			return nil, fmt.Errorf("component %d: rebuilt %d virtual links, coordinator placed %d — path set is not one link-connected component", ca.Component, got, len(ca.Links))
		}
		eng, err := n.buildEngine(rm, ca.Component, opts)
		if err != nil {
			return nil, fmt.Errorf("component %d: %w", ca.Component, err)
		}
		p.comps = append(p.comps, &nodeComponent{
			component: ca.Component,
			links:     append([]int(nil), ca.Links...),
			npaths:    rm.NumPaths(),
			eng:       eng,
		})
		p.totalPaths += rm.NumPaths()
	}
	if n.StateDir != "" && len(p.comps) > 0 {
		// A restored placement resumes at its components' recovered epoch.
		// Components journal independently, so a crash between component
		// folds of one batch can leave them one epoch apart; the placement
		// reports the minimum (the epoch every component has reached).
		minSnaps := -1
		for _, nc := range p.comps {
			if s := nc.eng.Snapshots(); minSnaps < 0 || s < minSnaps {
				minSnaps = s
			}
		}
		p.epoch.Store(uint64(minSnaps))
	}
	n.mu.Lock()
	old := n.place
	n.place = p
	n.mu.Unlock()
	if old != nil {
		// Release the superseded generation's durable resources: a final
		// checkpoint lands and its WAL handle closes, so the state on disk
		// is consistent right up to the handover (and an in-flight old-
		// generation stream fails fast instead of journalling into it).
		for _, nc := range old.comps {
			if c, ok := nc.eng.(io.Closer); ok {
				if err := c.Close(); err != nil {
					n.Logf("cluster node %s: closing superseded component %d: %v", n.ID, nc.component, err)
				}
			}
		}
		n.Logf("cluster node %s: assignment %d supersedes %d (%d components, %d paths)",
			n.ID, p.assignment, old.assignment, len(p.comps), p.totalPaths)
	} else {
		n.Logf("cluster node %s: assignment %d (%d components, %d paths)",
			n.ID, p.assignment, len(p.comps), p.totalPaths)
	}
	return p, nil
}

// buildEngine constructs one placed component's engine: a plain lia.Engine,
// or — when the node has a StateDir — a durable engine rooted at
// StateDir/component-%04d that restores the moments a previous process of
// this node persisted for the same component. Unsalvageable or
// wrong-shape state (the placement changed while the node was down) is
// wiped for a cold boot rather than refusing the assignment: the
// coordinator's stream re-teaches a cold component, a node stuck rejecting
// assignments teaches nothing.
func (n *Node) buildEngine(rm *lia.RoutingMatrix, component int, opts []lia.Option) (lia.Inferencer, error) {
	if n.StateDir == "" {
		return lia.NewEngine(rm, opts...)
	}
	dir := filepath.Join(n.StateDir, fmt.Sprintf("component-%04d", component))
	// WithShards(1) pins the inner engine to the plain implementation — a
	// placed component is one link-connected unit by construction.
	dopts := append(append([]lia.Option{}, opts...),
		lia.WithShards(1), lia.WithDurability(dir, n.Durability))
	eng, err := lia.New(rm, dopts...)
	var corrupt *lia.CorruptStateError
	if errors.As(err, &corrupt) {
		n.Logf("cluster node %s: component %d state in %s unsalvageable, booting cold: %v",
			n.ID, component, dir, err)
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("clearing corrupt state dir: %w", err)
		}
		eng, err = lia.New(rm, dopts...)
	}
	if err != nil {
		return nil, err
	}
	if ds := eng.(*lia.DurableEngine).DurabilityStats(); ds.RecoveredEpoch > 0 || ds.ReplayedSnapshots > 0 {
		n.Logf("cluster node %s: component %d restored epoch %d (+%d replayed) from %s",
			n.ID, component, ds.RecoveredEpoch, ds.ReplayedSnapshots, dir)
	}
	return eng, nil
}

func (n *Node) handleAssign(w http.ResponseWriter, r *http.Request) {
	var req AssignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decode assignment: %w", err))
		return
	}
	if req.NodeID != n.ID {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("assignment addressed to node %q, this is %q", req.NodeID, n.ID))
		return
	}
	if cur := n.current(); cur != nil && req.Assignment <= cur.assignment {
		writeError(w, http.StatusConflict, codeStaleAssignment,
			fmt.Errorf("assignment %d is not newer than active %d", req.Assignment, cur.assignment))
		return
	}
	p, err := n.apply(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "", err)
		return
	}
	writeJSON(w, http.StatusOK, AssignResponse{
		NodeID:     n.ID,
		Assignment: p.assignment,
		Components: len(p.comps),
		Paths:      p.totalPaths,
	})
}

// requirePlacement resolves the active placement and checks the request's
// assignment generation (query parameter "assignment"; 0/absent skips the
// check — used by read paths that accept whatever is current).
func (n *Node) requirePlacement(w http.ResponseWriter, r *http.Request) (*placement, bool) {
	p := n.current()
	if p == nil {
		writeError(w, http.StatusConflict, codeNotAssigned, errors.New("node has no component assignment yet"))
		return nil, false
	}
	if q := r.URL.Query().Get("assignment"); q != "" && q != "0" {
		var gen uint64
		if _, err := fmt.Sscanf(q, "%d", &gen); err != nil {
			writeError(w, http.StatusBadRequest, "", fmt.Errorf("bad assignment %q", q))
			return nil, false
		}
		if gen != p.assignment {
			writeError(w, http.StatusConflict, codeStaleAssignment,
				fmt.Errorf("request is for assignment %d, node runs %d", gen, p.assignment))
			return nil, false
		}
	}
	return p, true
}

// split cuts a node-local observation vector into per-component views, in
// assignment order (the scatter concatenates components the same way).
func (p *placement) split(y []float64) ([][]float64, error) {
	if len(y) != p.totalPaths {
		return nil, fmt.Errorf("%w: snapshot has %d paths, placement has %d", lia.ErrDimensionMismatch, len(y), p.totalPaths)
	}
	out := make([][]float64, len(p.comps))
	off := 0
	for c, nc := range p.comps {
		out[c] = y[off : off+nc.npaths]
		off += nc.npaths
	}
	return out, nil
}

// handleIngest serves POST /cluster/v1/ingest: the coordinator's persistent
// NDJSON snapshot stream. Each line carries a batch of node-local
// observation vectors; every batch folds atomically across the placement's
// components under one serialisation point, so all components observe the
// same snapshot order. The stream is pinned to an assignment generation — a
// re-assignment severs it mid-flight rather than folding old-placement
// snapshots into new engines.
//
// Rejections ABORT the connection instead of writing an error response.
// Go's HTTP server withholds a handler's response while a chunked request
// body is still streaming (it drains up to 256KB after the handler returns
// before flushing, to dodge a TCP-reset race), so a status code written
// mid-stream is invisible to a coordinator that keeps the pipe open — its
// batches would drain into a rejected stream silently. Severing the
// connection is the only rejection signal that arrives promptly; the
// coordinator re-probes GET /cluster/v1/stats before reconnecting, which
// carries the full diagnosis.
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	p := n.current()
	gen := r.URL.Query().Get("assignment")
	abort := func(why error) {
		n.Logf("cluster node %s: aborting ingest stream (assignment=%s): %v", n.ID, gen, why)
		panic(http.ErrAbortHandler)
	}
	if p == nil {
		abort(errors.New("node has no component assignment yet"))
	}
	if gen != "" && gen != "0" && gen != fmt.Sprintf("%d", p.assignment) {
		abort(fmt.Errorf("stream is for assignment %s, node runs %d", gen, p.assignment))
	}
	dec := json.NewDecoder(r.Body)
	ingested := 0
	for rec := 0; ; rec++ {
		var line ingestLine
		if err := dec.Decode(&line); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			abort(fmt.Errorf("ingest record %d (%d ingested): decode: %w", rec, ingested, err))
		}
		if n.current() != p {
			abort(fmt.Errorf("ingest record %d (%d ingested): assignment %d superseded", rec, ingested, p.assignment))
		}
		if err := p.ingest(line.Ys); err != nil {
			abort(fmt.Errorf("ingest record %d (%d ingested): %w", rec, ingested, err))
		}
		ingested += len(line.Ys)
	}
	writeJSON(w, http.StatusOK, IngestSummary{
		NodeID:    n.ID,
		Ingested:  ingested,
		Snapshots: int(p.epoch.Load()),
	})
}

// ingest folds one batch into every component, validating all vectors
// before any is folded (a bad snapshot leaves every accumulator untouched,
// matching ShardedEngine.IngestBatch).
func (p *placement) ingest(ys [][]float64) error {
	split := make([][][]float64, len(ys))
	for i, y := range ys {
		sub, err := p.split(y)
		if err != nil {
			return fmt.Errorf("batch snapshot %d of %d: %w", i, len(ys), err)
		}
		split[i] = sub
	}
	if len(ys) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, nc := range p.comps {
		batch := make([][]float64, len(ys))
		for i := range split {
			batch[i] = split[i][c]
		}
		if err := nc.eng.IngestBatch(batch); err != nil {
			return err // unreachable: dimensions validated above
		}
	}
	p.epoch.Add(uint64(len(ys)))
	return nil
}

// handleInfer serves POST /cluster/v1/infer: Phase 2 on one node-local
// observation vector, every assigned component solved and reported
// independently (a failing component carries its error in its own result
// slot; the HTTP status is 200 as long as the request itself was sound).
func (n *Node) handleInfer(w http.ResponseWriter, r *http.Request) {
	p, ok := n.requirePlacement(w, r)
	if !ok {
		return
	}
	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decode: %w", err))
		return
	}
	sub, err := p.split(req.Y)
	if err != nil {
		writeError(w, errStatus(err), wireCode(err), err)
		return
	}
	n.respond(w, p, func(c int, nc *nodeComponent) (*lia.Result, error) {
		return nc.eng.Infer(r.Context(), sub[c])
	})
}

// handleSteady serves GET /cluster/v1/steady: every component's consistent
// steady-state view, with per-component failure isolation like handleInfer.
func (n *Node) handleSteady(w http.ResponseWriter, r *http.Request) {
	p, ok := n.requirePlacement(w, r)
	if !ok {
		return
	}
	n.respond(w, p, func(_ int, nc *nodeComponent) (*lia.Result, error) {
		st, err := nc.eng.Steady(r.Context())
		if err != nil {
			return nil, err
		}
		return &lia.Result{Epoch: st.Epoch, Variances: st.Variances, Kept: st.Kept, Removed: st.Removed}, nil
	})
}

// respond writes a gather call's answer: every assigned component's answer
// or error, in its local link order and wire form.
func (n *Node) respond(w http.ResponseWriter, p *placement, answer func(c int, nc *nodeComponent) (*lia.Result, error)) {
	resp := GatherResponse{NodeID: n.ID, Assignment: p.assignment, Snapshots: int(p.epoch.Load())}
	for c, nc := range p.comps {
		cr := ComponentResult{Component: nc.component}
		if res, err := answer(c, nc); err != nil {
			cr.Error, cr.ErrorCode = err.Error(), wireCode(err)
		} else {
			cr.Epoch, cr.LossRates, cr.LogRates = res.Epoch, res.LossRates, res.LogRates
			cr.Variances, cr.Kept, cr.Removed = res.Variances, res.Kept, res.Removed
		}
		resp.Components = append(resp.Components, cr)
	}
	writeJSON(w, http.StatusOK, resp)
}

// event assembles the node's current epoch state: per-component counters,
// and the node's oldest state epoch and degradation from the shared roll-up
// (core.RollUp).
func (n *Node) event(typ string) NodeEvent {
	ev := NodeEvent{Type: typ, NodeID: n.ID, StateEpoch: -1}
	p := n.current()
	if p == nil {
		return ev
	}
	ev.Assignment = p.assignment
	ev.Snapshots = int(p.epoch.Load())
	stats := make([]lia.Stats, len(p.comps))
	for c, nc := range p.comps {
		cs := nc.eng.Stats()
		stats[c] = cs
		ev.Components = append(ev.Components, ComponentState{
			Component:       nc.component,
			Snapshots:       cs.Snapshots,
			StateEpoch:      cs.StateEpoch,
			Rebuilds:        cs.Rebuilds,
			ElimReuses:      cs.ElimReuses,
			RebuildFailures: cs.RebuildFailures,
			DeltaRebuilds:   cs.DeltaRebuilds,
			DirtyShards:     cs.DirtyShards,
			Degraded:        core.Unhealthy(cs),
			LastError:       cs.LastError,
		})
		if cs.EpochLag > 0 {
			ev.DirtyComponents++
		}
	}
	agg := core.RollUp(lia.Stats{}, stats)
	ev.StateEpoch, ev.Degraded = agg.StateEpoch, agg.Degraded
	return ev
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.event("stats"))
}

// handleWatch serves GET /cluster/v1/watch: an NDJSON push stream of
// NodeEvents — the current state immediately, a new event whenever the
// node's epoch state changes, and heartbeats while it does not. The
// coordinator tails this stream to track fleet freshness without polling.
func (n *Node) handleWatch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "", errors.New("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	emit := func(ev NodeEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	last := n.event("epoch")
	if !emit(last) {
		return
	}
	lastWrite := time.Now()
	ticker := time.NewTicker(n.WatchPoll)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		ev := n.event("epoch")
		switch {
		case !sameNodeState(ev, last):
			if !emit(ev) {
				return
			}
			last, lastWrite = ev, time.Now()
		case time.Since(lastWrite) >= n.WatchHeartbeat:
			ev.Type = "heartbeat"
			if !emit(ev) {
				return
			}
			lastWrite = time.Now()
		}
	}
}

// sameNodeState reports whether two events describe the same node state
// (everything but the event type).
func sameNodeState(a, b NodeEvent) bool {
	a.Type, b.Type = "", ""
	return reflect.DeepEqual(a, b)
}

// Register announces the node to a coordinator, retrying with exponential
// backoff until it succeeds or the context ends. The coordinator calls back
// on /cluster/v1/assign once the fleet is complete.
func (n *Node) Register(ctx context.Context, client *http.Client, coordinatorURL, advertiseURL string) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := json.Marshal(RegisterRequest{NodeID: n.ID, URL: advertiseURL})
	if err != nil {
		return err
	}
	backoff := 100 * time.Millisecond
	for {
		resp, err := postJSON(ctx, client, coordinatorURL+"/cluster/v1/register", body)
		if err == nil {
			var ack RegisterResponse
			err = json.NewDecoder(resp.Body).Decode(&ack)
			_ = resp.Body.Close()
			if err == nil {
				n.Logf("cluster node %s: registered with %s (%d/%d nodes, placed=%v)",
					n.ID, coordinatorURL, ack.Nodes, ack.Size, ack.Placed)
				return nil
			}
		}
		n.Logf("cluster node %s: register with %s failed (retrying in %v): %v", n.ID, coordinatorURL, backoff, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, 5*time.Second)
	}
}

// postJSON posts a JSON body and returns the response, turning non-2xx
// statuses into errors carrying the remote ErrorResponse.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, readerFor(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, decodeErrorResponse(resp)
	}
	return resp, nil
}
