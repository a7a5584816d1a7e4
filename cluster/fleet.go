package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lia"
	"lia/internal/core"
)

// FleetConfig configures a coordinator-side Fleet.
type FleetConfig struct {
	// Size is the number of nodes the fleet waits for before placing
	// components. Required, >= 1.
	Size int
	// Options is the engine configuration propagated to every node, so the
	// fleet's per-component solvers match a single-process engine bitwise.
	Options EngineOptions
	// Client performs all coordinator->node HTTP; it must not set an
	// overall Timeout (the ingest and watch streams are long-lived).
	// Defaults to a plain http.Client.
	Client *http.Client
	// ReconnectMin/ReconnectMax bound the supervision backoff for the
	// per-node ingest and watch streams (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// Logf receives supervision logs (default discards).
	Logf func(format string, args ...any)
}

// fleetComponent is one link-connected component as the coordinator sees
// it: the scatter index map plus the wire-ready path documents the owning
// node rebuilds its engine from.
type fleetComponent struct {
	paths []int     // global path (row) indices, ascending
	docs  []PathDoc // the component's paths, global row order preserved
}

// nodeClient is the coordinator's handle on one registered node: its
// assignment slice, the scatter queue feeding its supervised ingest
// stream, and the cached state of its watch stream.
type nodeClient struct {
	id string

	mu    sync.Mutex
	url   string
	comps []int // owned component indices, in scatter order
	paths []int // concatenated global path indices, in scatter order

	// One incarnation per registration: the batch queue and the stream
	// context are replaced together when the node re-registers, so a stream
	// opened against the node's previous life can neither consume fresh
	// batches (it holds the abandoned channel) nor linger (its context is
	// cancelled).
	batches chan [][]float64 // node-local scattered batches
	sctx    context.Context  // cancelled when this incarnation ends
	scancel context.CancelFunc

	// base is the folded-snapshot count the incarnation's first ingest probe
	// saw (-1 until then) — what a restarted node restored from disk.
	base       atomic.Int64
	sent       atomic.Int64 // snapshots enqueued for this incarnation
	missed     atomic.Int64 // of those, dropped (queue full or stream broken)
	ingestLive atomic.Bool
	watchLive  atomic.Bool
	lastEvent  atomic.Pointer[NodeEvent]
}

func (nc *nodeClient) baseURL() string {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.url
}

// stream returns the node's current incarnation: the context its streams
// must bind to and the batch queue they drain.
func (nc *nodeClient) stream() (context.Context, chan [][]float64) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.sctx, nc.batches
}

// ingestQueue bounds the per-node queue of scattered batches awaiting the
// ingest stream; a full queue drops the batch for that node (its components
// degrade, everyone else is unaffected).
const ingestQueue = 1024

// reincarnate ends the node's current incarnation (severing its streams)
// and starts a fresh one: a (re-)registered node's learning state and
// folded-snapshot count begin again, so the delivery accounting and the
// stream liveness do too. Callers must hold f.mu so no scatter races the
// channel swap; nc.mu is taken for readers that hold neither lock.
func (nc *nodeClient) reincarnate(parent context.Context) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.scancel != nil {
		nc.scancel()
	}
	nc.sctx, nc.scancel = context.WithCancel(parent)
	nc.batches = make(chan [][]float64, ingestQueue)
	nc.base.Store(-1)
	nc.sent.Store(0)
	nc.missed.Store(0)
	nc.ingestLive.Store(false)
	nc.watchLive.Store(false)
}

// probed records the folded-snapshot count an ingest probe of incarnation
// sctx saw, once per incarnation: a later reconnect's count already
// includes batches this incarnation delivered.
func (nc *nodeClient) probed(sctx context.Context, snapshots int) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.sctx == sctx {
		nc.base.CompareAndSwap(-1, int64(snapshots))
	}
}

func (nc *nodeClient) assigned() (comps []int, paths []int) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.comps, nc.paths
}

// scatter projects a global observation vector onto the node's local path
// order (the concatenation of its components' rows).
func (nc *nodeClient) scatter(y []float64, paths []int) []float64 {
	local := make([]float64, len(paths))
	for i, pg := range paths {
		local[i] = y[pg]
	}
	return local
}

// Fleet is the coordinator-side inference engine over a cluster of nodes:
// it implements lia.Inferencer — the same surface serve.Server drives for
// a single-process engine — by scattering ingested snapshots to the nodes
// owning each link-connected component and gathering their per-component
// results back into global link order, with ShardedEngine's exact
// degradation semantics (a dead or failing component marks only its own
// links Unresolved).
//
// Construct with NewFleet, expose Handler on the coordinator's listener so
// nodes can register, and Close when done. Until Size nodes have
// registered, ingest and queries fail with lia.ErrTooFewSnapshots — the
// same retryable cold-start signal a warming single-process engine gives.
type Fleet struct {
	rm    *lia.RoutingMatrix
	part  *lia.Partition
	comps []fleetComponent
	links [][]int // per component: local virtual link -> global virtual link
	cfg   FleetConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex // guards nodes/placed/owners and serialises ingestion
	nodes      map[string]*nodeClient
	placed     bool
	assignment uint64
	owners     []*nodeClient // per component, nil until placed

	epoch atomic.Uint64 // fleet-lifetime ingested snapshots
}

// Fleet implements the engine surface serve.Server expects, plus the
// optional per-component and cluster introspection interfaces.
var _ lia.Inferencer = (*Fleet)(nil)

// NewFleet creates a coordinator fleet for the routing matrix. Placement
// happens when the Size'th node registers; until then the fleet reports
// cold-start errors.
func NewFleet(rm *lia.RoutingMatrix, cfg FleetConfig) (*Fleet, error) {
	if rm == nil {
		return nil, errors.New("cluster: nil routing matrix")
	}
	if cfg.Size < 1 {
		return nil, fmt.Errorf("cluster: fleet size %d must be >= 1", cfg.Size)
	}
	opts, err := cfg.Options.Options()
	if err != nil {
		return nil, err
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	part := lia.NewPartition(rm)
	f := &Fleet{
		rm:     rm,
		part:   part,
		comps:  make([]fleetComponent, part.NumComponents()),
		links:  make([][]int, part.NumComponents()),
		cfg:    cfg,
		nodes:  make(map[string]*nodeClient),
		owners: make([]*nodeClient, part.NumComponents()),
	}
	for c := range f.comps {
		sub, links, err := part.ComponentMatrix(c)
		if err != nil {
			return nil, fmt.Errorf("cluster: component %d: %w", c, err)
		}
		if c == 0 {
			// Nodes build every component with these options: refuse here
			// what lia refuses there, instead of retrying the assignment.
			if _, err := lia.NewEngine(sub, opts...); err != nil {
				return nil, fmt.Errorf("cluster: %w", err)
			}
		}
		comp := part.Component(c)
		docs := make([]PathDoc, len(comp.Paths))
		for i, pg := range comp.Paths {
			p := rm.Path(pg)
			docs[i] = PathDoc{Beacon: p.Beacon, Dst: p.Dst, Links: p.Links}
		}
		f.comps[c] = fleetComponent{paths: comp.Paths, docs: docs}
		f.links[c] = links
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f, nil
}

// Close stops the fleet's supervision streams and waits for them to exit.
func (f *Fleet) Close() error {
	f.cancel()
	f.wg.Wait()
	return nil
}

// Handler returns the coordinator's cluster-protocol handler (node
// registration); mount it alongside the serve API.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", f.handleRegister)
	return mux
}

// handleRegister admits a node into the fleet. The Size'th distinct node
// triggers placement; a known node re-registering (a restart, possibly at a
// new address) has its assignment re-sent so it can rebuild its components
// and resume.
func (f *Fleet) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", fmt.Errorf("decode registration: %w", err))
		return
	}
	if req.NodeID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, "", errors.New("registration needs node_id and url"))
		return
	}
	f.mu.Lock()
	nc, known := f.nodes[req.NodeID]
	if !known {
		if f.placed || len(f.nodes) >= f.cfg.Size {
			defer f.mu.Unlock()
			writeError(w, http.StatusConflict, "", fmt.Errorf("fleet of %d is full; unknown node %q cannot join", f.cfg.Size, req.NodeID))
			return
		}
		nc = &nodeClient{id: req.NodeID}
		nc.reincarnate(f.ctx)
		f.nodes[req.NodeID] = nc
	}
	nc.mu.Lock()
	nc.url = req.URL
	nc.mu.Unlock()
	if known {
		// A re-registration is a restarted node. Batches queued at — or
		// streams opened against — its previous life are abandoned with that
		// incarnation (f.mu is held, so no producer races the swap).
		nc.reincarnate(f.ctx)
	}
	complete := len(f.nodes) == f.cfg.Size
	place := complete && !f.placed
	var push []*nodeClient
	if place {
		f.place()
		// First placement: every node learns its assignment now.
		for _, other := range f.nodes {
			push = append(push, other)
		}
	} else if f.placed {
		// Rejoin of an already-placed fleet: re-push this node only.
		push = append(push, nc)
	}
	placed, nodes := f.placed, len(f.nodes)
	f.mu.Unlock()

	f.cfg.Logf("cluster: node %s registered at %s (%d/%d, placed=%v)", req.NodeID, req.URL, nodes, f.cfg.Size, placed)
	// Assignments go out in the background; a node may still be blocked in
	// this very registration call when its callback arrives.
	for _, target := range push {
		f.wg.Add(1)
		go f.pushAssignment(target)
	}
	writeJSON(w, http.StatusOK, RegisterResponse{NodeID: req.NodeID, Nodes: nodes, Size: f.cfg.Size, Placed: placed})
}

// place computes the component placement once the fleet is complete and
// starts the per-node supervision streams. Caller holds f.mu.
//
// Placement is deterministic and join-order independent: the LPT shard
// grouping of the partition (largest pair weight first, ties by component
// index) laid onto the node IDs in sorted order.
func (f *Fleet) place() {
	ids := make([]string, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	groups := f.part.Shards(f.cfg.Size)
	f.assignment++
	for i, id := range ids {
		nc := f.nodes[id]
		var comps, paths []int
		if i < len(groups) {
			comps = groups[i]
			for _, c := range comps {
				paths = append(paths, f.comps[c].paths...)
			}
		}
		nc.mu.Lock()
		nc.comps, nc.paths = comps, paths
		nc.mu.Unlock()
		for _, c := range comps {
			f.owners[c] = nc
		}
		f.wg.Add(1)
		go f.supervise(nc, "watch", "events", &nc.watchLive, f.watchOnce)
		if len(paths) > 0 {
			f.wg.Add(1)
			go f.supervise(nc, "ingest", "snapshots", &nc.ingestLive, f.ingestOnce)
		}
		f.cfg.Logf("cluster: placed components %v on node %s (%d paths)", comps, id, len(paths))
	}
	f.placed = true
}

// assignRequest builds the wire assignment for one node.
func (f *Fleet) assignRequest(nc *nodeClient) AssignRequest {
	comps, _ := nc.assigned()
	req := AssignRequest{NodeID: nc.id, Assignment: f.assignment, Options: f.cfg.Options}
	for _, c := range comps {
		req.Components = append(req.Components, ComponentAssignment{
			Component: c,
			Links:     f.links[c],
			Paths:     f.comps[c].docs,
		})
	}
	return req
}

// pushAssignment delivers a node its assignment, retrying with backoff
// until it is acknowledged, rejected as stale (the node already runs it),
// or the fleet closes.
func (f *Fleet) pushAssignment(nc *nodeClient) {
	defer f.wg.Done()
	f.mu.Lock()
	req := f.assignRequest(nc)
	f.mu.Unlock()
	body, _ := json.Marshal(req)
	backoff := f.cfg.ReconnectMin
	for {
		resp, err := postJSON(f.ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/assign", body)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			f.cfg.Logf("cluster: node %s accepted assignment %d (%d components)", nc.id, req.Assignment, len(req.Components))
			return
		}
		var er *wireError
		if errors.As(err, &er) && er.sentinel == nil {
			// Deliberate rejection (e.g. stale generation on a node that
			// already runs it): nothing to retry.
			f.cfg.Logf("cluster: node %s assignment %d not applied: %v", nc.id, req.Assignment, err)
			return
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, f.cfg.ReconnectMax)
	}
}

// supervise keeps one of the node's streams up: once runs one connection
// until it breaks and reports how many records it carried; supervise marks
// the stream dead and reconnects with backoff until the fleet closes. The
// watch stream caches the latest NodeEvent for Stats; the ingest stream
// delivers the node's scattered batches.
func (f *Fleet) supervise(nc *nodeClient, stream, unit string, live *atomic.Bool, once func(*nodeClient) (int, error)) {
	defer f.wg.Done()
	backoff := f.cfg.ReconnectMin
	for {
		n, err := once(nc)
		live.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if n > 0 {
			backoff = f.cfg.ReconnectMin
		}
		f.cfg.Logf("cluster: node %s %s stream ended after %d %s: %v (reconnect in %v)", nc.id, stream, n, unit, err, backoff)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, f.cfg.ReconnectMax)
	}
}

// watchOnce consumes one connection's worth of the node's watch stream.
func (f *Fleet) watchOnce(nc *nodeClient) (events int, err error) {
	sctx, _ := nc.stream()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, nc.baseURL()+"/cluster/v1/watch", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeErrorResponse(resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev NodeEvent
		if err := dec.Decode(&ev); err != nil {
			return events, err
		}
		events++
		nc.lastEvent.Store(&ev)
		nc.watchLive.Store(true)
	}
}

// ingestOnce runs one streaming-ingest connection until it breaks or the
// fleet closes, returning how many snapshots it delivered: queued batches
// are written as NDJSON lines, and batches that hit a broken stream are
// dropped and counted missed — the node's components degrade while it is
// down and recover as fresh snapshots arrive after it returns, exactly the
// per-component degradation contract.
//
// Before consuming any batch it probes the node's stats endpoint and
// requires the node to report this fleet's assignment generation. An HTTP
// server cannot deliver an early error response while a chunked request
// body is still streaming, so a node that is not (yet) on the right
// assignment aborts the connection without diagnosis — the probe keeps
// queued batches out of a stream that would be severed, and surfaces why.
func (f *Fleet) ingestOnce(nc *nodeClient) (wrote int, err error) {
	f.mu.Lock()
	gen := f.assignment
	f.mu.Unlock()
	sctx, batches := nc.stream()
	probeCtx, cancelProbe := context.WithTimeout(sctx, 10*time.Second)
	var ev NodeEvent
	err = getJSON(probeCtx, f.cfg.Client, nc.baseURL()+"/cluster/v1/stats", &ev)
	cancelProbe()
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	if ev.Assignment != gen {
		return 0, fmt.Errorf("node reports assignment %d, fleet runs %d", ev.Assignment, gen)
	}
	nc.probed(sctx, ev.Snapshots)
	pr, pw := io.Pipe()
	url := fmt.Sprintf("%s/cluster/v1/ingest?assignment=%d", nc.baseURL(), gen)
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, url, pr)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type reply struct {
		resp *http.Response
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := f.cfg.Client.Do(req)
		done <- reply{resp, err}
	}()
	// The node answered the probe on the right assignment and the stream
	// request is under way: deliveries now reach the node rather than being
	// dropped, which is what ingest-liveness means to ClusterNodes readers
	// (e.g. an operator waiting out a node restart before streaming).
	nc.ingestLive.Store(true)
	finish := func(cause error) (int, error) {
		_ = pw.CloseWithError(cause)
		r := <-done
		if r.err != nil {
			return wrote, r.err
		}
		defer r.resp.Body.Close()
		if r.resp.StatusCode != http.StatusOK {
			return wrote, decodeErrorResponse(r.resp)
		}
		_, _ = io.Copy(io.Discard, r.resp.Body)
		return wrote, cause
	}
	enc := json.NewEncoder(pw)
	for {
		select {
		case <-sctx.Done():
			return finish(nil) // graceful: node acks what it folded
		case r := <-done:
			// Server ended the stream from its side (error or rejection).
			if r.err == nil {
				defer r.resp.Body.Close()
				if r.resp.StatusCode != http.StatusOK {
					return wrote, decodeErrorResponse(r.resp)
				}
				return wrote, errors.New("ingest stream closed by node")
			}
			return wrote, r.err
		case batch := <-batches:
			if err := enc.Encode(ingestLine{Ys: batch}); err != nil {
				nc.missed.Add(int64(len(batch)))
				return finish(err)
			}
			nc.ingestLive.Store(true)
			wrote += len(batch)
		}
	}
}

// --- lia.Inferencer: ingestion ---

// RoutingMatrix returns the global matrix the fleet operates on.
func (f *Fleet) RoutingMatrix() *lia.RoutingMatrix { return f.rm }

// Partition returns the topology decomposition behind the placement.
func (f *Fleet) Partition() *lia.Partition { return f.part }

// Snapshots returns the lifetime number of snapshots accepted for scatter.
func (f *Fleet) Snapshots() int { return int(f.epoch.Load()) }

// Threshold returns the effective congestion threshold tl.
func (f *Fleet) Threshold() float64 { return f.cfg.Options.threshold() }

// errNotPlaced reports the fleet's cold state as the standard retryable
// warm-up sentinel.
func (f *Fleet) errNotPlaced(nodes int) error {
	return fmt.Errorf("cluster: fleet has %d of %d nodes, components not placed: %w",
		nodes, f.cfg.Size, lia.ErrTooFewSnapshots)
}

func (f *Fleet) checkDim(y []float64) error {
	if len(y) != f.rm.NumPaths() {
		return fmt.Errorf("%w: snapshot has %d paths, matrix has %d",
			lia.ErrDimensionMismatch, len(y), f.rm.NumPaths())
	}
	return nil
}

// Ingest folds one learning snapshot, scattering its rows to the owning
// nodes' ingest streams.
func (f *Fleet) Ingest(y []float64) error { return f.IngestBatch([][]float64{y}) }

// IngestBatch folds a batch of snapshots under one serialisation point: all
// vectors are validated first, then every node receives its projection of
// the whole batch in order. Delivery to a down node is dropped (counted
// missed) rather than blocking the fleet — its components degrade, every
// other component's learning is unaffected.
func (f *Fleet) IngestBatch(ys [][]float64) error {
	for i, y := range ys {
		if err := f.checkDim(y); err != nil {
			return fmt.Errorf("cluster: batch snapshot %d of %d (0 ingested): %w", i, len(ys), err)
		}
	}
	if len(ys) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.placed {
		return f.errNotPlaced(len(f.nodes))
	}
	for _, nc := range f.nodes {
		paths := nc.paths // f.mu serialises with place(); nc.paths is stable after
		if len(paths) == 0 {
			continue
		}
		batch := make([][]float64, len(ys))
		for i, y := range ys {
			batch[i] = nc.scatter(y, paths)
		}
		select {
		case nc.batches <- batch:
			nc.sent.Add(int64(len(ys)))
		default:
			nc.missed.Add(int64(len(ys)))
			f.cfg.Logf("cluster: node %s ingest queue full, dropped %d snapshots", nc.id, len(ys))
		}
	}
	f.epoch.Add(uint64(len(ys)))
	return nil
}

// Consume pulls snapshots from a source until it is exhausted or the
// context is cancelled, scattering each to the fleet.
func (f *Fleet) Consume(ctx context.Context, src lia.SnapshotSource) (int, error) {
	n := 0
	for {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		snap, err := src.Next(ctx)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		if err := f.Ingest(snap.Y); err != nil {
			return n, err
		}
		n++
	}
}

// --- lia.Inferencer: gathered queries ---

// placedNodes snapshots the placement for a gather; the error is the
// cold-start sentinel while the fleet is incomplete.
func (f *Fleet) placedNodes() ([]*nodeClient, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.placed {
		return nil, f.errNotPlaced(len(f.nodes))
	}
	nodes := make([]*nodeClient, 0, len(f.nodes))
	for _, nc := range f.nodes {
		if len(nc.comps) > 0 {
			nodes = append(nodes, nc)
		}
	}
	return nodes, nil
}

// gather fans one query out to every owning node concurrently and collects
// per-component answers (converted from the wire) and errors in
// component-index order for core.MergeResults. query returns the node's
// GatherResponse; a whole-node failure charges every component it owns.
func (f *Fleet) gather(ctx context.Context, query func(ctx context.Context, nc *nodeClient) (*GatherResponse, error)) ([]*lia.Result, []error, error) {
	nodes, err := f.placedNodes()
	if err != nil {
		return nil, nil, err
	}
	results := make([]*lia.Result, len(f.comps))
	errs := make([]error, len(f.comps))
	var wg sync.WaitGroup
	for _, nc := range nodes {
		wg.Add(1)
		go func(nc *nodeClient) {
			defer wg.Done()
			comps, _ := nc.assigned()
			resp, err := query(ctx, nc)
			if err != nil {
				for _, c := range comps {
					errs[c] = fmt.Errorf("node %s: %w", nc.id, err)
				}
				return
			}
			seen := make(map[int]bool, len(resp.Components))
			for i := range resp.Components {
				cr := &resp.Components[i]
				if cr.Component < 0 || cr.Component >= len(results) {
					continue
				}
				seen[cr.Component] = true
				if cr.Error != "" {
					errs[cr.Component] = fmt.Errorf("node %s component %d: %w", nc.id, cr.Component, decodeError(cr.Error, cr.ErrorCode))
					continue
				}
				results[cr.Component] = &lia.Result{Epoch: cr.Epoch, LossRates: cr.LossRates, LogRates: cr.LogRates,
					Variances: cr.Variances, Kept: cr.Kept, Removed: cr.Removed}
			}
			for _, c := range comps {
				if !seen[c] {
					errs[c] = fmt.Errorf("node %s: component %d missing from response", nc.id, c)
				}
			}
		}(nc)
	}
	wg.Wait()
	return results, errs, nil
}

// inferNode posts one node its projection of the observation vector.
func (f *Fleet) inferNode(ctx context.Context, nc *nodeClient, y []float64) (*GatherResponse, error) {
	_, paths := nc.assigned()
	body, err := json.Marshal(InferRequest{Y: nc.scatter(y, paths)})
	if err != nil {
		return nil, err
	}
	resp, err := postJSON(ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/infer", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var gr GatherResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return nil, err
	}
	return &gr, nil
}

// steadyNode fetches one node's steady-state gather.
func (f *Fleet) steadyNode(ctx context.Context, nc *nodeClient) (*GatherResponse, error) {
	var gr GatherResponse
	if err := getJSON(ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/steady", &gr); err != nil {
		return nil, err
	}
	return &gr, nil
}

// Infer runs Phase 2 on one global observation vector: each owning node
// solves its components' reduced systems, and the per-link results gather
// back into global link order with the sharded engine's merge
// (core.MergeResults), bitwise-identical to a single-process engine over
// the same snapshots. A failing component (or dead node) marks only its own
// links Unresolved.
func (f *Fleet) Infer(ctx context.Context, y []float64) (*lia.Result, error) {
	if err := f.checkDim(y); err != nil {
		return nil, err
	}
	parts, errs, err := f.gather(ctx, func(ctx context.Context, nc *nodeClient) (*GatherResponse, error) {
		return f.inferNode(ctx, nc, y)
	})
	if err != nil {
		return nil, err
	}
	return core.MergeResults(ctx, f.rm.NumLinks(), f.links, parts, errs)
}

// InferCongested runs Infer and classifies every virtual link against the
// fleet's congestion threshold.
func (f *Fleet) InferCongested(ctx context.Context, y []float64) ([]bool, *lia.Result, error) {
	res, err := f.Infer(ctx, y)
	if err != nil {
		return nil, nil, err
	}
	return res.Congested(f.Threshold()), res, nil
}

// Steady returns the steady-state learning view gathered across the fleet
// in global link order with the sharded engine's merge (core.MergeSteady):
// failed components' links in Unresolved.
func (f *Fleet) Steady(ctx context.Context) (*lia.SteadyState, error) {
	parts, errs, err := f.gather(ctx, f.steadyNode)
	if err != nil {
		return nil, err
	}
	return core.MergeSteady(ctx, f.rm.NumLinks(), f.links, parts, errs)
}

// Variances returns the Phase-1 per-link variance estimates in global link
// order; a failed component's links report zero (see Steady).
func (f *Fleet) Variances(ctx context.Context) ([]float64, error) {
	st, err := f.Steady(ctx)
	if err != nil {
		return nil, err
	}
	return st.Variances, nil
}

// --- observability ---

// componentState returns the cached watch-stream state of component c and
// whether its owner is reachable.
func (f *Fleet) componentState(nc *nodeClient, c int) (ComponentState, bool) {
	ev := nc.lastEvent.Load()
	if ev == nil || !nc.watchLive.Load() {
		return ComponentState{Component: c, StateEpoch: -1}, false
	}
	for _, cs := range ev.Components {
		if cs.Component == c {
			return cs, true
		}
	}
	return ComponentState{Component: c, StateEpoch: -1}, false
}

// ComponentStats reports each component's counters in component-index
// order, from the nodes' cached watch events — non-blocking, so Stats and
// the watch endpoint never stall on a dead node. A component whose owner
// is unreachable reports Degraded with an explanatory LastError.
func (f *Fleet) ComponentStats() []lia.Stats {
	f.mu.Lock()
	owners := append([]*nodeClient(nil), f.owners...)
	f.mu.Unlock()
	out := make([]lia.Stats, len(owners))
	for c, nc := range owners {
		if nc == nil {
			out[c] = lia.Stats{StateEpoch: -1, Degraded: true, LastError: "component not placed"}
			continue
		}
		cs, live := f.componentState(nc, c)
		out[c] = lia.Stats{
			Snapshots:       cs.Snapshots,
			StateEpoch:      cs.StateEpoch,
			EpochLag:        core.EpochLag(cs.Snapshots, cs.StateEpoch),
			Rebuilds:        cs.Rebuilds,
			RebuildFailures: cs.RebuildFailures,
			Degraded:        cs.Degraded || !live,
			LastError:       cs.LastError,
		}
		if !live && out[c].LastError == "" {
			out[c].LastError = fmt.Sprintf("node %s unreachable", nc.id)
		}
	}
	return out
}

// Stats rolls ComponentStats up with the sharded engine's roll-up
// (core.RollUp); unplaced components and unreachable owners count as
// degraded. The fleet's own fields: Shards is the number of nodes carrying
// components, and LastError is the first degraded one's error.
func (f *Fleet) Stats() lia.Stats {
	f.mu.Lock()
	shards := 0
	for _, nc := range f.nodes {
		if len(nc.comps) > 0 {
			shards++
		}
	}
	f.mu.Unlock()
	comps := f.ComponentStats()
	s := core.RollUp(lia.Stats{
		Snapshots:  f.Snapshots(),
		Shards:     shards,
		Components: len(f.comps),
		Window:     f.cfg.Options.Window,
		Decay:      f.cfg.Options.Decay,
	}, comps)
	for _, cs := range comps {
		if cs.Degraded && s.LastError == "" {
			s.LastError = cs.LastError
		}
	}
	return s
}

// ClusterNodes reports the fleet size view for metrics: total registered
// nodes and how many have both a live ingest stream and a live watch
// stream. Waiting for live == total after a node restart guarantees that
// subsequent IngestBatch deliveries are not dropped against a
// still-reconnecting stream.
func (f *Fleet) ClusterNodes() (total, live int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, nc := range f.nodes {
		total++
		if nc.watchLive.Load() && nc.ingestLive.Load() {
			live++
		}
	}
	return total, live
}

// Synced blocks until every node's folded snapshot count has caught up
// with what the fleet delivered to it, or the context expires — the
// barrier tests and smoke scripts use between ingestion and a parity query.
// A node's target is its incarnation's probed base plus the snapshots sent
// since, minus the known-missed; before the probe it counts as lagging.
func (f *Fleet) Synced(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		lagging := ""
		nodes, err := f.placedNodes()
		if err != nil {
			lagging = err.Error()
		} else {
			for _, nc := range nodes {
				base := nc.base.Load()
				if base < 0 {
					lagging = fmt.Sprintf("node %s: ingest stream not yet probed", nc.id)
					break
				}
				expect := base + nc.sent.Load() - nc.missed.Load()
				var ev NodeEvent
				if err := getJSON(ctx, f.cfg.Client, nc.baseURL()+"/cluster/v1/stats", &ev); err != nil {
					lagging = fmt.Sprintf("node %s: %v", nc.id, err)
					break
				}
				if int64(ev.Snapshots) < expect {
					lagging = fmt.Sprintf("node %s folded %d of %d", nc.id, ev.Snapshots, expect)
					break
				}
			}
		}
		if lagging == "" {
			return nil
		}
		if attempt%50 == 49 {
			f.cfg.Logf("cluster: still waiting for sync: %s", lagging)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Missed reports snapshots dropped on the way to down or backlogged nodes,
// summed across the fleet.
func (f *Fleet) Missed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, nc := range f.nodes {
		n += nc.missed.Load()
	}
	return n
}
