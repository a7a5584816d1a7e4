package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"time"

	"lia"
)

// WatchComponentStats is one sharded component's entry in a WatchEvent: the
// per-component learning state behind the aggregate, so a watcher can tell
// which component is stale or degraded without polling /v1/status.
type WatchComponentStats struct {
	Component       int    `json:"component"`
	StateEpoch      int    `json:"state_epoch"`
	Snapshots       int    `json:"snapshots"`
	Rebuilds        uint64 `json:"rebuilds"`
	RebuildFailures uint64 `json:"rebuild_failures,omitempty"`
	Degraded        bool   `json:"degraded,omitempty"`
}

// WatchEvent is one NDJSON line of GET /v1/watch: a push notification that
// the topology's learning state changed (type "epoch"), or a liveness
// heartbeat while nothing changes (type "heartbeat", same payload). Epoch is
// the state epoch served to queries (-1 before the first rebuild), Snapshots
// the lifetime ingestion count, and EpochLag their difference — a watcher
// knows the served state is fresh exactly when EpochLag is 0. Components
// carries the per-component breakdown for sharded and clustered engines
// (absent for a plain Engine).
type WatchEvent struct {
	Type               string                `json:"type"`
	Topology           string                `json:"topology"`
	Epoch              int                   `json:"epoch"`
	Snapshots          int                   `json:"snapshots"`
	EpochLag           int                   `json:"epoch_lag"`
	Degraded           bool                  `json:"degraded"`
	DegradedComponents int                   `json:"degraded_components,omitempty"`
	Components         []WatchComponentStats `json:"components,omitempty"`
}

// componentStatser is the optional per-component breakdown interface:
// lia.ShardedEngine and cluster.Fleet implement it, a plain Engine does not.
type componentStatser interface {
	ComponentStats() []lia.Stats
}

// watchEvent assembles the current WatchEvent for a topology.
func watchEvent(tp *topo, typ string) WatchEvent {
	st := tp.eng.Stats()
	ev := WatchEvent{
		Type:               typ,
		Topology:           tp.name,
		Epoch:              st.StateEpoch,
		Snapshots:          st.Snapshots,
		EpochLag:           st.EpochLag,
		Degraded:           st.Degraded,
		DegradedComponents: st.DegradedComponents,
	}
	if cs, ok := tp.eng.(componentStatser); ok {
		for c, s := range cs.ComponentStats() {
			ev.Components = append(ev.Components, WatchComponentStats{
				Component:       c,
				StateEpoch:      s.StateEpoch,
				Snapshots:       s.Snapshots,
				Rebuilds:        s.Rebuilds,
				RebuildFailures: s.RebuildFailures,
				Degraded:        s.Degraded,
			})
		}
	}
	return ev
}

// sameState reports whether two events describe the same learning state
// (everything but the event type).
func sameState(a, b WatchEvent) bool {
	a.Type, b.Type = "", ""
	return reflect.DeepEqual(a, b)
}

// handleWatch serves GET /v1/watch: an NDJSON push stream of epoch updates.
// The current state is emitted immediately on connect, a new event whenever
// the served epoch, ingestion count or degradation changes (polled at
// Config.WatchPoll), and a heartbeat every Config.WatchHeartbeat while
// nothing changes, so a reader can distinguish "no news" from a dead
// connection. The stream runs until the client disconnects.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	tp, ok := s.resolve(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	tp.watchers.Add(1)
	defer tp.watchers.Add(-1)

	enc := json.NewEncoder(w)
	emit := func(ev WatchEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	last := watchEvent(tp, "epoch")
	if !emit(last) {
		return
	}
	lastWrite := time.Now()

	ticker := time.NewTicker(s.cfg.WatchPoll)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		ev := watchEvent(tp, "epoch")
		switch {
		case !sameState(ev, last):
			if !emit(ev) {
				return
			}
			last, lastWrite = ev, time.Now()
		case time.Since(lastWrite) >= s.cfg.WatchHeartbeat:
			ev.Type = "heartbeat"
			if !emit(ev) {
				return
			}
			lastWrite = time.Now()
		}
	}
}

// StreamIngestResponse is the body of POST /v1/snapshots/stream, written
// when the request stream ends (or aborts on a bad record).
type StreamIngestResponse struct {
	Topology string `json:"topology"`
	// Ingested is the number of snapshots folded in by the stream.
	Ingested int `json:"ingested"`
	// Snapshots is the engine's lifetime snapshot count afterwards.
	Snapshots int `json:"snapshots"`
}

// handleStreamIngest serves POST /v1/snapshots/stream: a streaming ingest
// connection. The request body is a sequence of JSON records (NDJSON, or any
// concatenated-JSON framing), each an IngestRequest — a single snapshot or an
// atomic batch — folded in as it arrives, so one persistent connection can
// carry an unbounded measurement stream without per-request overhead. A
// json.Decoder frames the records; each decodes through
// IngestRequest.UnmarshalJSON, the unary endpoints' decoder. A malformed or
// rejected record aborts the stream; the error response names the offending
// record index and how many snapshots were ingested before it.
func (s *Server) handleStreamIngest(w http.ResponseWriter, r *http.Request) {
	tp, ok := s.resolve(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(r.Body)
	ingested := 0
	fail := func(code int, rec int, err error) {
		writeJSON(w, code, ErrorResponse{
			Error:    fmt.Sprintf("stream record %d: %v", rec, err),
			Ingested: &ingested,
		})
	}
	for rec := 0; ; rec++ {
		var req IngestRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			fail(http.StatusBadRequest, rec, fmt.Errorf("decode: %w", err))
			return
		}
		ys, err := ingestVectors(req, tp.probes)
		if err != nil {
			fail(http.StatusBadRequest, rec, err)
			return
		}
		if err := tp.eng.IngestBatch(ys); err != nil {
			fail(errorCode(err), rec, err)
			return
		}
		ingested += len(ys)
		tp.httpSnapshots.Add(uint64(len(ys)))
	}
	writeJSON(w, http.StatusOK, StreamIngestResponse{
		Topology:  tp.name,
		Ingested:  ingested,
		Snapshots: tp.eng.Snapshots(),
	})
}

// ingestVectors converts one IngestRequest (inline snapshot or batch) to the
// engine's observation vectors, shared by the unary and streaming ingest
// handlers.
func ingestVectors(req IngestRequest, probes int) ([][]float64, error) {
	single := len(req.Y) > 0 || len(req.Frac) > 0
	if single && len(req.Snapshots) > 0 {
		return nil, errors.New(`use either an inline snapshot or "snapshots", not both`)
	}
	payloads := req.Snapshots
	if single {
		payloads = []SnapshotPayload{req.SnapshotPayload}
	}
	if len(payloads) == 0 {
		return nil, errors.New("no snapshots in request")
	}
	ys := make([][]float64, len(payloads))
	for i, p := range payloads {
		y, err := vector(p, probes)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, err)
		}
		ys[i] = y
	}
	return ys, nil
}
