package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lia"
)

// SnapshotPayload is one snapshot in the ingest/infer request bodies:
// either "y" (observation vector, e.g. log transmission rates — ingested
// as-is) or "frac" (per-path received fractions, converted with
// lia.LogRates using "probes" or the topology's configured probe count).
type SnapshotPayload struct {
	Y      []float64 `json:"y,omitempty"`
	Frac   []float64 `json:"frac,omitempty"`
	Probes int       `json:"probes,omitempty"`
}

// IngestRequest is the body of POST /v1/snapshots: a single snapshot
// (inline "y"/"frac") or a batch under "snapshots". A batch is atomic —
// either every snapshot folds in or none does.
type IngestRequest struct {
	SnapshotPayload
	Snapshots []SnapshotPayload `json:"snapshots,omitempty"`
}

// IngestResponse reports an accepted ingestion.
type IngestResponse struct {
	Topology string `json:"topology"`
	// Ingested is the number of snapshots folded in by this request.
	Ingested int `json:"ingested"`
	// Snapshots is the engine's lifetime snapshot count afterwards.
	Snapshots int `json:"snapshots"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Ingested, on ingest failures, is how many snapshots of the request
	// were folded in before the failure (always 0: batches are atomic).
	Ingested *int `json:"ingested,omitempty"`
}

// LinkResult is one virtual link's inference in an InferResponse.
// Unresolved marks a link whose owning sharded component failed to produce
// estimates — its values read zero and it is neither kept nor removed.
type LinkResult struct {
	Members    []int   `json:"members"`
	LossRate   float64 `json:"loss_rate"`
	Variance   float64 `json:"variance"`
	Kept       bool    `json:"kept"`
	Congested  bool    `json:"congested"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

// InferResponse is the body of POST /v1/infer. Unresolved counts links
// whose sharded component is failing (0 in healthy operation).
type InferResponse struct {
	Topology   string       `json:"topology"`
	Epoch      int          `json:"epoch"`
	Kept       int          `json:"kept"`
	Removed    int          `json:"removed"`
	Unresolved int          `json:"unresolved,omitempty"`
	Threshold  float64      `json:"threshold"`
	Links      []LinkResult `json:"links"`
}

// LinkState is one virtual link's steady-state learning summary.
type LinkState struct {
	Members    []int   `json:"members"`
	Variance   float64 `json:"variance"`
	Kept       bool    `json:"kept"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

// LinksResponse is the body of GET /v1/links: the Phase-1 estimates and
// elimination partition of the current epoch cache. Unresolved counts
// links whose sharded component is failing (0 in healthy operation).
type LinksResponse struct {
	Topology   string      `json:"topology"`
	Epoch      int         `json:"epoch"`
	Snapshots  int         `json:"snapshots"`
	Unresolved int         `json:"unresolved,omitempty"`
	Links      []LinkState `json:"links"`
}

// SourceStatus is one background source's supervision record in a
// TopoStatus: its consumption state, restart count, quarantine counter and
// last error (empty when it never failed).
type SourceStatus struct {
	State       string `json:"state"`
	Restarts    uint64 `json:"restarts"`
	Quarantined uint64 `json:"quarantined"`
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
}

// DurabilityStatus is the durability block of a TopoStatus, present only
// for engines persisting state (lia.WithDurability). It mirrors
// lia.DurabilityStats: the recovery that happened at boot and the
// WAL/checkpoint activity since.
type DurabilityStatus struct {
	Dir                string  `json:"dir"`
	SyncPolicy         string  `json:"sync_policy"`
	Checkpoints        uint64  `json:"checkpoints"`
	CheckpointEpoch    uint64  `json:"checkpoint_epoch"`
	LastCheckpointMs   float64 `json:"last_checkpoint_ms"`
	LastCheckpointAt   string  `json:"last_checkpoint_at,omitempty"`
	WALBytes           int64   `json:"wal_bytes"`
	WALRecords         uint64  `json:"wal_records"`
	WALSegments        int     `json:"wal_segments"`
	RecoveredEpoch     uint64  `json:"recovered_epoch"`
	ReplayedSnapshots  int     `json:"recovery_replayed_snapshots"`
	CorruptCheckpoints int     `json:"corrupt_checkpoints"`
}

// TopoStatus is one topology's entry in a StatusResponse. The degradation
// block (Degraded through StateAgeMs) mirrors lia.Stats: a degraded
// topology is still serving, from the last-good epoch, while rebuilds fail.
type TopoStatus struct {
	Paths         int     `json:"paths"`
	Links         int     `json:"links"`
	Snapshots     int     `json:"snapshots"`
	StateEpoch    int     `json:"state_epoch"`
	EpochLag      int     `json:"epoch_lag"`
	Rebuilds      uint64  `json:"rebuilds"`
	LastRebuildMs float64 `json:"last_rebuild_ms"`

	// DirtyComponents mirrors lia.Stats: the healthy components of a
	// sharded engine that the next gather rebuilds.
	DirtyComponents int `json:"dirty_components,omitempty"`

	Degraded           bool    `json:"degraded"`
	DegradedComponents int     `json:"degraded_components,omitempty"`
	RebuildFailures    uint64  `json:"rebuild_failures"`
	LastError          string  `json:"last_error,omitempty"`
	LastFailure        string  `json:"last_failure,omitempty"`
	StateAgeMs         float64 `json:"state_age_ms"`

	Shards          int            `json:"shards"`
	Components      int            `json:"components"`
	Window          int            `json:"window"`
	Decay           float64        `json:"decay"`
	Threshold       float64        `json:"threshold"`
	Probes          int            `json:"probes"`
	Sources         int            `json:"sources"`
	SourceRestarts  uint64         `json:"source_restarts"`
	Quarantined     uint64         `json:"quarantined"`
	SourceDetail    []SourceStatus `json:"source_detail,omitempty"`
	HTTPSnapshots   uint64         `json:"http_snapshots"`
	SourceSnapshots uint64         `json:"source_snapshots"`
	Inferences      uint64         `json:"inferences"`

	// Durability is present only when the topology's engine persists its
	// state (lia.WithDurability); plain engines omit the block.
	Durability *DurabilityStatus `json:"durability,omitempty"`
}

// StatusResponse is the body of GET /v1/status.
type StatusResponse struct {
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Default         string  `json:"default"`
	RebuildEvery    int     `json:"rebuild_every"`
	RebuildInterval string  `json:"rebuild_interval"`
	// Shards is the configured server-wide shard policy (Config.Shards:
	// 0 = auto, 1 = unsharded, k = up to k shards); each topology reports
	// its actual shard and component counts.
	Shards     int                   `json:"shards"`
	Topologies map[string]TopoStatus `json:"topologies"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status     string `json:"status"`
	Topologies int    `json:"topologies"`
}

// ReadyResponse is the body of GET /readyz: 200 when every topology has a
// built state, no engine is degraded and no source is in failure backoff;
// 503 otherwise, with the violations listed in Reasons. Liveness
// (/healthz) stays 200 either way — a degraded server is up, just not
// fully serving fresh state.
type ReadyResponse struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// Handler builds the HTTP API over the registered topologies. The handler
// is safe for concurrent use and may be mounted before or while Run is
// active.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/snapshots", s.handleIngest)
	mux.HandleFunc("POST /v1/snapshots/stream", s.handleStreamIngest)
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/links", s.handleLinks)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("POST /v1/topologies/{topo}/snapshots", s.handleIngest)
	mux.HandleFunc("POST /v1/topologies/{topo}/snapshots/stream", s.handleStreamIngest)
	mux.HandleFunc("POST /v1/topologies/{topo}/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/topologies/{topo}/links", s.handleLinks)
	mux.HandleFunc("GET /v1/topologies/{topo}/watch", s.handleWatch)
	return mux
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError maps an error to a status code and the ErrorResponse body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// errorCode classifies engine errors for HTTP: client payload problems are
// 400s, not-learned-yet is 409 (retry after more snapshots), a rebuild
// failure with nothing to serve is 503 (the service is unavailable until
// healthier data arrives), the rest 500.
func errorCode(err error) int {
	switch {
	case errors.Is(err, lia.ErrDimensionMismatch):
		return http.StatusBadRequest
	case errors.Is(err, lia.ErrTooFewSnapshots):
		return http.StatusConflict
	case errors.Is(err, lia.ErrRebuildFailed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// resolve extracts the addressed topology, writing the 404 itself when the
// name is unknown.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*topo, bool) {
	tp, err := s.lookup(r.PathValue("topo"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return tp, true
}

// vector converts one snapshot payload to the engine's observation vector.
func (tp *topo) vector(p SnapshotPayload) ([]float64, error) {
	switch {
	case len(p.Y) > 0 && len(p.Frac) > 0:
		return nil, errors.New(`"y" and "frac" are mutually exclusive`)
	case len(p.Y) > 0:
		return p.Y, nil
	case len(p.Frac) > 0:
		probes := p.Probes
		if probes <= 0 {
			probes = tp.probes
		}
		return lia.LogRates(p.Frac, probes), nil
	default:
		return nil, errors.New(`snapshot needs "y" or "frac"`)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Topologies: len(s.names())})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready, reasons := s.readiness()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "degraded", Reasons: reasons})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Status: "ok"})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	tp, ok := s.resolve(w, r)
	if !ok {
		return
	}
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	ys, err := tp.ingestVectors(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := tp.eng.IngestBatch(ys); err != nil {
		zero := 0
		writeJSON(w, errorCode(err), ErrorResponse{Error: err.Error(), Ingested: &zero})
		return
	}
	tp.httpSnapshots.Add(uint64(len(ys)))
	writeJSON(w, http.StatusOK, IngestResponse{
		Topology:  tp.name,
		Ingested:  len(ys),
		Snapshots: tp.eng.Snapshots(),
	})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	tp, ok := s.resolve(w, r)
	if !ok {
		return
	}
	var req SnapshotPayload
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	y, err := tp.vector(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	congested, res, err := tp.eng.InferCongested(r.Context(), y)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	tp.inferences.Add(1)
	rm := tp.eng.RoutingMatrix()
	kept, unresolved := linkMask(rm, res.Kept), linkMask(rm, res.Unresolved)
	out := InferResponse{
		Topology:   tp.name,
		Epoch:      res.Epoch,
		Kept:       len(res.Kept),
		Removed:    len(res.Removed),
		Unresolved: len(res.Unresolved),
		Threshold:  tp.eng.Threshold(),
		Links:      make([]LinkResult, rm.NumLinks()),
	}
	for k := 0; k < rm.NumLinks(); k++ {
		out.Links[k] = LinkResult{
			Members:    rm.Members(k),
			LossRate:   res.LossRates[k],
			Variance:   res.Variances[k],
			Kept:       kept[k],
			Congested:  congested[k],
			Unresolved: unresolved[k],
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// linkMask marks the listed virtual links of rm.
func linkMask(rm *lia.RoutingMatrix, links []int) []bool {
	mask := make([]bool, rm.NumLinks())
	for _, k := range links {
		mask[k] = true
	}
	return mask
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	tp, ok := s.resolve(w, r)
	if !ok {
		return
	}
	// One consistent state read: variances, partition and epoch can never
	// mix epochs, even under concurrent ingestion.
	st, err := tp.eng.Steady(r.Context())
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	rm := tp.eng.RoutingMatrix()
	kept, unresolved := linkMask(rm, st.Kept), linkMask(rm, st.Unresolved)
	out := LinksResponse{
		Topology:   tp.name,
		Epoch:      st.Epoch,
		Snapshots:  tp.eng.Snapshots(),
		Unresolved: len(st.Unresolved),
		Links:      make([]LinkState, rm.NumLinks()),
	}
	for k := 0; k < rm.NumLinks(); k++ {
		out.Links[k] = LinkState{
			Members:    rm.Members(k),
			Variance:   st.Variances[k],
			Kept:       kept[k],
			Unresolved: unresolved[k],
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	names := s.names()
	out := StatusResponse{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		RebuildEvery:    s.cfg.RebuildEvery,
		RebuildInterval: s.cfg.RebuildInterval.String(),
		Shards:          s.cfg.Shards,
		Topologies:      make(map[string]TopoStatus, len(names)),
	}
	if len(names) > 0 {
		out.Default = names[0]
	}
	for _, name := range names {
		tp, err := s.lookup(name)
		if err != nil {
			continue
		}
		st := tp.eng.Stats()
		rm := tp.eng.RoutingMatrix()
		ts := TopoStatus{
			Paths:         rm.NumPaths(),
			Links:         rm.NumLinks(),
			Snapshots:     st.Snapshots,
			StateEpoch:    st.StateEpoch,
			EpochLag:      st.EpochLag,
			Rebuilds:      st.Rebuilds,
			LastRebuildMs: float64(st.LastRebuild) / float64(time.Millisecond),

			DirtyComponents: st.DirtyComponents,

			Degraded:           st.Degraded,
			DegradedComponents: st.DegradedComponents,
			RebuildFailures:    st.RebuildFailures,
			LastError:          st.LastError,
			StateAgeMs:         float64(st.StateAge) / float64(time.Millisecond),

			Shards:          st.Shards,
			Components:      st.Components,
			Window:          st.Window,
			Decay:           st.Decay,
			Threshold:       tp.eng.Threshold(),
			Probes:          tp.probes,
			Sources:         len(tp.sources),
			SourceRestarts:  tp.sourceRestarts(),
			Quarantined:     tp.quarantined(),
			HTTPSnapshots:   tp.httpSnapshots.Load(),
			SourceSnapshots: tp.sourceSnapshots.Load(),
			Inferences:      tp.inferences.Load(),
		}
		if !st.LastFailure.IsZero() {
			ts.LastFailure = st.LastFailure.UTC().Format(time.RFC3339Nano)
		}
		if dst, ok := tp.eng.(durabilityStatser); ok {
			ds := dst.DurabilityStats()
			dur := &DurabilityStatus{
				Dir:                ds.Dir,
				SyncPolicy:         ds.SyncPolicy,
				Checkpoints:        ds.Checkpoints,
				CheckpointEpoch:    ds.CheckpointEpoch,
				LastCheckpointMs:   float64(ds.LastCheckpoint) / float64(time.Millisecond),
				WALBytes:           ds.WALBytes,
				WALRecords:         ds.WALRecords,
				WALSegments:        ds.WALSegments,
				RecoveredEpoch:     ds.RecoveredEpoch,
				ReplayedSnapshots:  ds.ReplayedSnapshots,
				CorruptCheckpoints: ds.CorruptCheckpoints,
			}
			if !ds.LastCheckpointAt.IsZero() {
				dur.LastCheckpointAt = ds.LastCheckpointAt.UTC().Format(time.RFC3339Nano)
			}
			ts.Durability = dur
		}
		for _, ss := range tp.sources {
			state, lastErr, lastErrAt := ss.health()
			det := SourceStatus{
				State:       state,
				Restarts:    ss.restarts.Load(),
				Quarantined: ss.sanitizer.Stats().Quarantined,
				LastError:   lastErr,
			}
			if !lastErrAt.IsZero() {
				det.LastErrorAt = lastErrAt.UTC().Format(time.RFC3339Nano)
			}
			ts.SourceDetail = append(ts.SourceDetail, det)
		}
		out.Topologies[name] = ts
	}
	writeJSON(w, http.StatusOK, out)
}
