// Package cluster scales liaserve horizontally: one coordinator process
// places the link-connected components of a routing matrix (lia.Partition)
// across N registered liaserve nodes, scatters every incoming snapshot's
// per-component projection to the owning node over a persistent streaming
// ingest connection, and serves the full single-process API by gathering
// Infer/Steady/Stats across the fleet back into global link order.
//
// The decomposition is the same one lia.ShardedEngine exploits in-process:
// no covariance equation and no elimination decision couples two
// components, so a node running a plain engine per assigned component
// produces estimates bitwise-identical to a single lia.New engine fed the
// same snapshots — the cluster changes where the arithmetic runs, never its
// result. Placement is the deterministic LPT grouping of Partition.Shards
// applied to the node IDs in sorted order, so the same topology and the
// same node set always yield the same placement regardless of join order.
//
// The fleet degrades per component, mirroring ShardedEngine: a dead or
// degraded node marks only its own components' links Unresolved while every
// healthy component's estimates stay bitwise what they would be with no
// failure anywhere. The coordinator supervises one ingest stream and one
// epoch-watch stream per node, reconnecting with exponential backoff; a
// node that rejoins (same ID, any address) is re-assigned its components
// and resumes from the snapshots that arrive after it returns.
//
// Wire protocol (HTTP JSON + NDJSON streaming, dependency-free):
//
//	POST /cluster/v1/register   node -> coordinator: join the fleet
//	POST /cluster/v1/assign     coordinator -> node: component placement
//	POST /cluster/v1/ingest     coordinator -> node: NDJSON snapshot stream
//	POST /cluster/v1/infer      coordinator -> node: Phase-2 solve (scatter y)
//	GET  /cluster/v1/steady     coordinator -> node: steady-state gather
//	GET  /cluster/v1/stats      coordinator -> node: per-component counters
//	GET  /cluster/v1/watch      coordinator -> node: NDJSON epoch push stream
//
// Every payload is JSON; floats round-trip bit-exactly through Go's
// shortest-representation encoding, which is what makes gathered estimates
// bitwise-comparable to local ones.
package cluster

import (
	"errors"
	"fmt"

	"lia"
)

// PathDoc is one measurement path on the wire (the liainfer topology
// document schema).
type PathDoc struct {
	Beacon int   `json:"beacon"`
	Dst    int   `json:"dst"`
	Links  []int `json:"links"`
}

// EngineOptions is the wire form of the lia engine options a coordinator
// propagates to its nodes, so every per-component solver in the fleet is
// configured exactly like the single-process engine it must match bitwise.
type EngineOptions struct {
	// Strategy selects the Phase-2 elimination: "paper" (default) or
	// "greedy".
	Strategy string `json:"strategy,omitempty"`
	// Threshold is the congestion threshold tl; honored (verbatim,
	// including 0) only when ThresholdSet is true.
	Threshold    float64 `json:"threshold,omitempty"`
	ThresholdSet bool    `json:"threshold_set,omitempty"`
	// Window / Decay select windowed or decayed moments (0 = cumulative).
	Window int     `json:"window,omitempty"`
	Decay  float64 `json:"decay,omitempty"`
	// Workers bounds each solver's Phase-1/Phase-2 goroutines (0 =
	// GOMAXPROCS on the node).
	Workers int `json:"workers,omitempty"`
}

// Options converts the wire form into lia engine options.
func (o EngineOptions) Options() ([]lia.Option, error) {
	var opts []lia.Option
	switch o.Strategy {
	case "", "paper":
	case "greedy":
		opts = append(opts, lia.WithStrategy(lia.StrategyGreedyBasis))
	default:
		return nil, fmt.Errorf("cluster: unknown elimination strategy %q", o.Strategy)
	}
	if o.ThresholdSet {
		opts = append(opts, lia.WithThreshold(o.Threshold))
	}
	if o.Window > 0 {
		opts = append(opts, lia.WithWindow(o.Window))
	}
	if o.Decay > 0 {
		opts = append(opts, lia.WithDecay(o.Decay))
	}
	if o.Workers > 0 {
		opts = append(opts, lia.WithWorkers(o.Workers))
	}
	return opts, nil
}

// Threshold returns the effective congestion threshold the options select.
func (o EngineOptions) threshold() float64 {
	if o.ThresholdSet {
		return o.Threshold
	}
	return lia.DefaultThreshold
}

// RegisterRequest is the body of POST /cluster/v1/register: a node
// announcing itself to the coordinator. URL is the node's advertised base
// URL (scheme://host:port) the coordinator dials back.
type RegisterRequest struct {
	NodeID string `json:"node_id"`
	URL    string `json:"url"`
}

// RegisterResponse acknowledges a registration: how many nodes have joined
// of the expected fleet size, and whether placement has happened (a node
// whose registration completes the fleet sees placed=true; its assignment
// arrives as a callback to POST /cluster/v1/assign).
type RegisterResponse struct {
	NodeID string `json:"node_id"`
	Nodes  int    `json:"nodes"`
	Size   int    `json:"size"`
	Placed bool   `json:"placed"`
}

// ComponentAssignment is one link-connected component handed to a node: its
// global component index, the component's paths (global row order
// preserved — the node rebuilds the exact reduced matrix the coordinator's
// Partition.ComponentMatrix validated), and the global virtual-link indices
// its local links map back to, for observability.
type ComponentAssignment struct {
	Component int       `json:"component"`
	Links     []int     `json:"links"`
	Paths     []PathDoc `json:"paths"`
}

// AssignRequest is the body of POST /cluster/v1/assign: the coordinator
// pushing a node its component placement. Assignment is a monotonically
// increasing generation; a node discards state from older generations, and
// the ingest stream carries the generation so snapshots can never fold into
// a stale placement.
type AssignRequest struct {
	NodeID     string                `json:"node_id"`
	Assignment uint64                `json:"assignment"`
	Options    EngineOptions         `json:"options"`
	Components []ComponentAssignment `json:"components"`
}

// AssignResponse acknowledges an assignment.
type AssignResponse struct {
	NodeID     string `json:"node_id"`
	Assignment uint64 `json:"assignment"`
	Components int    `json:"components"`
	Paths      int    `json:"paths"`
}

// ingestLine is one record of the POST /cluster/v1/ingest NDJSON stream:
// a batch of snapshots, each already projected to the node's local path
// order (the concatenation of its assigned components' paths).
type ingestLine struct {
	Ys [][]float64 `json:"ys"`
}

// IngestSummary is the terminal response of one ingest stream.
type IngestSummary struct {
	NodeID string `json:"node_id"`
	// Ingested is the number of snapshots this stream folded in.
	Ingested int `json:"ingested"`
	// Snapshots is the node's lifetime count afterwards.
	Snapshots int `json:"snapshots"`
}

// InferRequest is the body of POST /cluster/v1/infer: one observation
// vector in the node's local path order.
type InferRequest struct {
	Y []float64 `json:"y"`
}

// ComponentResult is one component's slice of a gathered response, in the
// component's local link order (the coordinator owns the local->global
// map). A failing component reports Error/ErrorCode instead of values.
type ComponentResult struct {
	Component int       `json:"component"`
	Epoch     int       `json:"epoch"`
	LossRates []float64 `json:"loss_rates,omitempty"`
	LogRates  []float64 `json:"log_rates,omitempty"`
	Variances []float64 `json:"variances,omitempty"`
	Kept      []int     `json:"kept,omitempty"`
	Removed   []int     `json:"removed,omitempty"`
	Error     string    `json:"error,omitempty"`
	ErrorCode string    `json:"error_code,omitempty"`
}

// GatherResponse is the body of /cluster/v1/infer and /cluster/v1/steady:
// every assigned component's result (or error), plus the node's snapshot
// count.
type GatherResponse struct {
	NodeID     string            `json:"node_id"`
	Assignment uint64            `json:"assignment"`
	Snapshots  int               `json:"snapshots"`
	Components []ComponentResult `json:"components"`
}

// ComponentState is one component's learning state in a NodeEvent or stats
// response.
type ComponentState struct {
	Component       int    `json:"component"`
	Snapshots       int    `json:"snapshots"`
	StateEpoch      int    `json:"state_epoch"`
	Rebuilds        uint64 `json:"rebuilds"`
	RebuildFailures uint64 `json:"rebuild_failures,omitempty"`
	Degraded        bool   `json:"degraded,omitempty"`
	LastError       string `json:"last_error,omitempty"`
}

// NodeEvent is one NDJSON line of GET /cluster/v1/watch (and the body of
// GET /cluster/v1/stats, with type "stats"): the node's epoch state. The
// coordinator tails this stream per node to know when gathered state is
// fresh without polling; StateEpoch is the oldest component state the node
// serves (-1 before every component rebuilt once).
type NodeEvent struct {
	Type       string `json:"type"` // "epoch", "heartbeat" or "stats"
	NodeID     string `json:"node_id"`
	Assignment uint64 `json:"assignment"`
	Snapshots  int    `json:"snapshots"`
	StateEpoch int    `json:"state_epoch"`
	Degraded   bool   `json:"degraded"`
	// DirtyComponents counts this node's healthy components with snapshots
	// their served state has not absorbed yet — the components the next
	// gather rebuilds (core.RollUp).
	DirtyComponents int              `json:"dirty_components,omitempty"`
	Components      []ComponentState `json:"components,omitempty"`
}

// ErrorResponse is the body of every non-2xx cluster-protocol response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Sentinel wire codes: component and protocol errors carry the lia sentinel
// identity across HTTP so the coordinator can rebuild errors.Is-compatible
// chains on its side.
const (
	codeTooFewSnapshots   = "too_few_snapshots"
	codeDimensionMismatch = "dimension_mismatch"
	codeRebuildFailed     = "rebuild_failed"
	codeUnidentifiable    = "unidentifiable"
	codeStaleAssignment   = "stale_assignment"
	codeNotAssigned       = "not_assigned"
)

// wireCode maps an error to its sentinel wire code ("" when none applies).
func wireCode(err error) string {
	switch {
	case errors.Is(err, lia.ErrTooFewSnapshots):
		return codeTooFewSnapshots
	case errors.Is(err, lia.ErrDimensionMismatch):
		return codeDimensionMismatch
	case errors.Is(err, lia.ErrRebuildFailed):
		return codeRebuildFailed
	case errors.Is(err, lia.ErrUnidentifiable):
		return codeUnidentifiable
	}
	return ""
}

// sentinelFor reverses wireCode.
func sentinelFor(code string) error {
	switch code {
	case codeTooFewSnapshots, codeNotAssigned:
		// An unassigned node is a fleet that has not warmed up yet: callers
		// should retry after placement, exactly like pre-learning queries.
		return lia.ErrTooFewSnapshots
	case codeDimensionMismatch:
		return lia.ErrDimensionMismatch
	case codeRebuildFailed:
		return lia.ErrRebuildFailed
	case codeUnidentifiable:
		return lia.ErrUnidentifiable
	}
	return nil
}

// wireError is a remote error rebuilt on the coordinator side with its
// sentinel identity intact.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeError rebuilds a remote error from its wire form; nil when the wire
// carried no error.
func decodeError(msg, code string) error {
	if msg == "" {
		return nil
	}
	return &wireError{msg: msg, sentinel: sentinelFor(code)}
}
