package core

import (
	"context"
	"errors"
	"slices"
	"sort"
	"time"
)

// The component gather: LIA's two phases never couple link-disjoint paths,
// so a host of several link-connected components (lia.ShardedEngine in
// process, cluster.Fleet across machines) merges their answers below.

// Stats is a point-in-time observability snapshot of a lia engine, the hook
// behind liaserve's /v1/status and /metrics endpoints (lia.Stats). Counters
// are read individually (not under one lock), so a Stats taken during
// concurrent ingestion is approximate to within the in-flight operations.
type Stats struct {
	// Snapshots is the lifetime number of learning snapshots ingested.
	Snapshots int
	// StateEpoch is the ingestion epoch of the cached Phase-1/elimination
	// state served to Infer, or -1 before the first rebuild.
	StateEpoch int
	// EpochLag is Snapshots − StateEpoch: how many ingested snapshots the
	// cached state has not absorbed yet (0 when fully warm).
	EpochLag int
	// Rebuilds counts Phase-1 state recomputations over the engine's life.
	Rebuilds uint64
	// ElimReuses is always 0: every rebuild runs the Phase-2 elimination.
	// The field stays because perfbench reads it.
	ElimReuses uint64
	// LastRebuild is the duration of the most recent rebuild (Phase 1 +
	// elimination); 0 before the first.
	LastRebuild time.Duration
	// RebuildFailures counts rebuilds that errored or panicked over the
	// engine's life (context cancellations are not failures).
	RebuildFailures uint64
	// Degraded reports that the most recent rebuild attempt failed and
	// queries are being served from the last-good state. It clears on the
	// next successful rebuild.
	Degraded bool
	// LastError is the message of the most recent rebuild failure ("" when
	// none has occurred); LastFailure is when it happened.
	LastError   string
	LastFailure time.Time
	// StateAge is how long ago the served Phase-1 state was built — the
	// staleness bound of degraded answers. 0 before the first rebuild.
	StateAge time.Duration
	// Window is the sliding-window length (WithWindow), 0 when cumulative.
	Window int
	// Decay is the per-snapshot decay factor (WithDecay), 0 when unset.
	Decay float64
	// Shards is the number of concurrent rebuild groups of a ShardedEngine
	// (0 for a plain Engine).
	Shards int
	// Components is the number of link-connected topology components a
	// ShardedEngine partitioned its routing matrix into (0 for a plain
	// Engine).
	Components int
	// DegradedComponents counts the components of a ShardedEngine that are
	// currently unhealthy — serving stale state or failing with none built
	// (0 for a plain Engine, where Degraded alone tells the story).
	DegradedComponents int
	// DeltaRebuilds is always 0: every rebuild folds the full Phase-1
	// right-hand side. The field stays because perfbench reads it.
	DeltaRebuilds uint64
	// DirtyComponents counts the healthy components of a sharded host whose
	// served state trails their snapshots (EpochLag > 0) — the components the
	// next gather rebuilds (0 for a plain Engine).
	DirtyComponents int
}

// SteadyState is one consistent view of an engine's cached learning state
// (lia.SteadyState):
// the Phase-1 variances and the Phase-2 partition computed from them, with
// the ingestion epoch they belong to. Every field comes from the same
// internal state — a concurrent ingestion can never mix epochs within it.
type SteadyState struct {
	Epoch         int
	Variances     []float64
	Kept, Removed []int
	// Unresolved lists global virtual links whose owning sharded component
	// failed to produce a state: their variances read zero and they belong
	// to neither Kept nor Removed. Always nil for a plain Engine.
	Unresolved []int
}

// gatherError decides the fate of a failure-tolerant gather from its
// per-component errors: caller cancellation always propagates, and a
// gather where every component failed has nothing to serve, so the joined
// error surfaces (preserving ErrTooFewSnapshots cold-start semantics —
// warm-up is synchronized across components, they all fail together). Any
// other mix of failures degrades only the failing components' links.
func gatherError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if slices.Contains(errs, nil) {
		return nil
	}
	return errors.Join(errs...)
}

// oldestEpoch is the epoch a gathered view represents: the oldest of its
// components' epochs (they only diverge under concurrent ingestion), or -1
// with none.
func oldestEpoch(epochs []int) int {
	if len(epochs) == 0 {
		return -1
	}
	return slices.Min(epochs)
}

// MergeResults gathers per-component answers into one over nc global links.
// parts[c] is component c's answer in its local link order, links[c] maps
// its local links to global ones and errs[c] is its error (parts[c] unread
// when set). A failed component's links read zero, join neither Kept nor
// Removed and are listed in Unresolved; every healthy component's entries
// land bitwise unchanged, and Epoch is the oldest healthy one. LossRates
// and LogRates gather when the parts carry them (a Phase-2 answer). The
// error is gatherError's.
func MergeResults(ctx context.Context, nc int, links [][]int, parts []*Result, errs []error) (*Result, error) {
	if err := gatherError(ctx, errs); err != nil {
		return nil, err
	}
	out := &Result{Variances: make([]float64, nc)}
	var epochs []int
	for c, p := range parts {
		if errs[c] != nil {
			out.Unresolved = append(out.Unresolved, links[c]...)
			continue
		}
		if p.LossRates != nil && out.LossRates == nil {
			out.LossRates, out.LogRates = make([]float64, nc), make([]float64, nc)
		}
		for kl, kg := range links[c] {
			out.Variances[kg] = p.Variances[kl]
			if p.LossRates != nil {
				out.LossRates[kg], out.LogRates[kg] = p.LossRates[kl], p.LogRates[kl]
			}
		}
		for _, kl := range p.Kept {
			out.Kept = append(out.Kept, links[c][kl])
		}
		for _, kl := range p.Removed {
			out.Removed = append(out.Removed, links[c][kl])
		}
		epochs = append(epochs, p.Epoch)
	}
	sort.Ints(out.Kept)
	sort.Ints(out.Removed)
	sort.Ints(out.Unresolved)
	out.Epoch = oldestEpoch(epochs)
	return out, nil
}

// MergeSteady is MergeResults as a steady-state view.
func MergeSteady(ctx context.Context, nc int, links [][]int, parts []*Result, errs []error) (*SteadyState, error) {
	r, err := MergeResults(ctx, nc, links, parts, errs)
	if err != nil {
		return nil, err
	}
	return &SteadyState{Epoch: r.Epoch, Variances: r.Variances, Kept: r.Kept, Removed: r.Removed, Unresolved: r.Unresolved}, nil
}

// Unhealthy is the component health rule of a gathered degradation
// surface: serving stale state after a failed rebuild (Degraded), or
// failing with nothing built yet (failures recorded, no state epoch).
func Unhealthy(cs Stats) bool {
	return cs.Degraded || (cs.StateEpoch < 0 && cs.RebuildFailures > 0)
}

// EpochLag is how many snapshots a state built at stateEpoch has not
// absorbed: all of them before the first build, never negative.
func EpochLag(snapshots, stateEpoch int) int {
	if stateEpoch < 0 {
		return snapshots
	}
	return max(snapshots-stateEpoch, 0)
}

// RollUp folds per-component stats into a host's aggregate s, whose
// Snapshots the host has set: Rebuilds and RebuildFailures sum, StateEpoch
// is the oldest component state (-1 while one has none), DegradedComponents
// counts the Unhealthy components, DirtyComponents the healthy ones with
// EpochLag > 0, Degraded is set while there is an unhealthy one, and
// EpochLag follows. The fields whose meaning depends on the host are left
// as s has them.
func RollUp(s Stats, comps []Stats) Stats {
	epochs := make([]int, len(comps))
	for c, cs := range comps {
		s.Rebuilds += cs.Rebuilds
		s.RebuildFailures += cs.RebuildFailures
		if Unhealthy(cs) {
			s.DegradedComponents++
		} else if cs.EpochLag > 0 {
			s.DirtyComponents++
		}
		epochs[c] = cs.StateEpoch
	}
	s.Degraded = s.DegradedComponents > 0
	s.StateEpoch = oldestEpoch(epochs)
	s.EpochLag = EpochLag(s.Snapshots, s.StateEpoch)
	return s
}
