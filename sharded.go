package lia

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lia/internal/core"
	"lia/internal/topology"
)

// Inferencer is the behavioural surface shared by Engine and ShardedEngine:
// everything a serving layer needs to stream learning data in and query
// estimates out, without caring whether the topology runs as one solver or
// as many. New returns the right implementation for a routing matrix.
type Inferencer interface {
	// RoutingMatrix returns the (global) matrix the engine operates on.
	RoutingMatrix() *RoutingMatrix
	// Snapshots returns the lifetime number of learning snapshots ingested.
	Snapshots() int
	// Threshold returns the effective congestion threshold tl.
	Threshold() float64
	// Ingest folds one learning snapshot of per-path observations.
	Ingest(y []float64) error
	// IngestBatch folds a batch of snapshots atomically.
	IngestBatch(ys [][]float64) error
	// Consume drains a source, ingesting every snapshot it yields.
	Consume(ctx context.Context, src SnapshotSource) (int, error)
	// Infer runs Phase 2 on one observation vector.
	Infer(ctx context.Context, y []float64) (*Result, error)
	// InferCongested runs Infer and classifies links against Threshold.
	InferCongested(ctx context.Context, y []float64) ([]bool, *Result, error)
	// Variances returns the Phase-1 per-link variance estimates.
	Variances(ctx context.Context) ([]float64, error)
	// Steady returns one consistent steady-state learning view.
	Steady(ctx context.Context) (*SteadyState, error)
	// Stats reports observability counters.
	Stats() Stats
}

// Interface conformance, checked at compile time.
var (
	_ Inferencer = (*Engine)(nil)
	_ Inferencer = (*ShardedEngine)(nil)
)

// New returns the appropriate inference engine for the routing matrix: a
// ShardedEngine when WithShards requests more than one shard or when — with
// the default WithShards(0) auto policy — the topology splits into several
// link-disjoint components, and a plain Engine otherwise. WithShards(1)
// forces the single unsharded engine regardless of the topology. With
// WithDurability the chosen engine is additionally wrapped in a
// DurableEngine, recovering any previously persisted state first.
func New(rm *RoutingMatrix, options ...Option) (Inferencer, error) {
	if rm == nil {
		return nil, errors.New("lia: nil routing matrix")
	}
	s := newSettings(options)
	inner, err := newInner(rm, s, options)
	if err != nil {
		return nil, err
	}
	if s.durDir == "" {
		return inner, nil
	}
	return newDurableEngine(inner, s.durDir, s.dur)
}

// newInner picks the plain or sharded implementation for New.
func newInner(rm *RoutingMatrix, s *settings, options []Option) (Inferencer, error) {
	if s.shards < 0 {
		return nil, fmt.Errorf("lia: shard count %d must be non-negative", s.shards)
	}
	if s.shards == 1 {
		return NewEngine(rm, options...)
	}
	part := topology.NewPartition(rm)
	if part.NumComponents() == 1 {
		// One component means the sharded machinery could only add scatter/
		// gather overhead around a single inner engine; the plain Engine is
		// equivalent (bitwise) and strictly cheaper, whatever k was asked.
		return NewEngine(rm, options...)
	}
	return newShardedEngine(rm, part, s, options)
}

// shardComponent is one link-connected component of a sharded engine: an
// inner Engine over the component's own routing matrix plus the index maps
// tying its local rows and columns back to the global ones.
type shardComponent struct {
	eng   *Engine
	paths []int // global path indices (ascending); local row pl = paths[pl]

	// scratch and batchScratch are the scatter buffers for serialized
	// ingestion, reused across calls under the sharded engine's ingest lock
	// (the accumulators copy what they need before Ingest/IngestBatch
	// return). batchScratch grows to the largest batch seen.
	scratch      []float64
	batchScratch []float64
	batchSub     [][]float64
}

// scatterBatch scatters a whole batch into the component's cached batch
// buffers and returns the per-snapshot views. Caller must hold the sharded
// engine's ingest lock.
func (sc *shardComponent) scatterBatch(ys [][]float64) [][]float64 {
	np := len(sc.paths)
	if cap(sc.batchScratch) < len(ys)*np {
		sc.batchScratch = make([]float64, len(ys)*np)
		sc.batchSub = make([][]float64, len(ys))
	}
	sub := sc.batchSub[:0]
	for i, y := range ys {
		sub = append(sub, sc.scatter(y, sc.batchScratch[i*np:(i+1)*np]))
	}
	sc.batchSub = sub
	return sub
}

// scatter copies the component's rows out of a global observation vector
// into dst (allocated when nil) and returns it.
func (sc *shardComponent) scatter(y []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(sc.paths))
	}
	for pl, pg := range sc.paths {
		dst[pl] = y[pg]
	}
	return dst
}

// ShardedEngine runs one inference session over a partitioned routing
// matrix: the topology's link-connected components (see topology.Partition)
// each get their own complete solver — accumulator, cached Phase-1
// Gram/Cholesky factorization and Phase-2 elimination — and the
// components are grouped into shards that rebuild concurrently. Ingested
// snapshots are scattered to the per-component accumulators; Infer,
// Variances and Steady gather the per-component results back into global
// link order.
//
// Phase 1's moment system and Phase 2's elimination never couple paths that
// share no links, so the decomposition is exact: each component's estimates
// are bitwise-identical to a plain Engine run on that component's paths
// alone. The win is superlinear — a component of n paths contributes
// n(n+1)/2 covariance equations, so k equal components cost k·(n/k)² pair
// work instead of n², and the shards rebuild on separate cores on top.
//
// Construct with NewShardedEngine (or New, which picks sharding
// automatically for disconnected topologies). A ShardedEngine is safe for
// concurrent use under the same contract as Engine.
type ShardedEngine struct {
	rm    *RoutingMatrix
	part  *topology.Partition
	comps []*shardComponent
	links [][]int // per component: local virtual link -> global virtual link

	// groups holds the component indices of each concurrent rebuild group:
	// the static LPT grouping of Partition.Shards, fixed at construction.
	groups [][]int

	threshold float64
	window    int
	decay     float64

	mu    sync.Mutex // serialises ingestion so every component sees the same order
	epoch atomic.Uint64
}

// NewShardedEngine creates a sharded engine over the routing matrix,
// partitioning it into link-connected components and grouping them into at
// most WithShards(k) concurrent rebuild groups (k = 0, the default, sizes
// the group count to GOMAXPROCS; the count never exceeds the number of
// components). All other options apply to every per-component solver
// exactly as they would to a plain Engine.
func NewShardedEngine(rm *RoutingMatrix, options ...Option) (*ShardedEngine, error) {
	if rm == nil {
		return nil, errors.New("lia: nil routing matrix")
	}
	s := newSettings(options)
	if s.shards < 0 {
		return nil, fmt.Errorf("lia: shard count %d must be non-negative", s.shards)
	}
	return newShardedEngine(rm, topology.NewPartition(rm), s, options)
}

// newShardedEngine assembles the engine from an already-computed partition
// (New hands over the one it used for the auto-shard decision) and the
// resolved settings; options is re-threaded to the per-component engines.
func newShardedEngine(rm *RoutingMatrix, part *topology.Partition, s *settings, options []Option) (*ShardedEngine, error) {
	k := s.shards
	if k == 0 {
		k = runtime.GOMAXPROCS(0)
	}
	e := &ShardedEngine{
		rm:     rm,
		part:   part,
		comps:  make([]*shardComponent, part.NumComponents()),
		links:  make([][]int, part.NumComponents()),
		groups: part.Shards(k),
	}
	for c := range e.comps {
		sub, links, err := part.ComponentMatrix(c)
		if err != nil {
			return nil, fmt.Errorf("lia: %w", err)
		}
		eng, err := NewEngine(sub, options...)
		if err != nil {
			return nil, err
		}
		e.comps[c] = &shardComponent{
			eng:     eng,
			paths:   part.Component(c).Paths,
			scratch: make([]float64, sub.NumPaths()),
		}
		e.links[c] = links
	}
	e.threshold = e.comps[0].eng.Threshold()
	e.window = e.comps[0].eng.window
	e.decay = e.comps[0].eng.decay
	return e, nil
}

// RoutingMatrix returns the global matrix the engine operates on.
func (e *ShardedEngine) RoutingMatrix() *RoutingMatrix { return e.rm }

// Partition returns the topology decomposition behind the engine.
func (e *ShardedEngine) Partition() *topology.Partition { return e.part }

// NumShards returns the number of concurrent rebuild groups.
func (e *ShardedEngine) NumShards() int { return len(e.groups) }

// NumComponents returns the number of link-connected components.
func (e *ShardedEngine) NumComponents() int { return len(e.comps) }

// Snapshots returns the lifetime number of learning snapshots ingested;
// every snapshot scatters to every component.
func (e *ShardedEngine) Snapshots() int { return int(e.epoch.Load()) }

// Threshold returns the effective congestion threshold tl.
func (e *ShardedEngine) Threshold() float64 { return e.threshold }

// Ingest folds one learning snapshot, scattering its rows to every
// component's accumulator. Safe for concurrent use; concurrent ingests
// serialise so all components observe the same snapshot order.
func (e *ShardedEngine) Ingest(y []float64) error {
	if err := checkDim(e.rm, y); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, sc := range e.comps {
		if err := sc.eng.Ingest(sc.scatter(y, sc.scratch)); err != nil {
			return err // unreachable: dimensions hold by construction
		}
	}
	e.epoch.Add(1)
	return nil
}

// IngestBatch folds a batch of snapshots under one serialisation point. All
// vectors are validated against the global matrix before any is folded, so
// a dimension error leaves every component's moments untouched.
func (e *ShardedEngine) IngestBatch(ys [][]float64) error {
	for i, y := range ys {
		if err := checkDim(e.rm, y); err != nil {
			return fmt.Errorf("lia: batch snapshot %d of %d (0 ingested): %w", i, len(ys), err)
		}
	}
	if len(ys) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, sc := range e.comps {
		if err := sc.eng.IngestBatch(sc.scatterBatch(ys)); err != nil {
			return err // unreachable: dimensions hold by construction
		}
	}
	e.epoch.Add(uint64(len(ys)))
	return nil
}

// Consume pulls snapshots from a source until it is exhausted or the
// context is cancelled, with the same batching semantics as Engine.Consume.
func (e *ShardedEngine) Consume(ctx context.Context, src SnapshotSource) (int, error) {
	return consumeSource(ctx, src, e.rm, e.IngestBatch)
}

// runComponents runs fn for every component, fanning the shards out on
// their own goroutines; components within a shard run sequentially, which
// is what bounds rebuild concurrency at the shard count. The returned
// slice holds each component's error (nil on success) in component-index
// order, deterministically.
func (e *ShardedEngine) runComponents(fn func(c int, sc *shardComponent) error) []error {
	errs := make([]error, len(e.comps))
	if len(e.groups) == 1 {
		for _, c := range e.groups[0] {
			errs[c] = fn(c, e.comps[c])
		}
	} else {
		var wg sync.WaitGroup
		for _, shard := range e.groups {
			wg.Add(1)
			go func(shard []int) {
				defer wg.Done()
				for _, c := range shard {
					errs[c] = fn(c, e.comps[c])
				}
			}(shard)
		}
		wg.Wait()
	}
	return errs
}

// Infer runs Phase 2 on one snapshot of per-path observations: each shard
// solves its components' reduced systems concurrently, then the per-link
// results gather back into global link order (core.MergeResults).
// Eliminated links report 0, exactly as with Engine.Infer. Component
// failures are isolated: a component whose solve fails (one that never
// built a Phase-1 state) marks only its own links Unresolved, and only a
// gather in which every component fails returns an error.
func (e *ShardedEngine) Infer(ctx context.Context, y []float64) (*Result, error) {
	if err := checkDim(e.rm, y); err != nil {
		return nil, err
	}
	results := make([]*Result, len(e.comps))
	errs := e.runComponents(func(c int, sc *shardComponent) error {
		res, err := sc.eng.Infer(ctx, sc.scatter(y, nil))
		results[c] = res
		return err
	})
	return core.MergeResults(ctx, e.rm.NumLinks(), e.links, results, errs)
}

// InferCongested runs Infer and classifies every virtual link against the
// engine's congestion threshold.
func (e *ShardedEngine) InferCongested(ctx context.Context, y []float64) ([]bool, *Result, error) {
	res, err := e.Infer(ctx, y)
	if err != nil {
		return nil, nil, err
	}
	return res.Congested(e.threshold), res, nil
}

// Steady returns the steady-state learning view gathered across all
// components (concurrently per shard), in global link order
// (core.MergeSteady). Per-component fields are mutually consistent; the
// Epoch is the oldest healthy component state in the view. Failed
// components degrade only their own links (zero variances, listed in
// Unresolved — see Infer); only a total failure returns an error.
func (e *ShardedEngine) Steady(ctx context.Context) (*SteadyState, error) {
	parts := make([]*Result, len(e.comps))
	errs := e.runComponents(func(c int, sc *shardComponent) error {
		st, err := sc.eng.Steady(ctx)
		if err == nil {
			parts[c] = &Result{Epoch: st.Epoch, Variances: st.Variances, Kept: st.Kept, Removed: st.Removed}
		}
		return err
	})
	return core.MergeSteady(ctx, e.rm.NumLinks(), e.links, parts, errs)
}

// Variances returns the Phase-1 per-link variance estimates in global link
// order, from the gathered Steady view; a failed component's links report
// zero (see Steady).
func (e *ShardedEngine) Variances(ctx context.Context) ([]float64, error) {
	st, err := e.Steady(ctx)
	if err != nil {
		return nil, err
	}
	return st.Variances, nil
}

// CheckIdentifiable verifies identifiability component by component; the
// whole matrix is identifiable exactly when every component is (the
// augmented matrix is block-diagonal across components).
func (e *ShardedEngine) CheckIdentifiable() error {
	return errors.Join(e.runComponents(func(c int, sc *shardComponent) error {
		if err := sc.eng.CheckIdentifiable(); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		return nil
	})...)
}

// Stats rolls the components' counters up (core.RollUp). The sharded
// engine's own fields: LastRebuild is the slowest component's most recent
// rebuild — the wall-clock floor of a full sharded rebuild — LastError/
// LastFailure carry the most recent component failure, StateAge is the
// stalest served component state. Use ComponentStats for the per-component
// breakdown.
func (e *ShardedEngine) Stats() Stats {
	comps := e.ComponentStats()
	s := core.RollUp(Stats{
		Snapshots:  int(e.epoch.Load()),
		Window:     e.window,
		Decay:      e.decay,
		Shards:     e.NumShards(),
		Components: len(e.comps),
	}, comps)
	for _, cs := range comps {
		if cs.LastFailure.After(s.LastFailure) {
			s.LastFailure, s.LastError = cs.LastFailure, cs.LastError
		}
		s.StateAge = max(s.StateAge, cs.StateAge)
		s.LastRebuild = max(s.LastRebuild, cs.LastRebuild)
	}
	return s
}

// ComponentStats reports each component's own observability counters, in
// component-index order — the per-component breakdown behind the aggregate
// Stats, for pinpointing which component is degraded and how stale its
// served state is.
func (e *ShardedEngine) ComponentStats() []Stats {
	out := make([]Stats, len(e.comps))
	for c, sc := range e.comps {
		out[c] = sc.eng.Stats()
	}
	return out
}
