package lia

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lia/internal/core"
	"lia/internal/stats"
)

// Engine is a concurrency-safe inference session over one routing matrix.
//
// Learning snapshots stream in through Ingest / IngestBatch / Consume;
// inferences run through Infer. Internally the engine keys a cached
// state (the Phase-1 link variances and the Phase-2 kept/removed partition)
// by an ingestion epoch — the number of snapshots folded in. Infer loads the
// cache with two atomic reads; only the first inference after new learning
// data recomputes it, and concurrent inferences behind that rebuild
// single-flight on one recompute. Ingestion itself serialises on a short
// lock around the streaming moment fold, never on a solve: the rebuild
// snapshots the frozen covariance view under the lock and solves on that.
//
// Rebuilds are incremental: under the default clamp (and the keep)
// negative-covariance policy the Gram matrix of the Phase-1 normal
// equations depends only on the topology, so its Cholesky factorization is
// computed once and every later rebuild pays only the right-hand-side fold
// plus two triangular solves — with results bit-identical to a from-scratch
// solve (see core.Phase1).
//
// By default the moments are cumulative over all ingested history; the
// WithWindow and WithDecay options switch to sliding-window or
// exponentially-decayed moments so long-running engines track regime
// changes.
//
// Rebuilds are also the engine's degraded-mode boundary: a rebuild that
// fails (an unidentifiable windowed regime under NegDrop, say) or panics
// does not take queries down with it. Once at least one state has been
// built, Infer/Steady/Variances keep serving that last-good epoch while
// every later query retries the rebuild; Stats reports the degradation
// (Degraded, RebuildFailures, LastError, StateAge). Only an engine that
// has never built a state surfaces the failure, wrapped in
// ErrRebuildFailed.
//
// Construct with NewEngine; the zero value is not usable.
type Engine struct {
	rm   *RoutingMatrix
	opts core.Options
	p1   *core.Phase1

	// window and decay record the moment configuration (WithWindow /
	// WithDecay) for observability; the acc itself enforces it.
	window int
	decay  float64

	mu    sync.Mutex // guards acc and the epoch advance
	acc   stats.MomentAccumulator
	epoch atomic.Uint64 // lifetime snapshots ingested; published by Ingest

	rebuildMu sync.Mutex // single-flights state rebuilds
	state     atomic.Pointer[phaseState]

	// restoredAt is the unix-nano wall time the last-rebuilt state of a
	// checkpointed engine was built, installed by RestoreFrom so StateAge
	// reports continuity across a restart instead of resetting to boot time
	// (0 = never restored). It is consulted only until the first
	// post-restore rebuild publishes a state of its own.
	restoredAt atomic.Int64

	// Observability counters, read by Stats (and liaserve's /v1/status and
	// /metrics endpoints).
	rebuilds        atomic.Uint64
	lastRebuildNano atomic.Int64
	rebuildFailures atomic.Uint64
	degraded        atomic.Bool // serving last-good after a rebuild failure
	lastFailure     atomic.Pointer[rebuildFailure]
}

// rebuildFailure records one failed rebuild for observability.
type rebuildFailure struct {
	err   error
	at    time.Time
	epoch uint64 // ingestion epoch the failed rebuild targeted
}

// phaseState is one immutable Phase-1 result: everything Phase 2 needs that
// depends only on the learning data.
type phaseState struct {
	epoch         uint64 // ingestion epoch the state was computed at
	builtAt       time.Time
	vars          []float64
	kept, removed []int
}

// NewEngine creates an engine over the reduced routing matrix.
func NewEngine(rm *RoutingMatrix, options ...Option) (*Engine, error) {
	if rm == nil {
		return nil, errors.New("lia: nil routing matrix")
	}
	var s settings
	for _, o := range options {
		o(&s)
	}
	acc, err := s.newAccumulator(rm.NumPaths())
	if err != nil {
		return nil, err
	}
	return &Engine{
		rm:     rm,
		opts:   s.opts,
		p1:     core.NewPhase1(rm, s.opts.Variance),
		window: s.window,
		decay:  s.effectiveDecay(),
		acc:    acc,
	}, nil
}

// RoutingMatrix returns the matrix the engine operates on.
func (e *Engine) RoutingMatrix() *RoutingMatrix { return e.rm }

// Snapshots returns the number of learning snapshots ingested over the
// engine's lifetime. With WithWindow the moments cover at most the window's
// worth of these; the count still advances per ingest.
func (e *Engine) Snapshots() int { return int(e.epoch.Load()) }

// Threshold returns the effective congestion threshold tl: the value given
// to WithThreshold (honored verbatim, including 0), or DefaultThreshold.
func (e *Engine) Threshold() float64 { return e.opts.EffectiveThreshold() }

// Ingest folds one learning snapshot of per-path observations into the
// second-order moments (§5.1, eq. 7). Safe for concurrent use with other
// Ingest and Infer calls.
func (e *Engine) Ingest(y []float64) error {
	if err := checkDim(e.rm, y); err != nil {
		return err
	}
	e.mu.Lock()
	e.acc.Add(y)
	e.epoch.Add(1)
	e.mu.Unlock()
	return nil
}

// IngestBatch folds a batch of learning snapshots under one lock
// acquisition. All vectors are validated before any is folded, so a
// dimension error leaves the moments untouched — the error names the
// offending batch index and reports zero snapshots ingested.
func (e *Engine) IngestBatch(ys [][]float64) error {
	for i, y := range ys {
		if err := checkDim(e.rm, y); err != nil {
			return fmt.Errorf("lia: batch snapshot %d of %d (0 ingested): %w", i, len(ys), err)
		}
	}
	e.mu.Lock()
	for _, y := range ys {
		e.acc.Add(y)
	}
	e.epoch.Add(uint64(len(ys)))
	e.mu.Unlock()
	return nil
}

// consumeBatch is how many snapshots Consume buffers between IngestBatch
// folds: large enough that a high-rate source stops serialising on
// per-snapshot lock acquisition, small enough that snapshots become visible
// to concurrent inferences with little delay.
const consumeBatch = 64

// Consume pulls snapshots from a source until it is exhausted (io.EOF) or
// the context is cancelled, ingesting each. It returns the number of
// snapshots ingested.
//
// Snapshots are drained into an internal buffer and folded via IngestBatch
// in batches of up to 64, so a high-rate source takes the ingest lock once
// per batch instead of once per snapshot. Each snapshot is copied into the
// buffer, so — exactly as with a per-snapshot Ingest loop — the source may
// reuse its Y backing array across Next calls. Buffered snapshots become
// visible to concurrent Infer calls at batch boundaries (and on EOF, error,
// or cancellation, when the remainder is always flushed); the fold order is
// exactly the source order, so results are identical to a per-snapshot
// Ingest loop.
func (e *Engine) Consume(ctx context.Context, src SnapshotSource) (int, error) {
	return consumeSource(ctx, src, e.rm, e.IngestBatch)
}

// consumeSource is the shared Consume loop behind Engine and ShardedEngine:
// drain src into batches of up to consumeBatch snapshots and fold each batch
// through ingestBatch.
func consumeSource(ctx context.Context, src SnapshotSource, rm *RoutingMatrix, ingestBatch func([][]float64) error) (int, error) {
	n := 0
	np := rm.NumPaths()
	// One backing array, reused across batches: IngestBatch copies the
	// vectors into the moments before returning, so the slots are free for
	// the next batch as soon as flush returns.
	backing := make([]float64, consumeBatch*np)
	buf := make([][]float64, 0, consumeBatch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := ingestBatch(buf); err != nil {
			return err
		}
		n += len(buf)
		buf = buf[:0]
		return nil
	}
	for {
		snap, err := src.Next(ctx)
		if err != nil {
			ferr := flush()
			if errors.Is(err, io.EOF) {
				return n, ferr
			}
			return n, err
		}
		// Validate before buffering so one bad snapshot cannot poison the
		// whole batch: the valid prefix is flushed, then the error surfaces
		// with the same count a per-snapshot loop would report.
		if err := checkDim(rm, snap.Y); err != nil {
			if ferr := flush(); ferr != nil {
				return n, ferr
			}
			return n, err
		}
		slot := backing[len(buf)*np : (len(buf)+1)*np]
		copy(slot, snap.Y)
		buf = append(buf, slot)
		if len(buf) == consumeBatch {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// currentState returns the Phase-1 state for the latest ingestion epoch,
// recomputing it if learning data arrived since the last rebuild. Callers
// racing a rebuild single-flight behind one solver. The recompute snapshots
// only the frozen covariance view the right-hand-side fold needs (not the
// whole accumulator) and reuses the cached Gram factorization whenever the
// options allow.
//
// A failed (or panicking) rebuild does not fail the query when a
// previously built state exists: the engine flags itself degraded, records
// the failure for Stats, and serves the last-good state. The next query at
// a newer epoch retries the rebuild, so a transient bad regime self-heals.
// Context cancellation is the caller's deadline, not a data problem — it
// propagates without touching the failure counters.
func (e *Engine) currentState(ctx context.Context) (*phaseState, error) {
	if st := e.state.Load(); st != nil && st.epoch == e.epoch.Load() {
		return st, nil
	}
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	if st := e.state.Load(); st != nil && st.epoch == e.epoch.Load() {
		return st, nil // a racing caller rebuilt while we waited
	}
	st, epoch, err := e.rebuild(ctx)
	if err != nil {
		// Cancellation is the caller's deadline and warm-up is not a
		// failure: both pass through untouched (and unrecorded), keeping
		// cold-start semantics — ErrTooFewSnapshots until two snapshots
		// arrive — exactly as before degraded mode existed.
		if ctx.Err() != nil || errors.Is(err, ErrTooFewSnapshots) {
			return nil, err
		}
		e.rebuildFailures.Add(1)
		e.lastFailure.Store(&rebuildFailure{err: err, at: time.Now(), epoch: epoch})
		if prev := e.state.Load(); prev != nil {
			e.degraded.Store(true)
			return prev, nil
		}
		return nil, fmt.Errorf("lia: rebuild at epoch %d: %w: %w", epoch, ErrRebuildFailed, err)
	}
	e.degraded.Store(false)
	e.state.Store(st)
	return st, nil
}

// rebuildPanicHook, when non-nil, runs at the top of every rebuild. It
// exists so tests can prove the recover path; production never sets it.
var rebuildPanicHook func()

// rebuild computes the phase state for the current ingestion epoch: the
// Phase-1 variances, then the exact Phase-2 elimination. It converts a
// panic anywhere in the solve into an error, so neither a poisoned moment
// view nor the elimination's prime-disagreement panic (linalg.Span) can
// take down the serving goroutine. It returns the epoch the rebuild
// targeted either way, for failure records. Caller holds e.rebuildMu.
func (e *Engine) rebuild(ctx context.Context) (st *phaseState, epoch uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("lia: rebuild panicked: %v", r)
		}
	}()
	if rebuildPanicHook != nil {
		rebuildPanicHook()
	}
	view, epoch := e.momentsView()
	if err := ctx.Err(); err != nil {
		return nil, epoch, err
	}
	start := time.Now()
	vars, err := e.p1.Estimate(view)
	if err != nil {
		return nil, epoch, fmt.Errorf("lia: phase 1: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, epoch, err
	}
	kept, removed := core.Eliminate(e.rm, vars, e.opts.Strategy)
	e.lastRebuildNano.Store(time.Since(start).Nanoseconds())
	e.rebuilds.Add(1)
	return &phaseState{
		epoch: epoch, builtAt: time.Now(),
		vars: vars, kept: kept, removed: removed,
	}, epoch, nil
}

// momentsView snapshots the frozen covariance view and the ingestion epoch
// it corresponds to, consistently (both under the ingest lock).
func (e *Engine) momentsView() (*stats.CovSnapshot, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acc.View(), e.epoch.Load()
}

// Stats is a point-in-time observability snapshot of an engine, the hook
// behind liaserve's /v1/status and /metrics endpoints. Counters are read
// individually (not under one lock), so a Stats taken during concurrent
// ingestion is approximate to within the in-flight operations. Fields are
// documented on the aliased type, beside the roll-up of sharded stats.
type Stats = core.Stats

// Stats reports the engine's observability counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Snapshots:       int(e.epoch.Load()),
		StateEpoch:      -1,
		Rebuilds:        e.rebuilds.Load(),
		LastRebuild:     time.Duration(e.lastRebuildNano.Load()),
		RebuildFailures: e.rebuildFailures.Load(),
		Degraded:        e.degraded.Load(),
		Window:          e.window,
		Decay:           e.decay,
	}
	if f := e.lastFailure.Load(); f != nil {
		s.LastError = f.err.Error()
		s.LastFailure = f.at
	}
	if st := e.state.Load(); st != nil {
		s.StateEpoch = int(st.epoch)
		if !st.builtAt.IsZero() {
			s.StateAge = time.Since(st.builtAt)
		}
	} else if ns := e.restoredAt.Load(); ns != 0 {
		// Freshly restored from a checkpoint: no state rebuilt this process
		// yet, but the served moments descend from one built at the
		// checkpointed wall time — report that age, not zero.
		s.StateAge = time.Since(time.Unix(0, ns))
	}
	s.EpochLag = core.EpochLag(s.Snapshots, s.StateEpoch)
	return s
}

// SteadyState is one consistent view of an engine's cached learning state:
// the Phase-1 variances and the Phase-2 partition computed from them, with
// the ingestion epoch they belong to. Unresolved lists the links of failed
// sharded components (always nil for a plain Engine).
type SteadyState = core.SteadyState

// Steady returns the steady-state learning view at the current ingestion
// epoch (rebuilding it first if learning data arrived). The slices are the
// caller's to keep.
func (e *Engine) Steady(ctx context.Context) (*SteadyState, error) {
	st, err := e.currentState(ctx)
	if err != nil {
		return nil, err
	}
	return &SteadyState{
		Epoch:     int(st.epoch),
		Variances: append([]float64(nil), st.vars...),
		Kept:      append([]int(nil), st.kept...),
		Removed:   append([]int(nil), st.removed...),
	}, nil
}

// Variances returns the Phase-1 estimates of the per-link variances at the
// current ingestion epoch. Entries may be slightly negative under sampling
// noise. The slice is the caller's to keep.
func (e *Engine) Variances(ctx context.Context) ([]float64, error) {
	st, err := e.currentState(ctx)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), st.vars...), nil
}

// Infer runs Phase 2 on one snapshot of per-path observations: solve the
// reduced full-column-rank system Y = R*·X* ordered by the learned
// variances, and report per-link metrics (loss rates under
// ObserveLogTransmission, the clamped linear metric under ObserveLinear;
// eliminated links report 0).
//
// Infer is safe for heavy concurrent use: the Phase-1 state is cached
// across calls and shared lock-free; each call then performs one
// independent least-squares solve. The returned Result is exclusively the
// caller's.
func (e *Engine) Infer(ctx context.Context, y []float64) (*Result, error) {
	if err := checkDim(e.rm, y); err != nil {
		return nil, err
	}
	st, err := e.currentState(ctx)
	if err != nil {
		return nil, err
	}
	x, err := core.SolveReduced(e.rm, st.kept, y)
	if err != nil {
		return nil, fmt.Errorf("lia: phase 2: %w", err)
	}
	// Copy the cached slices: Results outlive state swaps and callers may
	// modify them.
	res := core.AssembleResult(
		e.rm, e.opts.Observation,
		append([]float64(nil), st.vars...),
		append([]int(nil), st.kept...),
		append([]int(nil), st.removed...),
		x,
	)
	res.Epoch = int(st.epoch)
	return res, nil
}

// InferCongested runs Infer and classifies every virtual link against the
// engine's congestion threshold (see Threshold).
func (e *Engine) InferCongested(ctx context.Context, y []float64) ([]bool, *Result, error) {
	res, err := e.Infer(ctx, y)
	if err != nil {
		return nil, nil, err
	}
	return res.Congested(e.Threshold()), res, nil
}

// CheckIdentifiable verifies that the link variances are identifiable on
// this engine's routing matrix (Theorem 1), returning an error wrapping
// ErrUnidentifiable if the augmented matrix is rank deficient. The check is
// not implied by NewEngine — it costs a rank computation — but running it
// once per topology turns silent minimum-norm fallbacks into a diagnosis.
func (e *Engine) CheckIdentifiable() error {
	if err := e.rm.PrecomputePairSupports(); err != nil {
		return fmt.Errorf("lia: %w", err)
	}
	if r, nc := core.AugmentedRank(e.rm), e.rm.NumLinks(); r < nc {
		return fmt.Errorf("lia: rank(A) = %d < %d links: %w", r, nc, ErrUnidentifiable)
	}
	return nil
}
