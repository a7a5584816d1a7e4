package core

import (
	"fmt"
	"sync"

	"lia/internal/linalg"
	"lia/internal/par"
	"lia/internal/stats"
	"lia/internal/topology"
)

// Phase1 is a reusable Phase-1 solver bound to one routing matrix — the
// incremental-rebuild engine behind lia.Engine.
//
// Under the negative-covariance policies whose kept-equation set does not
// depend on the measured data (ClampNegativeCov and KeepNegativeCov — every
// equation survives, only its right-hand side is adjusted), the Gram matrix
// G = AᵀA of the normal equations is a pure function of the topology. Phase1
// therefore accumulates G and its (regularized) Cholesky factor exactly once
// per routing matrix, and every subsequent Estimate costs only the
// O(np²·s̄) right-hand-side fold plus two O(nc²) triangular solves — no Gram
// re-accumulation, no re-factorization. The right-hand side reuses the same
// shard-windowed reduction as the from-scratch build, so a warm Estimate is
// bit-identical to EstimateVariances with the same options.
//
// DropNegativeCov (whose row set depends on the data) and the dense-QR
// method transparently fall back to the full EstimateVariances path.
//
// On top of the cached factorization, cacheable Estimates against frozen
// *stats.CovSnapshot views maintain the right-hand side incrementally: the
// per-pair-shard partial sums of the previous fold are kept alongside the
// view they came from, and a new view whose divisor is bitwise-unchanged
// recomputes only the shards whose co-moment block moved (packed pair index
// and packed co-moment index coincide, so pair shards map onto contiguous
// co-moment blocks). Clean partials are reused verbatim and all partials
// re-fold in shard order — the identical additions, in the identical order,
// as the cold fold, so the delta path is bitwise-equal by construction. A
// divisor that moved (cumulative counts growing, decay weights rescaling)
// degrades gracefully to recomputing every shard.
//
// Estimate is safe for concurrent use: the cached factor is built once under
// an internal lock, the delta state is serialized under another, and solves
// run against per-call workspaces.
type Phase1 struct {
	rm   *topology.RoutingMatrix
	opts VarianceOptions

	mu    sync.Mutex
	built bool
	chol  *linalg.Cholesky
	err   error // sticky factorization failure (deterministic per topology)

	deltaMu sync.Mutex
	delta   rhsDelta
}

// rhsDelta is the incremental right-hand-side state: the frozen view the
// cached partials were folded from and the per-shard partial sums themselves
// (shards × nc floats, bounded by maxDeltaPartialFloats).
type rhsDelta struct {
	view     *stats.CovSnapshot
	partials []float64

	deltaFolds uint64 // folds that reused at least the dirty-tracking machinery
	fullFolds  uint64 // folds that recomputed every shard
	lastDirty  int    // shards recomputed by the most recent fold
	lastShards int    // total shards at the most recent fold
}

// maxDeltaPartialFloats caps the memory the delta cache may hold
// (shards × nc float64s, 64 MiB worth); systems past the cap fall back to
// the plain windowed fold, which stages only rhsWindowShards slots at once.
const maxDeltaPartialFloats = 8 << 20

// DeltaStats reports the incremental right-hand-side counters: how many
// warm folds ran the delta path vs recomputed from scratch, and the dirty
// shard count of the most recent fold.
type DeltaStats struct {
	// DeltaFolds counts RHS folds that compared against a cached view and
	// recomputed only the dirty shards.
	DeltaFolds uint64
	// FullFolds counts RHS folds that recomputed every shard: the first fold,
	// views whose divisor moved, non-snapshot views, or systems past the
	// partial-cache budget.
	FullFolds uint64
	// LastDirtyShards and LastShards are the recomputed and total pair-shard
	// counts of the most recent fold.
	LastDirtyShards int
	LastShards      int
}

// DeltaStats returns the incremental-fold counters.
func (p *Phase1) DeltaStats() DeltaStats {
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	return DeltaStats{
		DeltaFolds:      p.delta.deltaFolds,
		FullFolds:       p.delta.fullFolds,
		LastDirtyShards: p.delta.lastDirty,
		LastShards:      p.delta.lastShards,
	}
}

// NewPhase1 creates a Phase-1 solver over the routing matrix with the given
// options. Construction is cheap; the factorization is built lazily on the
// first cacheable Estimate.
func NewPhase1(rm *topology.RoutingMatrix, opts VarianceOptions) *Phase1 {
	return &Phase1{rm: rm, opts: opts}
}

// Cacheable reports whether this solver's options admit the cached
// factorization: a data-independent kept-equation set (clamp or keep policy)
// solved by normal equations. Non-cacheable configurations still work — they
// run the full estimation on every call.
func (p *Phase1) Cacheable() bool {
	return p.opts.NegPolicy != DropNegativeCov &&
		p.opts.resolveMethod(p.rm) == VarianceNormalEquations
}

// Warm reports whether the factorization is already cached, i.e. whether the
// next Estimate pays only the RHS fold and the triangular solves.
func (p *Phase1) Warm() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built && p.err == nil
}

// Estimate solves Σ* = A·v for the per-link variances against the given
// covariance view, reusing the cached topology-only factorization when the
// options allow it. Results are bitwise identical to
// EstimateVariances(rm, cov, opts).
func (p *Phase1) Estimate(cov stats.CovView) ([]float64, error) {
	if cov.Count() < 2 {
		return nil, ErrTooFewSnapshots
	}
	if cov.Dim() != p.rm.NumPaths() {
		return nil, fmt.Errorf("core: covariance over %d paths, routing matrix has %d: %w",
			cov.Dim(), p.rm.NumPaths(), ErrDimensionMismatch)
	}
	if !p.Cacheable() {
		return EstimateVariances(p.rm, cov, p.opts)
	}
	if err := p.rm.PrecomputePairSupports(); err != nil {
		return nil, fmt.Errorf("core: phase-1 equations: %w", err)
	}
	ch, err := p.factor()
	if err != nil {
		return nil, err
	}
	nc := p.rm.NumLinks()
	rhs := make([]float64, nc)
	p.foldRHS(rhs, cov, p.opts.shardWorkers(p.rm.NumPairs()))
	v := make([]float64, nc)
	ch.SolveWith(v, rhs, make([]float64, nc))
	return v, nil
}

// foldRHS computes the right-hand sides AᵀΣ* into dst (length nc, zeroed),
// through the incremental per-shard partial cache when the view admits it.
// The fold is bitwise-identical to accumulateRHSInto either way: every shard
// partial comes from accumulateRHSShard (cached or recomputed — a shard's
// partial depends only on its own co-moment block and the divisor, both
// certified bitwise-unchanged for clean shards), and the partials fold into
// dst in shard index order, exactly the cold reduction order.
func (p *Phase1) foldRHS(dst []float64, cov stats.CovView, workers int) {
	npairs := p.rm.NumPairs()
	nc := len(dst)
	shards := (npairs + pairsPerShard - 1) / pairsPerShard
	snap, ok := cov.(*stats.CovSnapshot)
	if !ok || npairs == 0 || shards*nc > maxDeltaPartialFloats {
		// Live accumulators (mutable between calls) and over-budget systems
		// cannot cache partials; run the plain windowed fold.
		accumulateRHSInto(dst, p.rm, cov, p.opts, workers, nil)
		p.deltaMu.Lock()
		p.delta.fullFolds++
		p.delta.lastDirty, p.delta.lastShards = shards, shards
		p.deltaMu.Unlock()
		return
	}
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	d := &p.delta
	if len(d.partials) != shards*nc {
		d.partials = make([]float64, shards*nc)
		d.view = nil
	}
	// Packed co-moment index and packed pair index share one formula
	// (stats.triIndex == topology.PairIndexOf, both over np), so co-moment
	// blocks of pairsPerShard entries are exactly the pair shards of the
	// equation stream. A nil dirty set means the views are not comparable
	// (first fold, or the divisor moved): every shard recomputes.
	var dirty []bool
	if d.view != nil {
		dirty = snap.DirtyBlocks(d.view, pairsPerShard)
	}
	work := make([]int, 0, shards)
	for s := 0; s < shards; s++ {
		if dirty == nil || dirty[s] {
			work = append(work, s)
		}
	}
	if len(work) > 0 {
		w := min(workers, len(work))
		par.Do(w, len(work), func(_, i int) {
			s := work[i]
			accumulateRHSShard(d.partials[s*nc:(s+1)*nc], p.rm, snap, p.opts,
				s*pairsPerShard, min(s*pairsPerShard+pairsPerShard, npairs), nil)
		})
	}
	for s := 0; s < shards; s++ {
		for k, v := range d.partials[s*nc : (s+1)*nc] {
			dst[k] += v
		}
	}
	d.view = snap
	if dirty == nil {
		d.fullFolds++
	} else {
		d.deltaFolds++
	}
	d.lastDirty, d.lastShards = len(work), shards
}

// factor returns the cached Cholesky factor of the topology-only Gram
// matrix, building it on first use. The build is the one place Phase1 pays
// the cold price: the row-banded shared-matrix Gram accumulation followed by
// the O(nc³) factorization. Failures (an unidentifiable topology even after
// ridge regularization) are deterministic per topology and cached too.
func (p *Phase1) factor() (*linalg.Cholesky, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built {
		return p.chol, p.err
	}
	nc := p.rm.NumLinks()
	g := linalg.NewDense(nc, nc)
	// nil kept bitmap: under clamp/keep every equation survives, so G needs
	// no covariance data at all.
	accumulateGramInto(g, p.rm, nil, p.opts.shardWorkers(p.rm.NumPairs()))
	ch, _, err := linalg.NewCholeskyRegularized(g)
	p.built = true
	if err != nil {
		p.err = fmt.Errorf("core: normal-equations variance solve: %w: %w", ErrUnidentifiable, err)
		return nil, p.err
	}
	p.chol = ch
	return ch, nil
}
