package core

import (
	"errors"
	"fmt"
	"runtime"

	"lia/internal/linalg"
	"lia/internal/par"
	"lia/internal/stats"
	"lia/internal/topology"
)

// VarianceMethod selects how the moment system Σ* = A·v is solved.
type VarianceMethod int

const (
	// VarianceAuto picks DenseQR for small systems and NormalEquations once
	// the explicit A would be large.
	VarianceAuto VarianceMethod = iota
	// VarianceDenseQR materializes A (non-zero rows only) and solves the
	// least-squares problem with a Householder QR — the paper's reference
	// method.
	VarianceDenseQR
	// VarianceNormalEquations streams the equations into AᵀA and AᵀΣ* and
	// solves by Cholesky; never materializes A.
	VarianceNormalEquations
)

func (m VarianceMethod) String() string {
	switch m {
	case VarianceDenseQR:
		return "dense-qr"
	case VarianceNormalEquations:
		return "normal-equations"
	default:
		return "auto"
	}
}

// NegativeCovPolicy chooses what to do with covariance equations whose
// measured value Σ̂ii′ is negative — a pure sampling artifact under the link
// independence assumption S.2, since true path covariances are sums of link
// variances.
type NegativeCovPolicy int

const (
	// ClampNegativeCov keeps the equation but clamps its right-hand side to
	// zero. This is the default: unlike dropping, it preserves the full
	// column rank guaranteed by Theorem 1 (dropping the only pair equation
	// of two sibling leaf paths leaves their leaf links and shared parent
	// mutually unidentifiable) while still encoding that the shared
	// segment's variance is ≈ 0.
	ClampNegativeCov NegativeCovPolicy = iota
	// DropNegativeCov removes the equation entirely — the paper's rule
	// ("we ignore equations with Σ̂ii′ < 0"). Survives in practice thanks to
	// redundant equations, but can lose identifiability on sparse pair sets;
	// the estimator then falls back to a minimum-norm solution.
	DropNegativeCov
	// KeepNegativeCov uses the raw negative value.
	KeepNegativeCov
)

func (p NegativeCovPolicy) String() string {
	switch p {
	case DropNegativeCov:
		return "drop"
	case KeepNegativeCov:
		return "keep"
	default:
		return "clamp"
	}
}

// VarianceOptions tunes Phase 1.
type VarianceOptions struct {
	Method VarianceMethod
	// NegPolicy selects the treatment of negative measured covariances
	// (default ClampNegativeCov).
	NegPolicy NegativeCovPolicy
	// Workers bounds the goroutines used by the sharded Phase-1 accumulation
	// over the O(np²) equation stream. 0 sizes the pool to GOMAXPROCS (with
	// an inline fallback below a work threshold); values ≤ 1 walk the shards
	// inline without goroutines; any value > 1 engages the pool regardless
	// of the threshold, though the pool is always capped at the shard count
	// (a single-shard system runs inline no matter what). Every setting
	// produces bit-identical results — the shard structure, not the worker
	// count, fixes the reduction order. One exception to the serial
	// contract: the first Phase-1 pass on a routing matrix triggers the
	// lazy pair-support index build in topology, which always fans out over
	// GOMAXPROCS (its layout, and thus every result, is
	// schedule-independent).
	Workers int
}

// adjust applies the negative-covariance policy to one measured covariance,
// returning the value to use and whether the equation should be kept.
func (o VarianceOptions) adjust(sigma float64) (float64, bool) {
	if sigma >= 0 {
		return sigma, true
	}
	switch o.NegPolicy {
	case DropNegativeCov:
		return 0, false
	case KeepNegativeCov:
		return sigma, true
	default:
		return 0, true
	}
}

// denseBudget caps the approximate flop count (rows × nc²) the dense QR
// path may incur before Auto switches to normal equations (≈ a few hundred
// ms).
const denseBudget = 200_000_000

// resolveMethod turns VarianceAuto into a concrete solver choice for the
// given routing matrix. The decision depends only on the topology (and the
// dense budget), never on the measured data — which is what lets
// Phase1 decide cacheability once per routing matrix.
func (o VarianceOptions) resolveMethod(rm *topology.RoutingMatrix) VarianceMethod {
	if o.Method != VarianceAuto {
		return o.Method
	}
	np, nc := rm.NumPaths(), rm.NumLinks()
	rows := np * (np + 1) / 2
	if rows*nc*nc <= denseBudget {
		return VarianceDenseQR
	}
	return VarianceNormalEquations
}

// EstimateVariances solves Σ* = A·v for the per-link variances from the
// accumulated path covariance moments (any stats.CovView — a live
// accumulator, a frozen CovSnapshot, a windowed or decayed view). The
// returned slice has one entry per virtual link of rm. Entries may come out
// slightly negative under sampling noise; callers that need true variances
// should clamp at zero, while the Phase-2 ordering uses the raw values.
//
// Long-running callers that rebuild repeatedly over the same routing matrix
// should use Phase1, which caches the topology-only Gram factorization this
// function recomputes from scratch on every call.
func EstimateVariances(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) ([]float64, error) {
	if cov.Count() < 2 {
		return nil, ErrTooFewSnapshots
	}
	if cov.Dim() != rm.NumPaths() {
		return nil, fmt.Errorf("core: covariance over %d paths, routing matrix has %d: %w",
			cov.Dim(), rm.NumPaths(), ErrDimensionMismatch)
	}
	// Surface a pair-index capacity failure as an error before any
	// estimator walks the index (whose accessors panic instead).
	if err := rm.PrecomputePairSupports(); err != nil {
		return nil, fmt.Errorf("core: phase-1 equations: %w", err)
	}
	switch opts.resolveMethod(rm) {
	case VarianceDenseQR:
		return estimateDense(rm, cov, opts)
	default:
		return estimateNormal(rm, cov, opts)
	}
}

// pairsPerShard fixes the shard granularity of the parallel Phase-1 passes.
// Shard boundaries depend only on the pair count — never on the worker count
// — so the floating-point reduction order, and therefore the result, is
// bit-identical across GOMAXPROCS settings and repeated runs.
const pairsPerShard = 1024

// minParallelPairs is the work threshold below which auto-sized runs
// (Workers == 0) stay serial: goroutine startup dominates tiny systems.
const minParallelPairs = 4 * pairsPerShard

// rhsWindowShards is how many shards stage their right-hand sides at once
// before an in-order fold into the result; it bounds rhs staging memory at
// rhsWindowShards·nc floats independent of system size while leaving
// plenty of shards in flight for any sensible worker count.
const rhsWindowShards = 64

// shardWorkers decides the pool size for a stream of npairs equations:
// 1 means "run the shard loop inline, no goroutines". The shard structure —
// and therefore the result — is the same either way; the pool only changes
// who walks the shards.
func (o VarianceOptions) shardWorkers(npairs int) int {
	w := o.Workers
	if w != 0 {
		if w < 1 {
			w = 1 // explicit serial request (negative values included)
		}
	} else if w = runtime.GOMAXPROCS(0); npairs < minParallelPairs {
		w = 1
	}
	shards := (npairs + pairsPerShard - 1) / pairsPerShard
	if w > shards && shards > 0 {
		w = shards
	}
	return w
}

func estimateDense(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) ([]float64, error) {
	nc := rm.NumLinks()
	rows, rhs := collectEquations(rm, cov, opts)
	if len(rows) < nc {
		return nil, fmt.Errorf("core: only %d usable covariance equations for %d links: %w",
			len(rows), nc, ErrUnidentifiable)
	}
	a := linalg.NewDense(len(rows), nc)
	for r, support := range rows {
		for _, k := range support {
			a.Set(r, int(k), 1)
		}
	}
	v, err := linalg.SolveLeastSquares(a, rhs)
	if errors.Is(err, linalg.ErrRankDeficient) {
		// Dropped equations (DropNegativeCov) can cost full column rank;
		// fall back to the minimum-norm basic solution, which resolves only
		// the identifiable directions and zeroes the rest. The fallback
		// factorization honors the same worker pool as the rest of Phase 1
		// (pivoted QR is bitwise-deterministic across worker counts).
		w := opts.Workers
		if w < 0 {
			w = 1 // explicit serial request, matching shardWorkers
		}
		return linalg.NewPivotedQRWorkers(a, w).SolveMinNorm(rhs), nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: dense variance solve: %w", err)
	}
	return v, nil
}

// collectEquations materializes the usable augmented rows (support views into
// the cached pair index) and their adjusted right-hand sides, in canonical
// pair order. Above the work threshold the collection fans out over pair
// shards; shard results are concatenated in shard order, so the row order is
// identical to the serial walk.
func collectEquations(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) ([][]int32, []float64) {
	npairs := rm.NumPairs()
	if npairs == 0 {
		return nil, nil
	}
	workers := opts.shardWorkers(npairs)
	shards := (npairs + pairsPerShard - 1) / pairsPerShard
	shardRows := make([][][]int32, shards)
	shardRHS := make([][]float64, shards)
	doShard := func(s int) {
		lo := s * pairsPerShard
		hi := min(lo+pairsPerShard, npairs)
		var rows [][]int32
		var rhs []float64
		VisitPairsRange(rm, lo, hi, func(i, j int, support []int32) {
			if len(support) == 0 {
				return
			}
			sigma, keep := opts.adjust(cov.Cov(i, j))
			if !keep {
				return
			}
			rows = append(rows, support)
			rhs = append(rhs, sigma)
		})
		shardRows[s], shardRHS[s] = rows, rhs
	}
	par.Do(workers, shards, func(_, s int) { doShard(s) })
	total := 0
	for _, r := range shardRows {
		total += len(r)
	}
	rows := make([][]int32, 0, total)
	rhs := make([]float64, 0, total)
	for s := range shardRows {
		rows = append(rows, shardRows[s]...)
		rhs = append(rhs, shardRHS[s]...)
	}
	return rows, rhs
}

func estimateNormal(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) ([]float64, error) {
	v, err := accumulateGram(rm, cov, opts).Solve()
	if err != nil {
		return nil, fmt.Errorf("core: normal-equations variance solve: %w: %w", ErrUnidentifiable, err)
	}
	return v, nil
}

// accumulateGram assembles the normal-equations system AᵀA·v = AᵀΣ* in two
// passes over the cached pair index:
//
//   - the order-sensitive right-hand side via the shard-windowed fold of
//     accumulateRHSInto — bit-deterministic because shard boundaries
//     depend only on the pair count;
//   - the Gram matrix G = AᵀA via the row-banded shared-matrix reduction of
//     accumulateGramInto — one nc×nc matrix total instead of one private
//     copy per worker, and exact regardless of scheduling because G's
//     entries are small integer counts.
func accumulateGram(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) *Gram {
	nc := rm.NumLinks()
	gr := NewGram(nc)
	npairs := rm.NumPairs()
	if npairs == 0 {
		return gr
	}
	workers := opts.shardWorkers(npairs)
	// Under DropNegativeCov the kept-equation set depends on the data; the
	// RHS pass decides it once into a bitmap so the row-banded Gram workers
	// need not re-evaluate the covariances. Under clamp/keep every equation
	// is kept and no bitmap is needed.
	var kept []bool
	if opts.NegPolicy == DropNegativeCov {
		kept = make([]bool, npairs)
	}
	accumulateRHSInto(gr.rhs, rm, cov, opts, workers, kept)
	accumulateGramInto(gr.g, rm, kept, workers)
	return gr
}

// accumulateRHSInto folds the adjusted right-hand sides AᵀΣ* of every kept
// equation into dst (length nc, assumed zeroed). The pair stream is cut into fixed-size shards processed in
// fixed-size windows: workers fan out within a window, then the window's
// per-shard partial sums fold into dst in shard index order before the next
// window starts. This bounds staging memory at window·nc floats no matter
// how many pairs the system has, and — because shard boundaries depend only
// on the pair count (pairsPerShard), never on the worker count — makes the
// reduction order, and therefore every bit of the result, independent of
// scheduling. The warm-rebuild path of Phase1 runs exactly this fold against
// a cached factorization, so its right-hand sides match the from-scratch
// build bit for bit.
//
// When kept is non-nil (length npairs) the fold additionally records which
// packed pair indices survived the negative-covariance policy — shards own
// disjoint ranges, so the concurrent writes are race-free. The cold build
// hands this bitmap to the Gram pass under DropNegativeCov.
func accumulateRHSInto(dst []float64, rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions, workers int, kept []bool) {
	nc := rm.NumLinks()
	npairs := rm.NumPairs()
	if npairs == 0 {
		return
	}
	shards := (npairs + pairsPerShard - 1) / pairsPerShard
	window := min(shards, rhsWindowShards)
	staging := make([]float64, window*nc)
	for base := 0; base < shards; base += window {
		count := min(window, shards-base)
		par.Do(workers, count, func(_, i int) {
			s := base + i
			accumulateRHSShard(staging[i*nc:(i+1)*nc], rm, cov, opts,
				s*pairsPerShard, min(s*pairsPerShard+pairsPerShard, npairs), kept)
		})
		for i := 0; i < count; i++ {
			for k, v := range staging[i*nc : (i+1)*nc] {
				dst[k] += v
			}
		}
	}
}

// accumulateRHSShard folds the adjusted right-hand sides of the packed pair
// range [lo, hi) — one shard of the equation stream — into rhs (length nc,
// zeroed here because staging slots are reused across windows).
//
// When kept is non-nil (length npairs overall) the walk also records which
// packed pair indices survived the negative-covariance policy; shards own
// disjoint ranges, so concurrent writes are race-free.
func accumulateRHSShard(rhs []float64, rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions, lo, hi int, kept []bool) {
	for i := range rhs {
		rhs[i] = 0
	}
	p := lo // packed pair index of the current visit
	rm.VisitPairSupports(lo, hi, func(i, j int, support []int32) {
		p++
		if len(support) == 0 {
			return
		}
		sigma, keep := opts.adjust(cov.Cov(i, j))
		if !keep {
			return
		}
		if kept != nil {
			kept[p-1] = true
		}
		for _, k := range support {
			rhs[k] += sigma
		}
	})
}

// accumulateGramInto folds the support outer-products of every kept equation
// into the single shared matrix g (nc×nc, assumed zeroed) — the row-banded
// reduction that replaces per-worker private AᵀA copies: peak Gram memory is
// nc² + O(workers) floats instead of workers·nc².
//
// Each worker owns a contiguous band of G's rows (virtual links) and walks
// the whole pair stream, writing only the rows of each support that fall in
// its band — so writers never overlap and no merge is needed. The band
// boundaries are balanced by the per-link pair counts t·(t+1)/2 (the number
// of equations whose support contains the link), which is proportional to
// the row's write traffic. Every entry of G is a small integer count, so the
// result is exact — bit-identical for any worker count or band layout.
//
// kept, when non-nil, is the packed-pair bitmap of equations that survived
// the negative-covariance policy, as recorded by accumulateRHSInto —
// DropNegativeCov is the one policy whose kept set depends on the data. A
// nil kept means every equation survives (clamp/keep), making G a pure
// function of the topology — which is what Phase1's cached cold build
// relies on.
func accumulateGramInto(g *linalg.Dense, rm *topology.RoutingMatrix, kept []bool, workers int) {
	npairs := rm.NumPairs()
	if npairs == 0 {
		return
	}
	bands := gramBands(rm, workers)
	par.Do(len(bands)-1, len(bands)-1, func(_, w int) {
		lo, hi := bands[w], bands[w+1]
		if lo >= hi {
			return
		}
		p := 0 // packed pair index of the current visit
		rm.VisitPairSupports(0, npairs, func(i, j int, support []int32) {
			p++
			if len(support) == 0 || (kept != nil && !kept[p-1]) {
				return
			}
			// Select the slice of the (sorted) support inside this band.
			a := 0
			for a < len(support) && int(support[a]) < lo {
				a++
			}
			b := a
			for b < len(support) && int(support[b]) < hi {
				b++
			}
			for _, k := range support[a:b] {
				rowk := g.Row(int(k))
				for _, l := range support {
					rowk[l]++
				}
			}
		})
	})
}

// gramBands partitions the virtual links [0, nc) into min(workers, nc)
// contiguous bands with roughly equal Gram write traffic, estimated per link
// as t·(t+1)/2 (t = paths through the link): the number of augmented
// equations whose support contains it.
func gramBands(rm *topology.RoutingMatrix, workers int) []int {
	nc := rm.NumLinks()
	if workers < 1 {
		workers = 1
	}
	if workers > nc {
		workers = nc
	}
	if workers == 1 {
		return []int{0, nc}
	}
	var total float64
	weight := make([]float64, nc)
	for k := 0; k < nc; k++ {
		t := float64(len(rm.PathsThrough(k)))
		weight[k] = t * (t + 1) / 2
		total += weight[k]
	}
	bands := make([]int, workers+1)
	bands[workers] = nc
	cum := 0.0
	next := 1
	for k := 0; k < nc && next < workers; k++ {
		cum += weight[k]
		for next < workers && cum >= total*float64(next)/float64(workers) {
			bands[next] = k + 1
			next++
		}
	}
	for ; next < workers; next++ {
		bands[next] = nc
	}
	return bands
}
