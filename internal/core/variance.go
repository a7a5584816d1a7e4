package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"lia/internal/linalg"
	"lia/internal/par"
	"lia/internal/stats"
	"lia/internal/topology"
)

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
)

func (p NegativeCovPolicy) String() string {
	if p == DropNegativeCov {
		return "drop"
	}
	return "clamp"
}

// VarianceOptions tunes Phase 1.
type VarianceOptions struct {
	// NegPolicy selects the treatment of negative measured covariances
	// (default ClampNegativeCov).
	NegPolicy NegativeCovPolicy
}

// adjust applies the negative-covariance policy to one measured covariance,
// returning the value to use and whether the equation should be kept.
func (o VarianceOptions) adjust(sigma float64) (float64, bool) {
	if sigma >= 0 {
		return sigma, true
	}
	return 0, o.NegPolicy != DropNegativeCov
}

// denseBudget caps the approximate flop count (rows × nc²) up to which
// Phase 1 solves by dense QR; larger systems use the normal equations
// (≈ a few hundred ms).
const denseBudget = 200_000_000

// EstimateVariances solves Σ* = A·v for the per-link variances from the
// accumulated path covariance moments (any stats.CovView — a live
// accumulator, a frozen CovSnapshot, a windowed or decayed view). The
// returned slice has one entry per virtual link of rm. Entries may come out
// slightly negative under sampling noise; callers that need true variances
// should clamp at zero, while the Phase-2 ordering uses the raw values.
//
// It is a one-shot Phase1: long-running callers that rebuild repeatedly
// over the same routing matrix should keep a Phase1, which caches the
// topology-only Gram factorization this function recomputes on every call.
func EstimateVariances(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) ([]float64, error) {
	return NewPhase1(rm, opts).Estimate(cov)
}

// pairsPerShard fixes the shard granularity of the parallel Phase-1 passes.
// Shard boundaries depend only on the pair count — never on the worker count
// — so the floating-point reduction order, and therefore the result, is
// bit-identical across GOMAXPROCS settings and repeated runs.
const pairsPerShard = 1024

// minParallelPairs is the work threshold below which Phase 1 stays serial:
// goroutine startup dominates tiny systems.
const minParallelPairs = 4 * pairsPerShard

// rhsWindowShards is how many shards stage their right-hand sides at once
// before an in-order fold into the result; it bounds rhs staging memory at
// rhsWindowShards·nc floats independent of system size while leaving
// plenty of shards in flight for any sensible worker count.
const rhsWindowShards = 64

// shardWorkers sizes the pool for a stream of npairs equations: GOMAXPROCS,
// capped at the shard count, and 1 ("run the shard loop inline, no
// goroutines") below minParallelPairs. The shard structure — and therefore
// the result — is the same for every pool size; the pool only changes who
// walks the shards. The one schedule-dependent step, the lazy pair-support
// index build in topology, produces a schedule-independent layout.
func shardWorkers(npairs int) int {
	if npairs < minParallelPairs {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), (npairs+pairsPerShard-1)/pairsPerShard)
}

// estimateDense solves the Phase-1 system by Householder QR — the paper's
// reference method, used for systems within denseBudget. Path pairs below
// the same branch point share one support, so the augmented matrix A has
// few distinct rows below its first nc; the solve stores each of them once
// (linalg.SolveLeastSquaresRepeated), never materializes A, and returns
// bitwise what the QR of A itself would.
func estimateDense(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) ([]float64, error) {
	nc := rm.NumLinks()
	eq := collectEquations(rm, cov, opts)
	if len(eq.rhs) < nc {
		return nil, fmt.Errorf("core: only %d usable covariance equations for %d links: %w",
			len(eq.rhs), nc, ErrUnidentifiable)
	}
	// The stored rows are built only for this solve, so they are factored
	// in place.
	v, err := linalg.SolveLeastSquaresRepeated(supportMatrix(eq.rows, nc), eq.of, eq.rhs)
	if errors.Is(err, linalg.ErrRankDeficient) {
		// Dropped equations (DropNegativeCov) can cost full column rank;
		// fall back to the minimum-norm basic solution, which resolves only
		// the identifiable directions and zeroes the rest. It needs A itself.
		return linalg.NewPivotedQR(supportMatrix(eq.expanded(nc), nc)).SolveMinNorm(eq.rhs), nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: dense variance solve: %w", err)
	}
	return v, nil
}

// equations holds the usable augmented rows of A, in canonical pair order,
// stored by distinct row: rows holds the supports of A's first nc rows (the
// QR's pivot rows) and then one support per distinct row below them, and
// A's row nc+t is rows[nc+of[t]]. Supports are views into the cached pair
// index.
type equations struct {
	rows [][]int32
	of   []int32
	rhs  []float64 // adjusted right-hand sides, one per row of A
}

// collectEquations walks the pair index once, keeping the equations the
// negative-covariance policy keeps, and groups the rows below the first nc
// by their support.
func collectEquations(rm *topology.RoutingMatrix, cov stats.CovView, opts VarianceOptions) *equations {
	nc, npairs := rm.NumLinks(), rm.NumPairs()
	eq := &equations{rhs: make([]float64, 0, npairs), of: make([]int32, 0, max(npairs-nc, 0))}
	first := make(map[uint64]int32) // support hash → its first row in rows
	VisitPairs(rm, func(i, j int, support []int32) {
		if len(support) == 0 {
			return
		}
		sigma, keep := opts.adjust(cov.Cov(i, j))
		if !keep {
			return
		}
		eq.rhs = append(eq.rhs, sigma)
		if len(eq.rhs) <= nc {
			eq.rows = append(eq.rows, support)
			return
		}
		h := supportHash(support)
		r, ok := first[h]
		// A hash collision only costs a second stored copy of a row.
		if !ok || !slices.Equal(eq.rows[r], support) {
			r = int32(len(eq.rows))
			eq.rows = append(eq.rows, support)
			if !ok {
				first[h] = r
			}
		}
		eq.of = append(eq.of, r-int32(nc))
	})
	return eq
}

// supportHash is the 64-bit FNV-1a hash of a support's link indices.
func supportHash(support []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range support {
		h = (h ^ uint64(uint32(k))) * 1099511628211
	}
	return h
}

// expanded returns the supports of every row of A, repeated rows included.
func (eq *equations) expanded(nc int) [][]int32 {
	rows := slices.Clone(eq.rows[:nc])
	for _, t := range eq.of {
		rows = append(rows, eq.rows[nc+int(t)])
	}
	return rows
}

// supportMatrix returns the 0/1 matrix with one row per support.
func supportMatrix(rows [][]int32, nc int) *linalg.Dense {
	a := linalg.NewDense(len(rows), nc)
	for r, support := range rows {
		row := a.Row(r)
		for _, k := range support {
			row[k] = 1
		}
	}
	return a
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
// disjoint ranges, so the concurrent writes are race-free. Under
// DropNegativeCov, Phase1 hands this bitmap to the Gram pass.
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
// nil kept means every equation survives (clamp), making G a pure function
// of the topology — which is what Phase1's cached factor relies on.
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
