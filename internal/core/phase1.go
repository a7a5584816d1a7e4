package core

import (
	"fmt"
	"sync"

	"lia/internal/linalg"
	"lia/internal/stats"
	"lia/internal/topology"
)

// Phase1 is a reusable Phase-1 solver bound to one routing matrix — the
// incremental-rebuild engine behind lia.Engine.
//
// The topology alone picks the solver, once, at construction: systems whose
// dense least-squares cost rows·nc² fits denseBudget are solved by
// Householder QR; larger ones by the normal equations AᵀA·v = AᵀΣ*. Neither
// materializes A: the QR stores A's first nc rows and then each distinct
// row below them once, and sweeps each stored row once per reflector.
//
// Under the default ClampNegativeCov policy every equation survives (only
// its right-hand side is adjusted), so the Gram matrix G = AᵀA of the
// normal equations is a pure function of the topology. Phase1 therefore
// accumulates G and its (regularized) Cholesky factor exactly once per
// routing matrix, and every subsequent Estimate costs only the O(np²·s̄)
// right-hand-side fold plus two O(nc²) triangular solves — no Gram
// re-accumulation, no re-factorization. The right-hand side reuses the same
// shard-windowed reduction as a one-shot solve, so a warm Estimate is
// bit-identical to EstimateVariances with the same options.
//
// DropNegativeCov (whose row set depends on the data) accumulates its Gram
// matrix afresh on every call. The dense-QR path keeps nothing across calls:
// it groups the kept rows by support and factors them on every call, which
// is cheaper in memory than caching a factor per component and, at ~5 % of
// a 25-path component's solve, not worth caching the grouping for.
//
// Estimate is safe for concurrent use: the cached factor is built once under
// an internal lock, and solves run against per-call workspaces.
type Phase1 struct {
	rm   *topology.RoutingMatrix
	opts VarianceOptions
	// dense records the size rule's solver choice; in-package tests flip it
	// to pin a path.
	dense bool

	mu    sync.Mutex
	built bool
	chol  *linalg.Cholesky
	err   error // sticky factorization failure (deterministic per topology)
}

// NewPhase1 creates a Phase-1 solver over the routing matrix with the given
// options. Construction is cheap; the factorization is built lazily on the
// first cacheable Estimate.
func NewPhase1(rm *topology.RoutingMatrix, opts VarianceOptions) *Phase1 {
	np, nc := rm.NumPaths(), rm.NumLinks()
	rows := np * (np + 1) / 2
	return &Phase1{rm: rm, opts: opts, dense: rows*nc*nc <= denseBudget}
}

// Cacheable reports whether this solver admits the cached factorization: a
// data-independent kept-equation set (clamp policy) solved by normal
// equations. Non-cacheable solvers still work — they run the full
// estimation on every call.
func (p *Phase1) Cacheable() bool {
	return !p.dense && p.opts.NegPolicy != DropNegativeCov
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
// solver is cacheable. Results are bitwise identical to
// EstimateVariances(rm, cov, opts).
func (p *Phase1) Estimate(cov stats.CovView) ([]float64, error) {
	return p.estimate(cov, shardWorkers(p.rm.NumPairs()))
}

// estimate is Estimate on a pool of the given size; every size gives the
// same bits.
func (p *Phase1) estimate(cov stats.CovView, workers int) ([]float64, error) {
	if cov.Count() < 2 {
		return nil, ErrTooFewSnapshots
	}
	if cov.Dim() != p.rm.NumPaths() {
		return nil, fmt.Errorf("core: covariance over %d paths, routing matrix has %d: %w",
			cov.Dim(), p.rm.NumPaths(), ErrDimensionMismatch)
	}
	// Surface a pair-index capacity failure as an error before any
	// estimator walks the index (whose accessors panic instead).
	if err := p.rm.PrecomputePairSupports(); err != nil {
		return nil, fmt.Errorf("core: phase-1 equations: %w", err)
	}
	if p.dense {
		return estimateDense(p.rm, cov, p.opts)
	}
	nc := p.rm.NumLinks()
	rhs := make([]float64, nc)
	var kept []bool // the data-dependent row set under DropNegativeCov
	if !p.Cacheable() {
		kept = make([]bool, p.rm.NumPairs())
	}
	accumulateRHSInto(rhs, p.rm, cov, p.opts, workers, kept)
	var ch *linalg.Cholesky
	var err error
	if kept == nil {
		ch, err = p.factor(workers)
	} else {
		ch, err = factorGram(p.rm, kept, workers)
	}
	if err != nil {
		return nil, err
	}
	v := make([]float64, nc)
	ch.SolveWith(v, rhs, make([]float64, nc))
	return v, nil
}

// factor returns the cached Cholesky factor of the topology-only Gram
// matrix, building it on first use. Failures (an unidentifiable topology
// even after ridge regularization) are deterministic per topology and
// cached too.
func (p *Phase1) factor(workers int) (*linalg.Cholesky, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.built {
		p.chol, p.err = factorGram(p.rm, nil, workers)
		p.built = true
	}
	return p.chol, p.err
}

// factorGram accumulates the Gram matrix of the equations kept selects
// (nil: all of them) with the row-banded shared-matrix reduction, then pays
// the O(nc³) regularized Cholesky factorization.
func factorGram(rm *topology.RoutingMatrix, kept []bool, workers int) (*linalg.Cholesky, error) {
	nc := rm.NumLinks()
	g := linalg.NewDense(nc, nc)
	accumulateGramInto(g, rm, kept, workers)
	ch, _, err := linalg.NewCholeskyRegularized(g)
	if err != nil {
		return nil, fmt.Errorf("core: normal-equations variance solve: %w: %w", ErrUnidentifiable, err)
	}
	return ch, nil
}
