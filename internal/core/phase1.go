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
// Estimate is safe for concurrent use: the cached factor is built once under
// an internal lock, and solves run against per-call workspaces.
type Phase1 struct {
	rm   *topology.RoutingMatrix
	opts VarianceOptions

	mu    sync.Mutex
	built bool
	chol  *linalg.Cholesky
	err   error // sticky factorization failure (deterministic per topology)
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
	accumulateRHSInto(rhs, p.rm, cov, p.opts, p.opts.shardWorkers(p.rm.NumPairs()), nil)
	v := make([]float64, nc)
	ch.SolveWith(v, rhs, make([]float64, nc))
	return v, nil
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
