package stats

import "fmt"

// WindowedCovAccumulator maintains the second-order moments of the most
// recent `window` snapshots: a ring buffer of the raw vectors plus an exact
// reverse-Welford update that cancels the oldest snapshot as each new one
// arrives. Long-running engines use it (via lia.WithWindow) so Phase 1
// tracks regime changes instead of averaging over all history.
//
// Add is O(dim²) — the same cost as the cumulative accumulator plus one
// O(dim²) removal once the window is full; the removal rides in the same
// sweep of the co-moment triangle as the fold. Memory is window·dim floats
// for the ring plus the usual packed co-moment triangle.
type WindowedCovAccumulator struct {
	window int
	dim    int
	n      int // samples currently inside the window (≤ window)
	mean   []float64
	comom  []float64 // packed upper triangle of co-moment sums
	ring   []float64 // window·dim backing for the retained snapshots
	head   int       // ring slot the next Add overwrites (the oldest sample)
}

// NewWindowedCovAccumulator creates an accumulator over the last `window`
// snapshots of dim-dimensional vectors. window must be at least 2 — a
// single-snapshot window has no covariance.
func NewWindowedCovAccumulator(dim, window int) *WindowedCovAccumulator {
	if window < 2 {
		panic(fmt.Sprintf("stats: covariance window %d < 2", window))
	}
	return &WindowedCovAccumulator{
		window: window,
		dim:    dim,
		mean:   make([]float64, dim),
		comom:  make([]float64, dim*(dim+1)/2),
		ring:   make([]float64, window*dim),
	}
}

// Window returns the configured window length.
func (c *WindowedCovAccumulator) Window() int { return c.window }

// Count returns the number of snapshots currently inside the window.
func (c *WindowedCovAccumulator) Count() int { return c.n }

// Dim returns the vector dimension.
func (c *WindowedCovAccumulator) Dim() int { return c.dim }

// Add folds one snapshot into the moments, evicting the oldest retained
// snapshot once the window is full. Below capacity the arithmetic is
// identical to CovAccumulator.Add, so a windowed accumulator that has not
// wrapped yet matches the cumulative one bit for bit.
func (c *WindowedCovAccumulator) Add(y []float64) { c.AddBatch([][]float64{y}) }

// AddBatch folds the snapshots of ys in order, bitwise-equal to one Add per
// snapshot, including evictions of snapshots the same batch folded.
//
// The eviction runs the Welford update backwards: with x among the current
// n samples,
//
//	mean_pre  = mean − (x − mean)/(n−1)
//	comom_pre = comom − (x − mean_pre) ⊗ (x − mean)
//
// which inverts Add exactly in real arithmetic (and to rounding error in
// floating point). Its update enters the block as l = −(x − mean_pre),
// r = x − mean: negation is exact, so comom + l_i·r_j rounds exactly as
// comom − (x − mean_pre)_i·(x − mean)_j.
func (c *WindowedCovAccumulator) AddBatch(ys [][]float64) {
	b := newBlock(c.dim, ys, 2)
	for _, y := range ys {
		slot := c.ring[c.head*c.dim : (c.head+1)*c.dim]
		if c.n == c.window {
			c.n--
			inv := 1 / float64(c.n)
			l, r := b.next()
			for i, x := range slot {
				r[i] = x - c.mean[i]
				c.mean[i] -= r[i] * inv
				l[i] = -(x - c.mean[i])
			}
		}
		copy(slot, y)
		c.head = (c.head + 1) % c.window
		c.n++
		d, e := b.next()
		welfordStep(c.mean, d, e, y, 1/float64(c.n))
		b.fold(c.comom, 1)
	}
}

// Mean returns the per-coordinate means over the current window.
func (c *WindowedCovAccumulator) Mean() []float64 {
	out := make([]float64, c.dim)
	copy(out, c.mean)
	return out
}

// Cov returns the unbiased sample covariance between coordinates i ≤ j over
// the current window. It requires at least two retained snapshots.
func (c *WindowedCovAccumulator) Cov(i, j int) float64 {
	if c.n < 2 {
		panic("stats: covariance needs at least 2 snapshots")
	}
	if j < i {
		i, j = j, i
	}
	return c.comom[triIndex(i, j, c.dim)] / float64(c.n-1)
}

// View returns a frozen snapshot of the windowed covariance state.
func (c *WindowedCovAccumulator) View() *CovSnapshot {
	return &CovSnapshot{
		dim:   c.dim,
		n:     c.n,
		div:   float64(c.n - 1),
		comom: append([]float64(nil), c.comom...),
	}
}

// DecayCovAccumulator maintains exponentially-decayed second-order moments:
// before each new snapshot folds in, every existing sample's weight is
// multiplied by λ ∈ (0, 1], so the effective memory is ≈ 1/(1−λ) snapshots
// (λ = 1 degenerates to the cumulative accumulator, bit for bit). Unlike the
// windowed accumulator it retains no raw snapshots — memory is O(dim²)
// regardless of history length — at the cost of a soft (geometric) horizon
// instead of a sharp one.
type DecayCovAccumulator struct {
	dim    int
	lambda float64
	n      int     // raw snapshots folded in (lifetime)
	w      float64 // decayed weight sum Σ λ^age
	w2     float64 // decayed squared-weight sum Σ λ^2·age (for the unbiased divisor)
	mean   []float64
	comom  []float64
}

// NewDecayCovAccumulator creates a decaying accumulator with per-snapshot
// decay factor lambda ∈ (0, 1].
func NewDecayCovAccumulator(dim int, lambda float64) *DecayCovAccumulator {
	if !(lambda > 0 && lambda <= 1) {
		panic(fmt.Sprintf("stats: decay factor %g outside (0, 1]", lambda))
	}
	return &DecayCovAccumulator{
		dim:    dim,
		lambda: lambda,
		mean:   make([]float64, dim),
		comom:  make([]float64, dim*(dim+1)/2),
	}
}

// Lambda returns the per-snapshot decay factor.
func (c *DecayCovAccumulator) Lambda() float64 { return c.lambda }

// Count returns the number of raw snapshots folded in (undecayed — used for
// the "at least two snapshots" gating, not as the effective sample size).
func (c *DecayCovAccumulator) Count() int { return c.n }

// EffectiveCount returns the decayed weight sum, the effective number of
// snapshots the moments currently represent (→ 1/(1−λ) in steady state).
func (c *DecayCovAccumulator) EffectiveCount() float64 { return c.w }

// Dim returns the vector dimension.
func (c *DecayCovAccumulator) Dim() int { return c.dim }

// Add folds one snapshot into the decayed moments (weighted Welford with a
// pre-scale of the existing mass by λ).
func (c *DecayCovAccumulator) Add(y []float64) { c.AddBatch([][]float64{y}) }

// AddBatch folds the snapshots of ys in order, bitwise-equal to one Add per
// snapshot: the sweep scales each co-moment entry by λ before each
// snapshot's update.
func (c *DecayCovAccumulator) AddBatch(ys [][]float64) {
	b := newBlock(c.dim, ys, 1)
	for _, y := range ys {
		c.n++
		c.w = c.lambda*c.w + 1
		c.w2 = c.lambda*c.lambda*c.w2 + 1
		d, e := b.next()
		welfordStep(c.mean, d, e, y, 1/c.w)
		b.fold(c.comom, c.lambda)
	}
}

// div is the reliability-weighted unbiased divisor W − W₂/W, which reduces
// to the usual n−1 when λ = 1.
func (c *DecayCovAccumulator) div() float64 { return c.w - c.w2/c.w }

// Cov returns the decayed sample covariance between coordinates i ≤ j.
func (c *DecayCovAccumulator) Cov(i, j int) float64 {
	if c.n < 2 {
		panic("stats: covariance needs at least 2 snapshots")
	}
	if j < i {
		i, j = j, i
	}
	return c.comom[triIndex(i, j, c.dim)] / c.div()
}

// Mean returns the decayed per-coordinate means.
func (c *DecayCovAccumulator) Mean() []float64 {
	out := make([]float64, c.dim)
	copy(out, c.mean)
	return out
}

// View returns a frozen snapshot of the decayed covariance state.
func (c *DecayCovAccumulator) View() *CovSnapshot {
	return &CovSnapshot{
		dim:   c.dim,
		n:     c.n,
		div:   c.div(),
		comom: append([]float64(nil), c.comom...),
	}
}

var (
	_ MomentAccumulator = (*CovAccumulator)(nil)
	_ MomentAccumulator = (*WindowedCovAccumulator)(nil)
	_ MomentAccumulator = (*DecayCovAccumulator)(nil)
)
