// Package stats provides the second-order sample moments (Section 5.1,
// eq. 7), the evaluation metrics of Section 6 (detection rate, false
// positive rate, absolute error, error factor fδ of eq. 10), and small
// summary/CDF helpers shared by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CovView is the read-only covariance surface the Phase-1 estimators
// consume: the dimension, the number of samples behind the moments, and the
// pairwise covariances Σ̂ᵢⱼ. Every moment accumulator in this package
// implements it, as does the frozen CovSnapshot their View methods return.
type CovView interface {
	// Dim returns the vector dimension (the path count np).
	Dim() int
	// Count returns the number of snapshots the moments currently cover.
	Count() int
	// Cov returns the sample covariance between coordinates i and j. It may
	// panic when Count() < 2.
	Cov(i, j int) float64
}

// MomentAccumulator is the write side shared by the cumulative, windowed and
// decaying second-order accumulators: fold snapshots in with Add or
// AddBatch, hand the solvers a frozen CovView with View. Both folds run one
// blocked kernel, so batching never changes a bit of the moments.
// Implementations are not safe for concurrent use; callers (e.g.
// lia.Engine) serialise externally.
type MomentAccumulator interface {
	CovView
	// Add folds one snapshot vector into the moments.
	Add(y []float64)
	// AddBatch folds the snapshots of ys in order; the moments it leaves
	// are bitwise-equal to calling Add on each. Every vector is checked
	// before any is folded.
	AddBatch(ys [][]float64)
	// View returns an immutable snapshot of exactly the state a covariance
	// read needs (the packed co-moment triangle and its divisor) — much
	// cheaper than cloning the whole accumulator, and safe to read
	// concurrently with further Adds on the parent.
	View() *CovSnapshot
}

// CovSnapshot is a frozen CovView: the packed upper-triangular co-moment
// sums and the divisor that turns them into covariances. It shares no state
// with the accumulator it came from.
type CovSnapshot struct {
	dim   int
	n     int
	div   float64 // covariance divisor (n−1, or the effective weight analog)
	comom []float64
}

// Dim returns the vector dimension.
func (s *CovSnapshot) Dim() int { return s.dim }

// Count returns the number of snapshots behind the moments.
func (s *CovSnapshot) Count() int { return s.n }

// Cov returns the sample covariance between coordinates i ≤ j.
func (s *CovSnapshot) Cov(i, j int) float64 {
	if s.n < 2 {
		panic("stats: covariance needs at least 2 snapshots")
	}
	if j < i {
		i, j = j, i
	}
	return s.comom[triIndex(i, j, s.dim)] / s.div
}

// NumComoments returns the length of the packed upper-triangular co-moment
// slice, dim·(dim+1)/2: the floats a view holds.
func (s *CovSnapshot) NumComoments() int { return len(s.comom) }

// CovAccumulator builds the empirical covariance matrix Σ̂ of the per-path
// log transmission rates incrementally using a numerically stable streaming
// update (Welford generalized to cross-moments), folded in blocks of
// snapshots with one sweep of the co-moment triangle per block.
type CovAccumulator struct {
	n     int
	dim   int
	mean  []float64
	comom []float64 // packed upper triangle of co-moment sums
}

// NewCovAccumulator creates an accumulator for dim-dimensional vectors.
func NewCovAccumulator(dim int) *CovAccumulator {
	return &CovAccumulator{
		dim:   dim,
		mean:  make([]float64, dim),
		comom: make([]float64, dim*(dim+1)/2),
	}
}

func triIndex(i, j, dim int) int {
	// Upper triangle, row-major: index of (i,j) with i ≤ j.
	return i*dim - i*(i-1)/2 + (j - i)
}

// Add folds one snapshot vector into the moments.
func (c *CovAccumulator) Add(y []float64) { c.AddBatch([][]float64{y}) }

// AddBatch folds the snapshots of ys in order, bitwise-equal to one Add per
// snapshot.
func (c *CovAccumulator) AddBatch(ys [][]float64) {
	b := newBlock(c.dim, ys, 1)
	for _, y := range ys {
		c.n++
		d, e := b.next()
		welfordStep(c.mean, d, e, y, 1/float64(c.n))
		b.fold(c.comom, 1)
	}
}

// Count returns the number of snapshots folded in.
func (c *CovAccumulator) Count() int { return c.n }

// Clone returns an independent copy of the accumulator. The concurrent
// inference engine clones the moments under its ingest lock and runs the
// (much longer) variance estimation on the copy, so snapshot folds never
// stall behind a Phase-1 solve.
func (c *CovAccumulator) Clone() *CovAccumulator {
	return &CovAccumulator{
		n:     c.n,
		dim:   c.dim,
		mean:  append([]float64(nil), c.mean...),
		comom: append([]float64(nil), c.comom...),
	}
}

// View returns a frozen snapshot of the covariance state: the co-moment
// triangle and divisor, without the mean. The Phase-1 right-hand-side fold
// reads nothing else, so this is what lia.Engine captures under its ingest
// lock instead of cloning the whole accumulator.
func (c *CovAccumulator) View() *CovSnapshot {
	return &CovSnapshot{
		dim:   c.dim,
		n:     c.n,
		div:   float64(c.n - 1),
		comom: append([]float64(nil), c.comom...),
	}
}

// Mean returns the per-coordinate sample means.
func (c *CovAccumulator) Mean() []float64 {
	out := make([]float64, c.dim)
	copy(out, c.mean)
	return out
}

// Cov returns the unbiased sample covariance Σ̂ᵢⱼ between coordinates i ≤ j.
// It requires at least two snapshots.
func (c *CovAccumulator) Cov(i, j int) float64 {
	if c.n < 2 {
		panic("stats: covariance needs at least 2 snapshots")
	}
	if j < i {
		i, j = j, i
	}
	return c.comom[triIndex(i, j, c.dim)] / float64(c.n-1)
}

// Dim returns the vector dimension.
func (c *CovAccumulator) Dim() int { return c.dim }

// Covariance computes the full upper-triangular covariance from a slice of
// snapshot vectors (rows). Convenience wrapper over CovAccumulator.
func Covariance(ys [][]float64) *CovAccumulator {
	if len(ys) == 0 {
		panic("stats: Covariance of empty sample")
	}
	acc := NewCovAccumulator(len(ys[0]))
	for _, y := range ys {
		acc.Add(y)
	}
	return acc
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// ErrorFactor computes fδ(q, q*) of eq. 10: the maximum ratio, upward or
// downward, by which the true and inferred loss rates differ, with both
// clamped below by δ. The paper's default is δ = 10⁻³.
func ErrorFactor(q, qStar, delta float64) float64 {
	qd := math.Max(delta, q)
	qs := math.Max(delta, qStar)
	return math.Max(qd/qs, qs/qd)
}

// DefaultDelta is the paper's default error-factor clamp δ.
const DefaultDelta = 1e-3

// Detection holds congested-link location quality: DR is the fraction of
// truly congested links identified; FPR is the fraction of identified links
// that are actually good (|X\F| / |X|, as defined in Section 6).
type Detection struct {
	DR  float64
	FPR float64
	// TruePositives, FalsePositives, FalseNegatives are the raw counts.
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Detect compares inferred congestion statuses against the truth.
// Links where both are false contribute to neither rate. When nothing is
// truly congested DR is 1; when nothing is identified FPR is 0.
func Detect(truth, inferred []bool) Detection {
	if len(truth) != len(inferred) {
		panic(fmt.Sprintf("stats: Detect length mismatch %d vs %d", len(truth), len(inferred)))
	}
	var d Detection
	for i := range truth {
		switch {
		case truth[i] && inferred[i]:
			d.TruePositives++
		case truth[i] && !inferred[i]:
			d.FalseNegatives++
		case !truth[i] && inferred[i]:
			d.FalsePositives++
		}
	}
	if tot := d.TruePositives + d.FalseNegatives; tot > 0 {
		d.DR = float64(d.TruePositives) / float64(tot)
	} else {
		d.DR = 1
	}
	if tot := d.TruePositives + d.FalsePositives; tot > 0 {
		d.FPR = float64(d.FalsePositives) / float64(tot)
	}
	return d
}

// Summary is the (min, median, max) triple reported in Table 2.
type Summary struct {
	Min, Median, Max float64
}

// Summarize computes min/median/max of xs. It panics on empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{Min: s[0], Median: Quantile(s, 0.5), Max: s[len(s)-1]}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an already-sorted slice
// using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF returns the empirical distribution of xs evaluated at the given
// points: fraction of samples ≤ point.
func CDF(xs, at []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(at))
	for i, p := range at {
		out[i] = float64(sort.SearchFloat64s(s, math.Nextafter(p, math.Inf(1)))) / float64(len(s))
	}
	return out
}

// Pearson returns the sample correlation coefficient of two equal-length
// series (0 when either is constant).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
