package main

import (
	"fmt"
	"math"
	"sort"

	"lia"
)

// The reference routines below check the served outputs with the
// benchmark's own float64 loops over the routing matrix's rows; none of
// them calls into the program's solvers.

// block is one link-connected piece of a routing matrix: the paths and the
// virtual links they cross. Systems over different blocks decouple.
type block struct {
	paths, links []int
}

// blocksOf splits rm into its link-connected blocks by union-find over
// paths sharing a link, in order of their smallest path index.
func blocksOf(rm *lia.RoutingMatrix) []block {
	np := rm.NumPaths()
	parent := make([]int, np)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	owner := make([]int, rm.NumLinks())
	for k := range owner {
		owner[k] = -1
	}
	for i := 0; i < np; i++ {
		for _, k := range rm.Row(i) {
			if owner[k] < 0 {
				owner[k] = i
				continue
			}
			a, b := find(owner[k]), find(i)
			if a != b {
				parent[max(a, b)] = min(a, b)
			}
		}
	}
	idx := map[int]int{}
	var out []block
	for i := 0; i < np; i++ {
		r := find(i)
		b, ok := idx[r]
		if !ok {
			b = len(out)
			idx[r] = b
			out = append(out, block{})
		}
		out[b].paths = append(out[b].paths, i)
	}
	for k, o := range owner {
		if o >= 0 {
			b := idx[find(o)]
			out[b].links = append(out[b].links, k)
		}
	}
	return out
}

// solveDense solves the square system a·x = b in place by Gaussian
// elimination with partial pivoting. a is row-major n×n.
func solveDense(a []float64, b []float64, n int) ([]float64, error) {
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r*n+c]) > math.Abs(a[p*n+c]) {
				p = r
			}
		}
		if a[p*n+c] == 0 {
			return nil, fmt.Errorf("singular system at column %d", c)
		}
		if p != c {
			for j := 0; j < n; j++ {
				a[c*n+j], a[p*n+j] = a[p*n+j], a[c*n+j]
			}
			b[c], b[p] = b[p], b[c]
		}
		for r := c + 1; r < n; r++ {
			f := a[r*n+c] / a[c*n+c]
			if f == 0 {
				continue
			}
			for j := c; j < n; j++ {
				a[r*n+j] -= f * a[c*n+j]
			}
			b[r] -= f * b[c]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for j := r + 1; j < n; j++ {
			s -= a[r*n+j] * x[j]
		}
		x[r] = s / a[r*n+r]
	}
	return x, nil
}

// rankOf returns the numerical column rank of the 0/1 matrix with the
// given rows (each a list of column positions in [0, ncols)), by Gaussian
// elimination with partial pivoting.
func rankOf(rows [][]int, ncols int) int {
	m := len(rows)
	a := make([]float64, m*ncols)
	for i, r := range rows {
		for _, c := range r {
			a[i*ncols+c] = 1
		}
	}
	rank := 0
	tol := 1e-9 * float64(max(m, ncols))
	for c := 0; c < ncols && rank < m; c++ {
		p := rank
		for r := rank + 1; r < m; r++ {
			if math.Abs(a[r*ncols+c]) > math.Abs(a[p*ncols+c]) {
				p = r
			}
		}
		if math.Abs(a[p*ncols+c]) <= tol {
			continue
		}
		if p != rank {
			for j := 0; j < ncols; j++ {
				a[rank*ncols+j], a[p*ncols+j] = a[p*ncols+j], a[rank*ncols+j]
			}
		}
		for r := rank + 1; r < m; r++ {
			f := a[r*ncols+c] / a[rank*ncols+c]
			if f == 0 {
				continue
			}
			for j := c; j < ncols; j++ {
				a[r*ncols+j] -= f * a[rank*ncols+j]
			}
		}
		rank++
	}
	return rank
}

// keptFullRank reports whether the reduced matrix R* (the columns of rm in
// kept) has full column rank, checking each link-connected block apart.
func keptFullRank(rm *lia.RoutingMatrix, blocks []block, kept []bool) error {
	for bi, b := range blocks {
		pos := map[int]int{}
		for _, k := range b.links {
			if kept[k] {
				pos[k] = len(pos)
			}
		}
		rows := make([][]int, len(b.paths))
		for r, i := range b.paths {
			for _, k := range rm.Row(i) {
				if p, ok := pos[k]; ok {
					rows[r] = append(rows[r], p)
				}
			}
		}
		if got := rankOf(rows, len(pos)); got != len(pos) {
			return fmt.Errorf("block %d: R* has rank %d over %d kept links", bi, got, len(pos))
		}
	}
	return nil
}

// residualTol scales the normal-equation tolerance of a link with the
// magnitude of the observations on the paths crossing it.
const residualTol = 1e-9

// checkNormalEquations verifies that a served Phase-2 answer is the least
// squares solution of the reduced system: R*ᵀ(y − R*·x) ≈ 0. The served
// loss rates give x = log(1 − loss) for every kept link, except that the
// server clamps a positive x to loss 0. Those links' x are recovered from
// their own rows of the normal equations, must come out non-negative, and
// the remaining rows must then hold. It returns the largest scaled residual.
// buf holds the clamped links' normal matrix between calls, so that checks
// of large R* leave little garbage in the heap the server shares.
func checkNormalEquations(rm *lia.RoutingMatrix, blocks []block, kept []bool, loss, y []float64, buf *[]float64) (float64, error) {
	x := make([]float64, rm.NumLinks())
	worst := 0.0
	for bi, b := range blocks {
		var clamped []int
		cpos := map[int]int{}
		for _, k := range b.links {
			if !kept[k] {
				continue
			}
			if loss[k] == 0 {
				cpos[k] = len(clamped)
				clamped = append(clamped, k)
				continue
			}
			x[k] = math.Log1p(-loss[k])
		}
		// Residuals with the clamped links left out.
		r := make([]float64, len(b.paths))
		for ri, i := range b.paths {
			r[ri] = y[i]
			for _, k := range rm.Row(i) {
				if kept[k] && loss[k] != 0 {
					r[ri] -= x[k]
				}
			}
		}
		if n := len(clamped); n > 0 {
			if cap(*buf) < n*n {
				*buf = make([]float64, n*n)
			}
			m := (*buf)[:n*n]
			clear(m)
			rhs := make([]float64, n)
			for ri, i := range b.paths {
				var on []int
				for _, k := range rm.Row(i) {
					if p, ok := cpos[k]; ok && kept[k] {
						on = append(on, p)
					}
				}
				for _, p := range on {
					rhs[p] += r[ri]
					for _, q := range on {
						m[p*n+q]++
					}
				}
			}
			xc, err := solveDense(m, rhs, n)
			if err != nil {
				return 0, fmt.Errorf("block %d: clamped links: %w", bi, err)
			}
			for p, k := range clamped {
				if xc[p] < -residualTol {
					return 0, fmt.Errorf("link %d: served loss 0 but the least-squares log rate is %g < 0", k, xc[p])
				}
				x[k] = xc[p]
			}
			for ri, i := range b.paths {
				for _, k := range rm.Row(i) {
					if p, ok := cpos[k]; ok && kept[k] {
						r[ri] -= xc[p]
					}
				}
			}
		}
		// Every kept column must be orthogonal to the residual.
		g := map[int]float64{}
		scale := map[int]float64{}
		for ri, i := range b.paths {
			for _, k := range rm.Row(i) {
				if kept[k] {
					g[k] += r[ri]
					scale[k] += 1 + math.Abs(y[i])
				}
			}
		}
		for k, v := range g {
			if s := math.Abs(v) / scale[k]; s > worst {
				worst = s
			}
		}
	}
	if worst > residualTol {
		return worst, fmt.Errorf("normal equations violated: scaled residual %g > %g", worst, residualTol)
	}
	return worst, nil
}

// detection accumulates the paper's accuracy counts: truly congested links,
// links flagged congested, and links both.
type detection struct {
	truth, flagged, hit int
}

func (d *detection) add(truth []float64, tl float64, flagged []bool) {
	for k, f := range flagged {
		t := truth[k] > tl
		if t {
			d.truth++
		}
		if f {
			d.flagged++
			if t {
				d.hit++
			}
		}
	}
}

// rates returns the detection rate (share of truly congested links flagged)
// and the false-positive rate (share of flagged links not truly congested).
func (d detection) rates() (dr, fpr float64) {
	dr, fpr = 1, 0
	if d.truth > 0 {
		dr = float64(d.hit) / float64(d.truth)
	}
	if d.flagged > 0 {
		fpr = float64(d.flagged-d.hit) / float64(d.flagged)
	}
	return dr, fpr
}

// Accuracy floors every run must clear over all of its inferences.
const (
	minDR  = 0.9
	maxFPR = 0.1
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}
