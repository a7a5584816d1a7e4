package core

import (
	"fmt"
	"sort"

	"lia/internal/linalg"
	"lia/internal/topology"
)

// Elimination selects the Phase-2 strategy for shrinking R to a full-column-
// rank R*.
type Elimination int

const (
	// EliminatePaperSequential is the algorithm exactly as printed in the
	// paper: repeatedly remove the remaining column with the smallest
	// variance until R* has full column rank. Suffix independence is
	// monotone in the number of removals, so one walk down the variance
	// order finds the cut: it stops at the first column dependent on the
	// higher-variance ones and removes that column and everything below it.
	EliminatePaperSequential Elimination = iota
	// EliminateGreedyBasis builds R* greedily from the highest-variance
	// column down, keeping a column only if it is linearly independent of
	// the columns already kept. This yields the maximum-variance basis (a
	// matroid-greedy optimum) and never discards an independent congested
	// link, unlike the sequential rule; it is evaluated as an ablation.
	EliminateGreedyBasis
)

func (e Elimination) String() string {
	switch e {
	case EliminateGreedyBasis:
		return "greedy-basis"
	default:
		return "paper-sequential"
	}
}

// Eliminate reduces the routing matrix to a full-column-rank set of columns,
// preferring to keep high-variance (congested) links. It returns the kept
// and removed virtual-link indices, both sorted ascending. Every rank test
// is exact (linalg.Span over the columns' path supports), so the partition
// depends on the variances only through VarianceOrder.
func Eliminate(rm *topology.RoutingMatrix, variances []float64, strategy Elimination) (kept, removed []int) {
	return eliminate(rm, variances, strategy, linalg.NewSpan)
}

// EliminateWorkers is Eliminate; the workers argument is ignored. Kept
// because perfbench calls it.
func EliminateWorkers(rm *topology.RoutingMatrix, variances []float64, strategy Elimination, workers int) (kept, removed []int) {
	return Eliminate(rm, variances, strategy)
}

// eliminate walks the columns from the highest variance down, adding each
// to a span created by newSpan (tests pass one with chosen primes).
func eliminate(rm *topology.RoutingMatrix, variances []float64, strategy Elimination, newSpan func(dim int) *linalg.Span) (kept, removed []int) {
	nc := rm.NumLinks()
	if len(variances) != nc {
		panic(fmt.Sprintf("core: %d variances for %d links", len(variances), nc))
	}
	order := VarianceOrder(variances)
	span := newSpan(rm.NumPaths())
	keep := make([]bool, nc)
	for j := nc - 1; j >= 0; j-- {
		k := order[j]
		if span.Add(rm.PathsThrough(k)) {
			keep[k] = true
		} else if strategy != EliminateGreedyBasis {
			break
		}
	}
	for k, ok := range keep {
		if ok {
			kept = append(kept, k)
		} else {
			removed = append(removed, k)
		}
	}
	return kept, removed
}

// VarianceOrder returns the link indices sorted by (variance, index):
// ascending, ties broken by index. Both elimination strategies walk it from
// the end and read no variance values.
func VarianceOrder(variances []float64) []int {
	order := make([]int, len(variances))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := variances[order[a]], variances[order[b]]
		if va != vb {
			return va < vb
		}
		return order[a] < order[b]
	})
	return order
}

// SolveReduced solves the reduced first-order system Y = R*·X* (eq. 9) for
// one snapshot's per-path log transmission rates y, returning the estimated
// per-link log transmission rates for the kept columns (aligned with kept).
func SolveReduced(rm *topology.RoutingMatrix, kept []int, y []float64) ([]float64, error) {
	if len(y) != rm.NumPaths() {
		return nil, fmt.Errorf("core: snapshot of %d paths, routing matrix has %d: %w",
			len(y), rm.NumPaths(), ErrDimensionMismatch)
	}
	// R* is built only for this solve, so it is factored in place.
	x, err := linalg.SolveLeastSquaresInPlace(rm.DenseColumns(kept), y)
	if err != nil {
		return nil, fmt.Errorf("core: reduced solve over %d links: %w", len(kept), err)
	}
	return x, nil
}
