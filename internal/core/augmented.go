// Package core implements the paper's contribution: the Loss Inference
// Algorithm (LIA) of Section 5.
//
// Phase 1 learns the per-link variances v of the log transmission rates by
// solving Σ* = A·v (Lemma 1), where A is the augmented routing matrix of
// Definition 1 — guaranteed to have full column rank by Theorem 1 whenever
// routing is time-invariant (T.1) and free of route fluttering (T.2).
//
// Phase 2 sorts links by learned variance, eliminates the least-variant
// (least congested) columns from the first-order system Y = R·X until the
// reduced matrix R* has full column rank, solves the reduced system for the
// newest snapshot, and reports zero loss for the eliminated links.
package core

import (
	"lia/internal/linalg"
	"lia/internal/topology"
)

// PairVisitor receives one augmented-matrix equation: the path pair (i ≤ j)
// and the support of row Ri∗ ⊗ Rj∗, i.e. the virtual links common to both
// paths, as int32-packed link indices (the topology pair index's native
// width). Pairs with empty intersections are visited with an empty support.
type PairVisitor func(i, j int, support []int32)

// VisitPairs enumerates every row of the augmented matrix A in the packed
// upper-triangular order used throughout this package ((0,0), (0,1), …,
// (0,np−1), (1,1), …). Supports come from the routing matrix's cached
// pair-support index: they are stable views that may be retained but must
// not be modified.
func VisitPairs(rm *topology.RoutingMatrix, visit PairVisitor) {
	rm.VisitPairSupports(0, rm.NumPairs(), visit)
}

// Gram accumulates the normal equations AᵀA·v = AᵀΣ* without materializing
// A, one equation at a time: each equation contributes its support
// outer-product to G = AᵀA and its measured covariance to the right-hand
// side. Phase 1 builds the same G with the sharded, row-banded fold of
// accumulateGramInto; this sequential form times the A build of the
// running-times experiment (the paper reports solving networks with
// thousands of nodes in seconds).
type Gram struct {
	g   *linalg.Dense
	rhs []float64
}

// NewGram creates an accumulator over nc links.
func NewGram(nc int) *Gram {
	return &Gram{g: linalg.NewDense(nc, nc), rhs: make([]float64, nc)}
}

// AddEquation folds one augmented row: support ⊗ support into G and
// sigma·support into the right-hand side.
func (gr *Gram) AddEquation(support []int32, sigma float64) {
	for _, k := range support {
		gr.rhs[k] += sigma
		rowk := gr.g.Row(int(k))
		for _, l := range support {
			rowk[l]++
		}
	}
}

// AugmentedRank returns rank(A), the exact rank of the augmented matrix:
// its rows (the pair supports of VisitPairs) go through one linalg.Span,
// and the count stops at nc.
func AugmentedRank(rm *topology.RoutingMatrix) int {
	nc := rm.NumLinks()
	span := linalg.NewSpan(nc)
	var row []int
	VisitPairs(rm, func(_, _ int, support []int32) {
		if span.Rank() == nc {
			return
		}
		row = row[:0]
		for _, k := range support {
			row = append(row, int(k))
		}
		span.Add(row)
	})
	return span.Rank()
}

// Identifiable reports whether the link variances are statistically
// identifiable from end-to-end measurements on this routing matrix, i.e.
// whether A has full column rank (Lemma 2). Theorem 1 guarantees this for
// every topology satisfying Assumptions T.1 and T.2.
func Identifiable(rm *topology.RoutingMatrix) bool {
	return AugmentedRank(rm) == rm.NumLinks()
}
