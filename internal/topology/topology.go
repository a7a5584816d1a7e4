// Package topology turns raw end-to-end paths into the reduced routing
// matrix R the tomography algorithms operate on: it performs the alias
// reduction of Section 3.1 (merging links that no end-to-end measurement can
// distinguish), drops uncovered links, and validates / repairs the
// no-route-fluttering assumption T.2.
package topology

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"lia/internal/linalg"
	"lia/internal/par"
)

// Path is one end-to-end measurement path: an ordered sequence of physical
// (directed) link IDs from a beacon host to a destination host.
type Path struct {
	Beacon int   // beacon node ID
	Dst    int   // destination node ID
	Links  []int // physical link IDs, in traversal order
}

// RoutingMatrix is the reduced routing matrix R of the paper: np rows
// (paths) by nc columns (covered virtual links). After reduction every
// column is distinct and non-zero.
type RoutingMatrix struct {
	paths []Path

	// rows[i] holds the sorted virtual-link indices traversed by path i.
	rows [][]int
	// ordered[i] holds the virtual-link indices of path i in traversal order.
	ordered [][]int
	// cols[k] holds the sorted path indices traversing virtual link k.
	cols [][]int
	// members[k] lists the physical link IDs merged into virtual link k.
	members [][]int
	// virtualOf maps a physical link ID to its virtual link index.
	virtualOf map[int]int

	// pairOnce guards the lazy construction of pairs, the packed pair-support
	// index shared by every Phase-1 pass over the augmented matrix. pairsErr
	// records a capacity failure of the build (see ErrPairIndexOverflow).
	pairOnce sync.Once
	pairs    *pairIndex
	pairsErr error
}

// pairIndex is a CSR-style packed index of path-pair → shared virtual links:
// the support of pair p (in the canonical upper-triangular order (0,0),
// (0,1), …, (0,np−1), (1,1), …) is idx[off[p]:off[p+1]]. Building it once
// turns every subsequent enumeration of the augmented matrix A into a linear
// index walk instead of np(np+1)/2 repeated sorted-set intersections, and its
// contiguous layout is what the sharded Phase-1 accumulators partition across
// goroutines.
//
// Both arrays are int32-packed: virtual-link indices always fit (nc is
// memory-bounded far below 2³¹) and the offsets are guarded against overflow
// at build time, halving the index footprint on multi-thousand-path
// topologies where off alone holds np(np+1)/2+1 entries.
type pairIndex struct {
	off []int32 // len NumPairs()+1; monotone offsets into idx
	idx []int32 // concatenated sorted supports (virtual-link indices)
}

// maxPairIndexEntries bounds the total packed support length so offsets fit
// in int32. A package variable (not a constant) so the overflow guard is
// testable without materializing a 2³¹-entry index.
var maxPairIndexEntries = int64(math.MaxInt32)

// ErrPairIndexOverflow is returned (via PrecomputePairSupports, and from
// every estimator that consumes the index) when a topology's packed
// pair-support index would exceed the int32-packed capacity. Such path sets
// must be sharded across routing matrices.
var ErrPairIndexOverflow = errors.New("topology: pair-support index exceeds int32-packed capacity; shard the path set across routing matrices")

// Build constructs the reduced routing matrix from a set of paths:
//
//  1. links that appear in exactly the same set of paths are merged into one
//     virtual link ("alias reduction": such links — in particular chains of
//     links without branching points — cannot be distinguished by any
//     end-to-end measurement);
//  2. links covered by no path are dropped.
//
// Paths with no links (beacon == destination) are rejected.
func Build(paths []Path) (*RoutingMatrix, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("topology: no paths")
	}
	for i, p := range paths {
		if len(p.Links) == 0 {
			return nil, fmt.Errorf("topology: path %d (%d→%d) has no links", i, p.Beacon, p.Dst)
		}
	}
	// Signature of a physical link = the sorted set of paths through it.
	pathsOf := make(map[int][]int) // physical link -> path indices
	for i, p := range paths {
		seen := make(map[int]bool, len(p.Links))
		for _, l := range p.Links {
			if seen[l] {
				return nil, fmt.Errorf("topology: path %d traverses link %d twice (routing loop)", i, l)
			}
			seen[l] = true
			pathsOf[l] = append(pathsOf[l], i)
		}
	}
	// Group physical links by identical path sets.
	bySig := make(map[string][]int)
	for link, ps := range pathsOf {
		bySig[sigOf(ps)] = append(bySig[sigOf(ps)], link)
	}
	sigs := make([]string, 0, len(bySig))
	for s := range bySig {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs) // deterministic virtual-link numbering
	rm := &RoutingMatrix{
		paths:     paths,
		rows:      make([][]int, len(paths)),
		ordered:   make([][]int, len(paths)),
		cols:      make([][]int, 0, len(sigs)),
		members:   make([][]int, 0, len(sigs)),
		virtualOf: make(map[int]int),
	}
	for _, s := range sigs {
		links := bySig[s]
		sort.Ints(links)
		k := len(rm.members)
		rm.members = append(rm.members, links)
		rm.cols = append(rm.cols, append([]int(nil), pathsOf[links[0]]...))
		for _, l := range links {
			rm.virtualOf[l] = k
		}
	}
	for i, p := range paths {
		seen := make(map[int]bool)
		for _, l := range p.Links {
			k := rm.virtualOf[l]
			if !seen[k] {
				seen[k] = true
				rm.ordered[i] = append(rm.ordered[i], k)
			}
		}
		rm.rows[i] = append([]int(nil), rm.ordered[i]...)
		sort.Ints(rm.rows[i])
	}
	return rm, nil
}

func sigOf(ps []int) string {
	b := make([]byte, 0, len(ps)*4)
	for _, p := range ps {
		b = append(b, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	return string(b)
}

// NumPaths returns np, the number of rows of R.
func (rm *RoutingMatrix) NumPaths() int { return len(rm.rows) }

// NumLinks returns nc, the number of covered virtual links (columns of R).
func (rm *RoutingMatrix) NumLinks() int { return len(rm.members) }

// Path returns the original path for row i.
func (rm *RoutingMatrix) Path(i int) Path { return rm.paths[i] }

// Row returns the sorted virtual-link indices of path i. Shared slice; do
// not modify.
func (rm *RoutingMatrix) Row(i int) []int { return rm.rows[i] }

// OrderedRow returns the virtual links of path i in traversal order.
// Shared slice; do not modify.
func (rm *RoutingMatrix) OrderedRow(i int) []int { return rm.ordered[i] }

// PathsThrough returns the sorted path indices traversing virtual link k.
// Shared slice; do not modify.
func (rm *RoutingMatrix) PathsThrough(k int) []int { return rm.cols[k] }

// Members returns the physical link IDs merged into virtual link k.
func (rm *RoutingMatrix) Members(k int) []int { return rm.members[k] }

// VirtualOf returns the virtual link index of a physical link and whether
// the link is covered at all.
func (rm *RoutingMatrix) VirtualOf(physical int) (int, bool) {
	k, ok := rm.virtualOf[physical]
	return k, ok
}

// Dense materializes R as a dense 0/1 matrix.
func (rm *RoutingMatrix) Dense() *linalg.Dense {
	d := linalg.NewDense(rm.NumPaths(), rm.NumLinks())
	for i, row := range rm.rows {
		for _, k := range row {
			d.Set(i, k, 1)
		}
	}
	return d
}

// DenseColumns materializes the sub-matrix of R restricted to the given
// virtual-link columns (in the given order).
func (rm *RoutingMatrix) DenseColumns(cols []int) *linalg.Dense {
	pos := make(map[int]int, len(cols))
	for j, k := range cols {
		pos[k] = j
	}
	d := linalg.NewDense(rm.NumPaths(), len(cols))
	for i, row := range rm.rows {
		for _, k := range row {
			if j, ok := pos[k]; ok {
				d.Set(i, j, 1)
			}
		}
	}
	return d
}

// Rank returns the exact rank of R: every column goes through one
// linalg.Span.
func (rm *RoutingMatrix) Rank() int {
	span := linalg.NewSpan(rm.NumPaths())
	for _, col := range rm.cols {
		span.Add(col)
	}
	return span.Rank()
}

// IntersectRows returns the sorted intersection of the virtual-link sets of
// paths i and j, appended to dst (which may be nil).
func (rm *RoutingMatrix) IntersectRows(i, j int, dst []int) []int {
	a, b := rm.rows[i], rm.rows[j]
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			dst = append(dst, a[x])
			x++
			y++
		}
	}
	return dst
}

// NumPairs returns the number of unordered path pairs (i ≤ j), i.e. the row
// count np(np+1)/2 of the augmented matrix A.
func (rm *RoutingMatrix) NumPairs() int {
	np := rm.NumPaths()
	return np * (np + 1) / 2
}

// PairIndexOf packs a pair (i ≤ j) into its canonical upper-triangular row
// index, the order used by PairSupport and VisitPairSupports.
func (rm *RoutingMatrix) PairIndexOf(i, j int) int {
	np := rm.NumPaths()
	if i < 0 || j < i || j >= np {
		panic(fmt.Sprintf("topology: pair (%d,%d) out of range for %d paths", i, j, np))
	}
	return i*np - i*(i-1)/2 + (j - i)
}

// PairSupport returns the sorted virtual links shared by paths i and j from
// the cached pair-support index, as int32-packed link indices. The slice is
// a view into the index — valid for the lifetime of the routing matrix, but
// it must not be modified.
func (rm *RoutingMatrix) PairSupport(i, j int) []int32 {
	if j < i {
		i, j = j, i
	}
	ps := rm.pairSupports()
	p := rm.PairIndexOf(i, j)
	return ps.idx[ps.off[p]:ps.off[p+1]]
}

// VisitPairSupports walks the pairs with packed indices in [from, to) in
// canonical order, passing each pair's support. Supports are views into the
// cached index (stable, read-only). Disjoint ranges touch disjoint state, so
// concurrent calls on different ranges are safe — this is the primitive the
// sharded Phase-1 accumulators partition across goroutines.
func (rm *RoutingMatrix) VisitPairSupports(from, to int, visit func(i, j int, support []int32)) {
	npairs := rm.NumPairs()
	if from < 0 || to > npairs || from > to {
		panic(fmt.Sprintf("topology: pair range [%d,%d) out of [0,%d)", from, to, npairs))
	}
	if from == to {
		return
	}
	ps := rm.pairSupports()
	np := rm.NumPaths()
	// Unrank `from` to its (i, j): the first row i whose base index
	// base(i) = i·np − i(i−1)/2 exceeds `from`, minus one.
	i := sort.Search(np, func(r int) bool {
		return r*np-r*(r-1)/2 > from
	}) - 1
	j := i + (from - (i*np - i*(i-1)/2))
	for p := from; p < to; p++ {
		visit(i, j, ps.idx[ps.off[p]:ps.off[p+1]])
		j++
		if j >= np {
			i++
			j = i
		}
	}
}

// pairSupports returns the pair-support index, building it on first use. It
// panics on a capacity failure — estimators gate on PrecomputePairSupports
// first so the error surfaces as a value on every public path.
func (rm *RoutingMatrix) pairSupports() *pairIndex {
	rm.pairOnce.Do(rm.buildPairIndex)
	if rm.pairsErr != nil {
		panic(rm.pairsErr)
	}
	return rm.pairs
}

// PrecomputePairSupports forces construction of the cached pair-support
// index now instead of on first use, reporting a capacity failure
// (ErrPairIndexOverflow) as an error. Idempotent and safe for concurrent
// callers. Estimators call it before walking the index so oversized
// topologies fail as errors, and timed sections call it up front so the
// one-time build does not silently inflate the first measured pass.
func (rm *RoutingMatrix) PrecomputePairSupports() error {
	rm.pairOnce.Do(rm.buildPairIndex)
	return rm.pairsErr
}

// buildPairIndex computes every pairwise row intersection once. Rows are
// distributed over GOMAXPROCS goroutines (each row i owns the contiguous
// index range of pairs (i, i..np−1), so writers never overlap) and the
// per-row buffers are stitched into one packed CSR layout afterwards.
func (rm *RoutingMatrix) buildPairIndex() {
	np := rm.NumPaths()
	npairs := rm.NumPairs()
	off := make([]int32, npairs+1)
	rowData := make([][]int32, np)
	par.Do(runtime.GOMAXPROCS(0), np, func(_, i int) {
		base := rm.PairIndexOf(i, i)
		buf := make([]int32, 0, (np-i)*2)
		for j := i; j < np; j++ {
			start := len(buf)
			buf = intersectRows32(rm.rows[i], rm.rows[j], buf)
			// Per-pair support length is at most the shorter row, far below
			// 2³¹; only the running prefix sum below can overflow.
			off[base+(j-i)+1] = int32(len(buf) - start)
		}
		rowData[i] = buf
	})
	var total int64
	for p := 0; p < npairs; p++ {
		total += int64(off[p+1])
		if total > maxPairIndexEntries {
			rm.pairsErr = fmt.Errorf("%w (needs %d+ entries, capacity %d)",
				ErrPairIndexOverflow, total, maxPairIndexEntries)
			return
		}
		off[p+1] = int32(total)
	}
	idx := make([]int32, total)
	for i := 0; i < np; i++ {
		copy(idx[off[rm.PairIndexOf(i, i)]:], rowData[i])
	}
	rm.pairs = &pairIndex{off: off, idx: idx}
}

// intersectRows32 appends the sorted intersection of two sorted int rows to
// dst as int32-packed virtual-link indices.
func intersectRows32(a, b []int, dst []int32) []int32 {
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			dst = append(dst, int32(a[x]))
			x++
			y++
		}
	}
	return dst
}

// VirtualRates folds per-physical-link mean loss rates into per-virtual-link
// loss rates: the loss rate of a virtual link is the complement of the
// product of its members' transmission rates.
func (rm *RoutingMatrix) VirtualRates(physicalLoss map[int]float64) []float64 {
	out := make([]float64, rm.NumLinks())
	for k, mem := range rm.members {
		t := 1.0
		for _, l := range mem {
			t *= 1 - physicalLoss[l]
		}
		out[k] = 1 - t
	}
	return out
}
