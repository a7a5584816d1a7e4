package stats

import (
	"fmt"
	"sync"
)

// foldBlock is the number of snapshots whose co-moment updates one sweep of
// the packed triangle applies. At 600 paths the triangle is 1.44 MB and does
// not fit in L1, so folding snapshot by snapshot streams all of it once per
// snapshot; a block streams it once per foldBlock snapshots while each row's
// updates run out of L1.
const foldBlock = 8

// foldScratch pools the update vectors of a block. They are not kept per
// accumulator: a sharded engine holds one accumulator per component, and
// only the accumulator being folded needs them.
var foldScratch = sync.Pool{New: func() any { return new([]float64) }}

// block collects the rank-1 co-moment updates comom += l ⊗ r (entry (i, j),
// i ≤ j, gains l_i·r_j) of up to foldBlock snapshots, in stream order, and
// applies them in one sweep. A snapshot contributes at most two updates: a
// windowed eviction and its own fold.
//
// Every accumulator's Add and AddBatch runs one loop over the batch: per
// snapshot, advance the mean (and the window or weights), reserve the
// snapshot's updates with next, and end it with fold. The updates read
// nothing of the triangle and nothing reads the triangle mid-batch, so
// deferring the sweep reorders no dependent operation.
type block struct {
	dim     int
	left    int // snapshots of the batch not yet ended by fold
	pending int // snapshots whose updates await the sweep
	m       int // pending updates
	buf     *[]float64
	l, r    [2 * foldBlock][]float64
}

// newBlock checks every vector of the batch against dim before any is
// folded and takes the scratch the batch needs for perSnap updates per
// snapshot (2 for a window that evicts, else 1).
func newBlock(dim int, ys [][]float64, perSnap int) block {
	for _, y := range ys {
		if len(y) != dim {
			panic(fmt.Sprintf("stats: Add vector of length %d to %d-dim accumulator", len(y), dim))
		}
	}
	b := block{dim: dim, left: len(ys)}
	if len(ys) > 0 {
		b.buf = foldScratch.Get().(*[]float64)
		if need := 2 * perSnap * min(len(ys), foldBlock) * dim; len(*b.buf) < need {
			*b.buf = make([]float64, need)
		}
	}
	return b
}

// next reserves the vectors of the current snapshot's next update: l scales
// rows, r columns.
func (b *block) next() (l, r []float64) {
	off := 2 * b.m * b.dim
	l = (*b.buf)[off : off+b.dim]
	r = (*b.buf)[off+b.dim : off+2*b.dim]
	b.l[b.m], b.r[b.m] = l, r
	b.m++
	return l, r
}

// fold ends the current snapshot. Once foldBlock snapshots are pending, or
// the batch is done, it sweeps them into comom; the last sweep hands the
// scratch back to the pool.
func (b *block) fold(comom []float64, scale float64) {
	b.left--
	b.pending++
	if b.pending < foldBlock && b.left > 0 {
		return
	}
	b.sweep(comom, scale)
	b.m, b.pending = 0, 0
	if b.left == 0 {
		foldScratch.Put(b.buf)
		b.buf = nil
	}
}

// sweep applies the pending updates to comom row by row. Within a row the
// updates run in stream order, four per pass while four remain, so every
// entry sees the same operations with the same operands in the same order
// as one sweep per update would give it, and the result is bitwise-equal to
// folding the snapshots one at a time. With scale ≠ 1 every update first
// multiplies the entry by scale; the conversion keeps that product a
// separately rounded step where the compiler fuses x*y + z.
func (b *block) sweep(comom []float64, scale float64) {
	ls, rs := b.l[:b.m], b.r[:b.m]
	for i, off := 0, 0; i < b.dim; i++ {
		row := comom[off : off+b.dim-i]
		off += b.dim - i
		u := 0
		for ; u+3 < len(ls); u += 4 {
			a0, a1, a2, a3 := ls[u][i], ls[u+1][i], ls[u+2][i], ls[u+3][i]
			r0, r1, r2, r3 := rs[u][i:], rs[u+1][i:], rs[u+2][i:], rs[u+3][i:]
			r0, r1, r2, r3 = r0[:len(row)], r1[:len(row)], r2[:len(row)], r3[:len(row)]
			if scale == 1 {
				for j, x := range row {
					x += a0 * r0[j]
					x += a1 * r1[j]
					x += a2 * r2[j]
					row[j] = x + a3*r3[j]
				}
			} else {
				for j, x := range row {
					x = float64(x*scale) + a0*r0[j]
					x = float64(x*scale) + a1*r1[j]
					x = float64(x*scale) + a2*r2[j]
					row[j] = float64(x*scale) + a3*r3[j]
				}
			}
		}
		for ; u < len(ls); u++ {
			a0, r0 := ls[u][i], rs[u][i:]
			r0 = r0[:len(row)]
			if scale == 1 {
				for j, x := range row {
					row[j] = x + a0*r0[j]
				}
			} else {
				for j, x := range row {
					row[j] = float64(x*scale) + a0*r0[j]
				}
			}
		}
	}
}

// welfordStep advances mean by one sample y with new-sample weight inv
// (1/count for uniform weights) and records the sample's co-moment update:
// d = y − mean before the update, e = y − mean after it, comom += d ⊗ e.
func welfordStep(mean, d, e, y []float64, inv float64) {
	for i, v := range y {
		d[i] = v - mean[i]
		mean[i] += d[i] * inv
		e[i] = v - mean[i]
	}
}
