package stats

import (
	"fmt"
	"math"
	"testing"
)

// stateBits returns every state field of acc by name, floats as their
// IEEE-754 bits.
func stateBits(acc MomentAccumulator) map[string][]uint64 {
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	switch a := acc.(type) {
	case *CovAccumulator:
		return map[string][]uint64{"n": {uint64(a.n)}, "mean": bits(a.mean...), "comom": bits(a.comom...)}
	case *WindowedCovAccumulator:
		return map[string][]uint64{"n": {uint64(a.n)}, "head": {uint64(a.head)},
			"mean": bits(a.mean...), "comom": bits(a.comom...), "ring": bits(a.ring...)}
	case *DecayCovAccumulator:
		return map[string][]uint64{"n": {uint64(a.n)}, "w": bits(a.w), "w2": bits(a.w2),
			"mean": bits(a.mean...), "comom": bits(a.comom...)}
	}
	panic(fmt.Sprintf("stateBits: %T", acc))
}

func requireSameState(t *testing.T, what string, got, want MomentAccumulator) {
	t.Helper()
	g, w := stateBits(got), stateBits(want)
	for name, wf := range w {
		for k, gf := range g[name] {
			if gf != wf[k] {
				t.Fatalf("%s: %s[%d] bits %#x, want %#x", what, name, k, gf, wf[k])
			}
		}
	}
}

// TestAddBatchBitwise: AddBatch over any batching leaves every state field
// bitwise-equal to one Add per snapshot — across block boundaries, window
// wraps inside a block (a snapshot evicted by the batch that folded it),
// and a checkpoint round-trip mid-stream.
func TestAddBatchBitwise(t *testing.T) {
	const dim = 7
	sizes := []int{0, 1, foldBlock - 1, foldBlock, foldBlock + 1, 3*foldBlock + 2}
	sizes = append(sizes, sizes...) // 102 snapshots: every window wraps
	total := 0
	for _, k := range sizes {
		total += k
	}
	ys := randVecs(17, total, dim, 0.05)
	makers := map[string]func() MomentAccumulator{
		"cumulative": func() MomentAccumulator { return NewCovAccumulator(dim) },
		"windowed2":  func() MomentAccumulator { return NewWindowedCovAccumulator(dim, 2) },
		"windowed5":  func() MomentAccumulator { return NewWindowedCovAccumulator(dim, 5) },
		"windowed64": func() MomentAccumulator { return NewWindowedCovAccumulator(dim, 64) },
		"decay1":     func() MomentAccumulator { return NewDecayCovAccumulator(dim, 1) },
		"decay0.9":   func() MomentAccumulator { return NewDecayCovAccumulator(dim, 0.9) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			ref, batched := mk(), mk()
			var resumed []MomentAccumulator // one per checkpoint taken so far
			off := 0
			for b, k := range sizes {
				rec, err := AppendAccumulator(nil, batched)
				if err != nil {
					t.Fatal(err)
				}
				dec, _, err := DecodeAccumulator(rec)
				if err != nil {
					t.Fatal(err)
				}
				resumed = append(resumed, dec)
				batch := ys[off : off+k]
				for _, y := range batch {
					ref.Add(y)
				}
				batched.AddBatch(batch)
				for _, r := range resumed {
					r.AddBatch(batch)
				}
				off += k
				requireSameState(t, fmt.Sprintf("after batch %d (size %d)", b, k), batched, ref)
			}
			for c, r := range resumed {
				requireSameState(t, fmt.Sprintf("resumed from checkpoint before batch %d", c), r, ref)
			}
		})
	}
}
