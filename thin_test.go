package lia_test

// thin_test.go covers ThinSource: seeded-deterministic Bernoulli thinning,
// stride sampling, the divisor-aware Stats correction (Rahman et al.,
// arXiv:2008.13424), and composition with the other source combinators.

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"lia"
)

// indexed builds ys whose single entry encodes the snapshot index, so kept
// sets are directly comparable.
func indexed(n int) [][]float64 {
	ys := make([][]float64, n)
	for i := range ys {
		ys[i] = []float64{-float64(i)}
	}
	return ys
}

// keptIndices drains a thinner and returns the original indices it kept.
func keptIndices(t *testing.T, src lia.SnapshotSource) []int {
	t.Helper()
	ctx := context.Background()
	var out []int
	for {
		snap, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		out = append(out, int(-snap.Y[0]))
	}
}

func TestThinSourceDeterministicKeepSet(t *testing.T) {
	const n = 400
	cfg := lia.ThinConfig{Keep: 0.3, Seed: 42}
	a := keptIndices(t, lia.ThinSource(lia.NewSliceSource(indexed(n)), cfg))
	b := keptIndices(t, lia.ThinSource(lia.NewSliceSource(indexed(n)), cfg))
	if len(a) == 0 || len(a) == n {
		t.Fatalf("kept %d of %d at Keep=0.3 — thinning is not happening", len(a), n)
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("same seed kept different sets: %v vs %v", a, b)
		}
	}
	c := keptIndices(t, lia.ThinSource(lia.NewSliceSource(indexed(n)),
		lia.ThinConfig{Keep: 0.3, Seed: 43}))
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds kept identical sets")
	}
}

func TestThinSourceStride(t *testing.T) {
	got := keptIndices(t, lia.ThinSource(lia.NewSliceSource(indexed(10)),
		lia.ThinConfig{Every: 3}))
	want := []int{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("stride kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stride kept %v, want %v", got, want)
		}
	}
}

func TestThinStatsKeepRate(t *testing.T) {
	const n = 2000
	src := lia.ThinSource(lia.NewSliceSource(indexed(n)), lia.ThinConfig{Keep: 0.25, Seed: 7})
	kept := len(keptIndices(t, src))
	st := src.Stats()
	if st.Offered != n || st.Kept != uint64(kept) || st.Thinned != n-uint64(kept) {
		t.Fatalf("stats = %+v with %d kept", st, kept)
	}
	if want := float64(kept) / n; st.KeepRate != want {
		t.Fatalf("keep rate %g, want Kept/Offered = %g", st.KeepRate, want)
	}
	if math.Abs(st.KeepRate-0.25) > 0.05 {
		t.Fatalf("realized keep rate %g far from 0.25", st.KeepRate)
	}
	// No thinning => unit keep rate and a pass-through stream.
	full := lia.ThinSource(lia.NewSliceSource(indexed(5)), lia.ThinConfig{})
	if got := keptIndices(t, full); len(got) != 5 {
		t.Fatalf("Keep=0 (no thinning) kept %d of 5", len(got))
	}
	if st := full.Stats(); st.KeepRate != 1 {
		t.Fatalf("unthinned stats = %+v, want unit keep rate", st)
	}
}

func TestThinSourceComposes(t *testing.T) {
	// counting-style chain: sanitize(thin(retry(raw))) — errors and EOF
	// pass through, Close reaches the bottom.
	inner := &closeRecorder{SnapshotSource: lia.NewSliceSource(indexed(20))}
	src := lia.SanitizeSource(
		lia.ThinSource(
			lia.RetrySource(inner, lia.RetryPolicy{}),
			lia.ThinConfig{Every: 2},
		), lia.SanitizeConfig{Dim: 1})
	got := keptIndices(t, src)
	if len(got) != 10 {
		t.Fatalf("composed chain kept %d of 20 at Every=2", len(got))
	}
	if err := lia.CloseSource(src); err != nil {
		t.Fatal(err)
	}
	if !inner.closed {
		t.Fatal("Close did not propagate through thin to the wrapped source")
	}
}
