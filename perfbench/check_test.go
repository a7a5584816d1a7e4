package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"lia"
)

// twoLevel is a 4-path tree by hand: access link 0 splits into links 1 and
// 2, each of which splits into two leaf links.
//
//	path 0: 0 1 3    path 1: 0 1 4
//	path 2: 0 2 5    path 3: 0 2 6
func twoLevel(t *testing.T) *lia.RoutingMatrix {
	t.Helper()
	rm, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1, 3}},
		{Beacon: 0, Dst: 2, Links: []int{0, 1, 4}},
		{Beacon: 0, Dst: 3, Links: []int{0, 2, 5}},
		{Beacon: 0, Dst: 4, Links: []int{0, 2, 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// virt returns the virtual link holding physical link id.
func virt(t *testing.T, rm *lia.RoutingMatrix, id int) int {
	t.Helper()
	k, ok := rm.VirtualOf(id)
	if !ok {
		t.Fatalf("physical link %d is not in the routing matrix", id)
	}
	return k
}

func keptOf(t *testing.T, rm *lia.RoutingMatrix, ids ...int) []bool {
	kept := make([]bool, rm.NumLinks())
	for _, id := range ids {
		kept[virt(t, rm, id)] = true
	}
	return kept
}

func TestBlocksOf(t *testing.T) {
	rm := twoLevel(t)
	bs := blocksOf(rm)
	if len(bs) != 1 || len(bs[0].paths) != 4 || len(bs[0].links) != 7 {
		t.Fatalf("blocks = %+v, want one block of 4 paths and 7 links", bs)
	}
	// Two disjoint single-path trees are two blocks.
	rm2, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1}},
		{Beacon: 2, Dst: 3, Links: []int{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs := blocksOf(rm2); len(bs) != 2 || bs[0].paths[0] != 0 || bs[1].paths[0] != 1 {
		t.Fatalf("blocks = %+v, want two one-path blocks in path order", bs)
	}
}

func TestRankOf(t *testing.T) {
	// Columns a = b + c: rank 2 of 3.
	rows := [][]int{{0, 1}, {0, 1}, {0, 2}, {0, 2}}
	if got := rankOf(rows, 3); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
	if got := rankOf([][]int{{0}, {1}, {0, 1}}, 2); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
}

func TestKeptFullRank(t *testing.T) {
	rm := twoLevel(t)
	bs := blocksOf(rm)
	// The four leaf links alone are the identity: full column rank.
	if err := keptFullRank(rm, bs, keptOf(t, rm, 3, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	// The access link is the sum of links 1 and 2.
	if err := keptFullRank(rm, bs, keptOf(t, rm, 0, 1, 2)); err == nil {
		t.Fatal("links 0, 1, 2 accepted as full rank")
	}
}

func TestVirtualTruthFoldsMembers(t *testing.T) {
	// Links 1 and 2 carry exactly path 0, so they merge into one virtual
	// link; its loss is 1 − (1−0.1)(1−0.2) = 0.28.
	rm, err := lia.NewTopology([]lia.Path{
		{Beacon: 0, Dst: 1, Links: []int{0, 1, 2}},
		{Beacon: 0, Dst: 2, Links: []int{0, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := map[int]int{0: 0, 1: 1, 2: 2, 3: 3}
	truth := virtualTruth(rm, idx, []float64{0.5, 0.1, 0.2, 0})
	if k := virt(t, rm, 1); math.Abs(truth[k]-0.28) > 1e-15 {
		t.Fatalf("merged link truth %v, want 0.28", truth[k])
	}
	if k := virt(t, rm, 0); truth[k] != 0.5 {
		t.Fatalf("access link truth %v, want 0.5", truth[k])
	}
	if k := virt(t, rm, 3); truth[k] != 0 {
		t.Fatalf("link 3 truth %v, want 0", truth[k])
	}
}

func TestCheckNormalEquations(t *testing.T) {
	rm := twoLevel(t)
	bs := blocksOf(rm)
	kept := keptOf(t, rm, 1, 2)
	b, c := virt(t, rm, 1), virt(t, rm, 2)
	lossOf := func(x float64) float64 { return math.Max(0, -math.Expm1(x)) }
	// With R* = [links 1, 2] the least-squares answer is the mean of each
	// pair of paths: x1 = (−0.1 − 0.3)/2 = −0.2, x2 = (0.01 + 0.03)/2 = 0.02.
	// The server clamps x2 > 0 to loss 0.
	y := []float64{-0.1, -0.3, 0.01, 0.03}
	loss := make([]float64, rm.NumLinks())
	loss[b], loss[c] = lossOf(-0.2), lossOf(0.02)
	if loss[c] != 0 {
		t.Fatalf("clamped loss %v", loss[c])
	}
	if _, err := checkNormalEquations(rm, bs, kept, loss, y, new([]float64)); err != nil {
		t.Fatalf("least-squares answer rejected: %v", err)
	}
	// Not the least-squares answer for link 1.
	bad := append([]float64(nil), loss...)
	bad[b] = lossOf(-0.1)
	if _, err := checkNormalEquations(rm, bs, kept, bad, y, new([]float64)); err == nil {
		t.Fatal("wrong x1 accepted")
	}
	// Loss 0 where the least-squares log rate is negative (−0.02).
	y2 := []float64{-0.1, -0.3, -0.01, -0.03}
	if _, err := checkNormalEquations(rm, bs, kept, loss, y2, new([]float64)); err == nil || !strings.Contains(err.Error(), "served loss 0") {
		t.Fatalf("clamp over a negative log rate accepted: %v", err)
	}
}

func TestDetectionRates(t *testing.T) {
	var d detection
	// Truly congested: links 0 and 1 (tl 0.01). Flagged: 1 and 2.
	d.add([]float64{0.05, 0.2, 0.001, 0}, 0.01, []bool{false, true, true, false})
	dr, fpr := d.rates()
	if dr != 0.5 || fpr != 0.5 {
		t.Fatalf("DR %v FPR %v, want 0.5 and 0.5", dr, fpr)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	s := sortedCopy(xs)
	if quantile(s, 0.5) != 3 || quantile(s, 0.9) != 4.6 || quantile(s, 0) != 1 {
		t.Fatalf("quantiles %v %v %v", quantile(s, 0.5), quantile(s, 0.9), quantile(s, 0))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "step", Step: 1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "serve.ingest", Step: 1, Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: "lia.ingest_batch", Step: 1, Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "serve.links", Step: 1, Start: 60, End: 90},
	}
	self := selfTimes(spans)
	want := []int64{20, 20, 30, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self times %v, want %v", self, want)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	const ms = int64(time.Millisecond)
	good := func() ([]span, []timing) {
		spans := []span{
			{ID: 0, Parent: -1, Name: "step", Step: 1, Start: 0, End: 100 * ms},
			{ID: 1, Parent: 0, Name: "serve.ingest", Step: 1, Start: 0, End: 40 * ms},
			{ID: 2, Parent: 1, Name: "lia.ingest_batch", Step: 1, Start: 10 * ms, End: 30 * ms},
			{ID: 3, Parent: 0, Name: "serve.links", Step: 1, Start: 40 * ms, End: 100 * ms},
			{ID: 4, Parent: 3, Name: "lia.steady", Step: 1, Start: 41 * ms, End: 90 * ms},
		}
		calls := []timing{
			{step: 1, name: "serve.ingest", d: time.Duration(40*ms - 1000)},
			{step: 1, name: "serve.links", d: time.Duration(60*ms - 1000)},
		}
		return spans, calls
	}
	spans, calls := good()
	if err := checkSpans(spans, calls); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(s []span, c []timing) []timing{
		// A child outside its parent breaks the self-time sum.
		"overhanging child":   func(s []span, c []timing) []timing { s[3].End = 110 * ms; return c },
		"missing engine span": func(s []span, c []timing) []timing { s[4].Name = "lia.infer"; return c },
		"wrong request":       func(s []span, c []timing) []timing { c[1].name = "serve.infer"; return c },
		"missing request":     func(s []span, c []timing) []timing { return c[:1] },
		// The span times a longer interval than the request took.
		"long span": func(s []span, c []timing) []timing { c[1].d = time.Duration(50 * ms); return c },
		// 20 ms of the step lie outside every request.
		"uncovered step": func(s []span, c []timing) []timing {
			s[3].Start, s[4].Start = 60*ms, 61*ms
			c[1].d = time.Duration(40 * ms)
			return c
		},
	}
	for name, spoil := range cases {
		spans, calls := good()
		calls = spoil(spans, calls)
		if err := checkSpans(spans, calls); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
