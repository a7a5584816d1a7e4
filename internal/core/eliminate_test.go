package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"lia/internal/linalg"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// floatEliminate is the float reference the exact elimination replaced:
// sequentialSuffix binary-searches the paper's cut with pivoted-QR rank
// tests, greedyBasis runs modified Gram–Schmidt with a 1e-9·√np tolerance.
func floatEliminate(rm *topology.RoutingMatrix, variances []float64, strategy Elimination) []int {
	var kept []int
	if strategy == EliminateGreedyBasis {
		kept = greedyBasis(rm, variances)
	} else {
		kept = sequentialSuffix(rm, variances, 0)
	}
	slices.Sort(kept)
	return kept
}

// sequentialSuffix finds the smallest t such that the columns with the
// (nc−t) largest variances are linearly independent — exactly the state the
// paper's remove-smallest loop terminates in — via binary search (suffix
// independence is monotone in t).
func sequentialSuffix(rm *topology.RoutingMatrix, variances []float64, workers int) []int {
	nc := rm.NumLinks()
	order := VarianceOrder(variances)
	suffixIndependent := func(t int) bool {
		cols := order[t:]
		if len(cols) == 0 {
			return true
		}
		if len(cols) > rm.NumPaths() {
			return false
		}
		sub := rm.DenseColumns(cols)
		return linalg.NewPivotedQRWorkers(sub, workers).Rank() == len(cols)
	}
	// Lower bound: at least nc − rank(R) columns must go.
	lo := nc - rm.Rank()
	hi := nc
	if suffixIndependent(lo) {
		hi = lo
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if suffixIndependent(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return append([]int(nil), order[hi:]...)
}

// greedyBasis performs modified Gram–Schmidt over columns in descending
// variance order, keeping every column that adds a new direction.
func greedyBasis(rm *topology.RoutingMatrix, variances []float64) []int {
	np := rm.NumPaths()
	order := VarianceOrder(variances)
	// Descending.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	var basis [][]float64
	var kept []int
	col := make([]float64, np)
	tol := 1e-9 * math.Sqrt(float64(np))
	for _, k := range order {
		for i := range col {
			col[i] = 0
		}
		for _, p := range rm.PathsThrough(k) {
			col[p] = 1
		}
		norm0 := linalg.Norm2(col)
		if norm0 == 0 {
			continue
		}
		// Two rounds of MGS for numerical safety.
		for round := 0; round < 2; round++ {
			for _, q := range basis {
				d := linalg.Dot(q, col)
				for i := range col {
					col[i] -= d * q[i]
				}
			}
		}
		if n := linalg.Norm2(col); n > tol*norm0 {
			q := make([]float64, np)
			for i := range col {
				q[i] = col[i] / n
			}
			basis = append(basis, q)
			kept = append(kept, k)
		}
	}
	return kept
}

// leafTree returns the routes of a random tree with the given number of
// leaves below one shared access link, shaped like perfbench's workloads:
// a uniformly drawn leaf splits into 2 to 4 children until enough leaves
// exist.
func leafTree(rng *rand.Rand, leaves int) []topology.Path {
	next := 1
	open := [][]int{{0}}
	for len(open) < leaves {
		i := rng.IntN(len(open))
		parent := open[i]
		open[i] = open[len(open)-1]
		open = open[:len(open)-1]
		kids := min(2+rng.IntN(3), leaves-len(open))
		for c := 0; c < kids; c++ {
			open = append(open, append(slices.Clone(parent), next))
			next++
		}
	}
	paths := make([]topology.Path, len(open))
	for i, r := range open {
		paths[i] = topology.Path{Beacon: 0, Dst: i + 1, Links: r}
	}
	return paths
}

// meshPaths routes every pair of hosts drawn from a topogen mesh, with
// fluttering paths removed (Assumption T.2).
func meshPaths(rng *rand.Rand, net *topogen.Network, hosts int) []topology.Path {
	h := topogen.SelectHosts(rng, net, hosts)
	paths, _ := topology.RemoveFluttering(topogen.Routes(net, h, h))
	return paths
}

// TestExactRankMatchesFloat checks every exact rank question against the
// float code it replaced: the kept sets of both elimination strategies,
// rank(R) and rank(A), on tree and mesh topologies under four variance draws
// each (10 % of links U(0, 1e-2), the rest U(0, 1e-7)), and that a prime
// dividing a minor panics instead of answering.
func TestExactRankMatchesFloat(t *testing.T) {
	topologies := []struct {
		name  string
		paths func(rng *rand.Rand) []topology.Path
	}{
		{"tree", func(rng *rand.Rand) []topology.Path {
			net := topogen.Tree(rng, 600, 6)
			return topogen.Routes(net, []int{0}, net.Hosts)
		}},
		{"barabasi-albert", func(rng *rand.Rand) []topology.Path {
			return meshPaths(rng, topogen.BarabasiAlbert(rng, 1000, 2), 15)
		}},
		{"waxman", func(rng *rand.Rand) []topology.Path {
			return meshPaths(rng, topogen.Waxman(rng, 800, 0.15, 0.2), 15)
		}},
		{"hierarchical", func(rng *rand.Rand) []topology.Path {
			return meshPaths(rng, topogen.HierarchicalTopDown(rng, 10, 40), 15)
		}},
		{"perfbench-tree-600", func(rng *rand.Rand) []topology.Path { return leafTree(rng, 600) }},
	}
	for ti, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			rm, err := topology.Build(tc.paths(rand.New(rand.NewPCG(uint64(ti), 21))))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rm.Rank(), linalg.NewPivotedQR(rm.Dense()).Rank(); got != want {
				t.Fatalf("rank(R): exact %d, float %d", got, want)
			}
			gr := NewGram(rm.NumLinks())
			VisitPairs(rm, func(_, _ int, support []int32) { gr.AddEquation(support, 0) })
			if got, want := AugmentedRank(rm), linalg.NewPivotedQR(gr.g).Rank(); got != want {
				t.Fatalf("rank(A): exact %d, float rank of AᵀA %d", got, want)
			}
			for seed := uint64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewPCG(seed, 22))
				vars := make([]float64, rm.NumLinks())
				for k := range vars {
					if rng.Float64() < 0.1 {
						vars[k] = 1e-2 * rng.Float64()
					} else {
						vars[k] = 1e-7 * rng.Float64()
					}
				}
				for _, strategy := range []Elimination{EliminatePaperSequential, EliminateGreedyBasis} {
					kept, removed := Eliminate(rm, vars, strategy)
					if want := floatEliminate(rm, vars, strategy); !slices.Equal(kept, want) {
						t.Fatalf("seed %d, %v (%d×%d): exact kept %d links, float %d; first difference %v",
							seed, strategy, rm.NumPaths(), rm.NumLinks(), len(kept), len(want), firstDiff(kept, want))
					}
					if len(kept)+len(removed) != rm.NumLinks() {
						t.Fatalf("seed %d, %v: kept %d + removed %d != %d links", seed, strategy, len(kept), len(removed), rm.NumLinks())
					}
				}
			}
		})
	}

	// Columns (1,1,0), (0,1,1), (1,0,1) have det 2: dependent mod 2,
	// independent over ℚ and mod 3.
	t.Run("prime-disagreement", func(t *testing.T) {
		rm, err := topology.Build([]topology.Path{
			{Beacon: 0, Dst: 1, Links: []int{1, 3}},
			{Beacon: 0, Dst: 2, Links: []int{1, 2}},
			{Beacon: 0, Dst: 3, Links: []int{2, 3}},
		})
		if err != nil {
			t.Fatal(err)
		}
		vars := []float64{0.3, 0.2, 0.1}
		withPrimes := func(p, q uint64) func(int) *linalg.Span {
			return func(dim int) *linalg.Span { return linalg.NewSpanMod(dim, p, q) }
		}
		for _, strategy := range []Elimination{EliminatePaperSequential, EliminateGreedyBasis} {
			kept, _ := eliminate(rm, vars, strategy, withPrimes(3, 1<<61-1))
			if !slices.Equal(kept, []int{0, 1, 2}) {
				t.Fatalf("%v under {3, 2⁶¹−1}: kept %v, want all three", strategy, kept)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v under {2, 2⁶¹−1}: no panic", strategy)
					}
				}()
				eliminate(rm, vars, strategy, withPrimes(2, 1<<61-1))
			}()
		}
	})
}

func firstDiff(a, b []int) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %d vs %d", i, a[i], b[i])
		}
	}
	return "in length"
}
