package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"lia/internal/asmap"
	"lia/internal/lossmodel"
	"lia/internal/netsim"
	"lia/internal/topology"
)

// DefaultEpsilon is the paper's cross-validation tolerance (Section 7.1).
const DefaultEpsilon = 0.005

// CrossValidate implements the indirect validation of Section 7.2.1 on one
// snapshot series: the paths are split randomly in half, LIA runs on the
// inference half (learning from the first m snapshots, inferring on
// snapshot m), and the inferred link rates must predict the validation
// half's measured rates within eps. It returns the fraction of consistent
// validation paths.
//
// fracs must hold at least m+1 snapshots of per-path received fractions
// aligned with paths.
func CrossValidate(paths []topology.Path, fracs [][]float64, m int, probes int, eps float64, seed uint64) (float64, error) {
	if len(fracs) < m+1 {
		return 0, fmt.Errorf("experiments: cross-validation needs %d snapshots, have %d", m+1, len(fracs))
	}
	if len(paths) < 4 {
		return 0, fmt.Errorf("experiments: cross-validation needs at least 4 paths")
	}
	rng := rand.New(rand.NewPCG(seed, 0xC5))
	perm := rng.Perm(len(paths))
	half := len(paths) / 2
	infIdx, valIdx := perm[:half], perm[half:]

	infPaths := make([]topology.Path, len(infIdx))
	for i, idx := range infIdx {
		infPaths[i] = paths[idx]
	}
	rmInf, err := topology.Build(infPaths)
	if err != nil {
		return 0, fmt.Errorf("experiments: inference topology: %w", err)
	}
	eng, err := newEngine(rmInf, Config{})
	if err != nil {
		return 0, err
	}
	for t := 0; t < m; t++ {
		y := make([]float64, len(infIdx))
		for i, idx := range infIdx {
			y[i] = logOne(fracs[t][idx], probes)
		}
		if err := eng.Ingest(y); err != nil {
			return 0, err
		}
	}
	yInfer := make([]float64, len(infIdx))
	for i, idx := range infIdx {
		yInfer[i] = logOne(fracs[m][idx], probes)
	}
	res, err := eng.Infer(context.Background(), yInfer)
	if err != nil {
		return 0, err
	}
	// Distribute each virtual link's log rate uniformly over its member
	// physical links, so validation paths that cross only part of an alias
	// group get a proportional share.
	physLog := make(map[int]float64)
	for idx, k := range res.Kept {
		_ = idx
		members := rmInf.Members(k)
		share := res.LogRates[k] / float64(len(members))
		for _, l := range members {
			physLog[l] = share
		}
	}
	for _, k := range res.Removed {
		for _, l := range rmInf.Members(k) {
			physLog[l] = 0
		}
	}
	consistent := 0
	for _, idx := range valIdx {
		var sum float64
		for _, link := range paths[idx].Links {
			if x, ok := physLog[link]; ok {
				sum += x
			}
		}
		pred := math.Exp(sum)
		if math.Abs(fracs[m][idx]-pred) <= eps {
			consistent++
		}
	}
	return float64(consistent) / float64(len(valIdx)), nil
}

func logOne(f float64, probes int) float64 {
	if f <= 0 {
		f = 0.5 / float64(probes)
	}
	return math.Log(f)
}

// CrossValidationCurve computes the Figure 9 series — percentage of
// consistent validation paths versus the number of learning snapshots m —
// over the given snapshot data, averaging `splits` random partitions per m.
func CrossValidationCurve(paths []topology.Path, fracs [][]float64, probes int, ms []int, eps float64, splits int, seed uint64) (*Table, error) {
	if splits < 1 {
		splits = 10
	}
	t := &Table{
		Title:     fmt.Sprintf("Figure 9: cross-validation on the overlay (ε=%g)", eps),
		Header:    []string{"m", "consistent %"},
		Precision: []int{0, 2},
	}
	for _, m := range ms {
		var sum float64
		for s := 0; s < splits; s++ {
			c, err := CrossValidate(paths, fracs, m, probes, eps, seed+uint64(m*1000+s))
			if err != nil {
				return nil, err
			}
			sum += c
		}
		t.AddRow("", float64(m), 100*sum/float64(splits))
	}
	return t, nil
}

// Figure9 regenerates Figure 9 using the simulated overlay workload: the
// percentage of validation paths consistent with the inferred link rates as
// m grows (the paper reports >95%, flattening beyond m ≈ 80).
func Figure9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ms := []int{20, 40, 60, 80, 100}
	maxM := ms[len(ms)-1]
	rng := rand.New(rand.NewPCG(cfg.Seed, 99))
	w, err := MakeWorkload("planetlab", cfg, rng)
	if err != nil {
		return nil, err
	}
	series := SimulateSeries(w, cfg, 99, maxM+1)
	fracs := make([][]float64, len(series))
	for t, rec := range series {
		fracs[t] = rec.Snap.Frac
	}
	paths := make([]topology.Path, w.RM.NumPaths())
	for i := range paths {
		paths[i] = w.RM.Path(i)
	}
	return CrossValidationCurve(paths, fracs, cfg.Probes, ms, DefaultEpsilon, cfg.Runs, cfg.Seed)
}

// Table3Thresholds are the loss thresholds of Table 3.
var Table3Thresholds = []float64{0.04, 0.02, 0.01}

// Table3 regenerates Table 3: the split of congested links between inter-AS
// and intra-AS locations for decreasing loss thresholds.
func Table3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:     "Table 3: location of congested links (inter- vs intra-AS)",
		Header:    []string{"tl", "inter-AS %", "intra-AS %", "congested"},
		Precision: []int{2, 1, 1, 1},
	}
	sums := make(map[float64]*asmap.Location)
	for _, tl := range Table3Thresholds {
		sums[tl] = &asmap.Location{Threshold: tl}
	}
	counts := make(map[float64]int)
	for run := 0; run < cfg.Runs; run++ {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(run)*101+13))
		w, err := MakeWorkload("planetlab", cfg, rng)
		if err != nil {
			return nil, err
		}
		// Peering (inter-AS) links congest more often than internal ones —
		// the effect behind the paper's inter-AS majority in Table 3.
		interAS := asmap.InterASLinks(w.Net, w.RM)
		weights := make([]float64, w.RM.NumLinks())
		for k, inter := range interAS {
			if inter {
				weights[k] = 1.5
			} else {
				weights[k] = 0.8
			}
		}
		series := simulateSeriesWeighted(w, cfg, uint64(run)+500, cfg.Snapshots+1, weights)
		eng, err := newEngine(w.RM, cfg)
		if err != nil {
			return nil, err
		}
		for t := 0; t < cfg.Snapshots; t++ {
			if err := eng.Ingest(series[t].Snap.LogRates()); err != nil {
				return nil, err
			}
		}
		res, err := eng.Infer(context.Background(), series[cfg.Snapshots].Snap.LogRates())
		if err != nil {
			return nil, err
		}
		inter := asmap.InterASLinks(w.Net, w.RM)
		locs, err := asmap.LocateCongested(inter, res.LossRates, Table3Thresholds)
		if err != nil {
			return nil, err
		}
		for _, loc := range locs {
			if loc.Congested == 0 {
				continue
			}
			s := sums[loc.Threshold]
			s.InterAS += loc.InterAS
			s.IntraAS += loc.IntraAS
			s.Congested += loc.Congested
			counts[loc.Threshold]++
		}
	}
	for _, tl := range Table3Thresholds {
		n := float64(counts[tl])
		if n == 0 {
			t.AddRow("", tl, 0, 0, 0)
			continue
		}
		s := sums[tl]
		t.AddRow("", tl, 100*s.InterAS/n, 100*s.IntraAS/n, float64(s.Congested)/n)
	}
	return t, nil
}

// CongestionDurations regenerates the Section 7.2.2 analysis: LIA runs on a
// sliding window of m snapshots over a series with transient (episodic)
// congestion, and the durations of inferred congestion episodes are
// tallied. The paper finds 99% of congested links stay congested for one
// snapshot and the rest for two.
func CongestionDurations(cfg Config, observed int, tl float64) (*Table, error) {
	cfg = cfg.withDefaults()
	if observed <= 0 {
		observed = 60
	}
	if tl <= 0 {
		tl = 0.01
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 777))
	w, err := MakeWorkload("planetlab", cfg, rng)
	if err != nil {
		return nil, err
	}
	// Episodic congestion: prone links flare up with probability 0.25 per
	// snapshot, so true episode lengths are nearly all one snapshot.
	scen := lossmodel.NewScenario(lossmodel.Config{
		Model:    cfg.Model,
		Fraction: cfg.Fraction,
		Good:     cfg.Good,
		Episodic: 0.25,
	}, rng, w.RM.NumLinks())
	sim := netsim.New(w.RM, netsim.Config{
		Probes: cfg.Probes,
		Mode:   cfg.Fidelity.Mode(),
		Kind:   cfg.Kind,
		Seed:   cfg.Seed * 31,
	})
	total := cfg.Snapshots + observed
	series := make([]*netsim.Snapshot, total)
	for t := 0; t < total; t++ {
		if t > 0 {
			scen.Advance()
		}
		series[t] = sim.Run(scen.Rates())
	}
	tracker := asmap.NewDurationTracker(w.RM.NumLinks())
	truthTracker := asmap.NewDurationTracker(w.RM.NumLinks())
	for t := cfg.Snapshots; t < total; t++ {
		eng, err := newEngine(w.RM, cfg)
		if err != nil {
			return nil, err
		}
		for s := t - cfg.Snapshots; s < t; s++ {
			if err := eng.Ingest(series[s].LogRates()); err != nil {
				return nil, err
			}
		}
		res, err := eng.Infer(context.Background(), series[t].LogRates())
		if err != nil {
			return nil, err
		}
		tracker.Observe(res.Congested(tl))
		truth := make([]bool, w.RM.NumLinks())
		for k, q := range series[t].LinkRate {
			truth[k] = q > tl
		}
		truthTracker.Observe(truth)
	}
	one, two, more := tracker.Fractions()
	t1, t2, t3 := truthTracker.Fractions()
	tab := &Table{
		Title:     fmt.Sprintf("Section 7.2.2: congestion episode durations (tl=%g, m=%d, %d snapshots)", tl, cfg.Snapshots, observed),
		Header:    []string{"1 snapshot %", "2 snapshots %", "3+ snapshots %"},
		Precision: []int{1, 1, 1},
	}
	tab.AddRow("inferred", 100*one, 100*two, 100*more)
	tab.AddRow("ground truth", 100*t1, 100*t2, 100*t3)
	return tab, nil
}
