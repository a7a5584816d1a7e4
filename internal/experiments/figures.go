package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"lia/internal/core"
	"lia/internal/stats"
)

// Figure5 regenerates the paper's Figure 5: detection rate and false
// positive rate of LIA versus single-snapshot SCFS on the 1000-node tree as
// the number of learning snapshots m grows from 10 to 100.
func Figure5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	checkpoints := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	type agg struct{ liaDR, liaFPR, liaStrict, scfsDR, scfsFPR float64 }
	sum := make(map[int]*agg, len(checkpoints))
	for _, m := range checkpoints {
		sum[m] = &agg{}
	}
	for run := 0; run < cfg.Runs; run++ {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(run)))
		w, err := MakeWorkload("tree", cfg, rng)
		if err != nil {
			return nil, err
		}
		results, err := RunCheckpoints(w, cfg, uint64(run), checkpoints)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			a := sum[r.M]
			a.liaDR += r.LIA.Det.DR
			a.liaFPR += r.LIA.Det.FPR
			a.liaStrict += r.LIA.StrictFPR
			a.scfsDR += r.SCFS.DR
			a.scfsFPR += r.SCFS.FPR
		}
	}
	t := &Table{
		Title:     "Figure 5: congested-link location vs number of snapshots m (tree, p=10%)",
		Header:    []string{"m", "LIA DR", "LIA FPR", "LIA FPR*", "SCFS DR", "SCFS FPR"},
		Precision: []int{0, 3, 3, 3, 3, 3},
	}
	n := float64(cfg.Runs)
	for _, m := range checkpoints {
		a := sum[m]
		t.AddRow("", float64(m), a.liaDR/n, a.liaFPR/n, a.liaStrict/n, a.scfsDR/n, a.scfsFPR/n)
	}
	return t, nil
}

// Figure6 regenerates Figure 6: the CDFs of the absolute error and of the
// error factor fδ at m = 50 snapshots on the tree topology.
func Figure6(cfg Config) (absCDF, efCDF *Table, err error) {
	cfg = cfg.withDefaults()
	var absErrs, efs []float64
	for run := 0; run < cfg.Runs; run++ {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(run)))
		w, err := MakeWorkload("tree", cfg, rng)
		if err != nil {
			return nil, nil, err
		}
		r, err := RunOnce(w, cfg, uint64(run))
		if err != nil {
			return nil, nil, err
		}
		absErrs = append(absErrs, r.LIA.AbsErrors...)
		efs = append(efs, r.LIA.ErrFactors...)
	}
	absCDF = &Table{
		Title:     fmt.Sprintf("Figure 6a: CDF of absolute error (m=%d)", cfg.Snapshots),
		Header:    []string{"abs error", "CDF"},
		Precision: []int{5, 3},
	}
	grid := []float64{0, 0.00025, 0.0005, 0.00075, 0.001, 0.00125, 0.0015, 0.002, 0.0025, 0.005, 0.01, 0.02}
	for i, c := range stats.CDF(absErrs, grid) {
		absCDF.AddRow("", grid[i], c)
	}
	efCDF = &Table{
		Title:     fmt.Sprintf("Figure 6b: CDF of error factor fδ (m=%d, δ=%g)", cfg.Snapshots, stats.DefaultDelta),
		Header:    []string{"error factor", "CDF"},
		Precision: []int{3, 3},
	}
	efGrid := []float64{1, 1.01, 1.02, 1.05, 1.1, 1.15, 1.2, 1.25, 1.5, 2, 3, 5}
	for i, c := range stats.CDF(efs, efGrid) {
		efCDF.AddRow("", efGrid[i], c)
	}
	return absCDF, efCDF, nil
}

// table2Topologies are the six rows of Table 2, in paper order.
var table2Topologies = []string{
	"barabasi-albert", "waxman", "hierarchical-td", "hierarchical-bu", "planetlab", "dimes",
}

// Table2 regenerates Table 2: location accuracy and loss-rate error
// statistics across the six mesh topologies.
func Table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: fmt.Sprintf("Table 2: simulations on mesh topologies (p=%.0f%%, m=%d, S=%d)",
			cfg.Fraction*100, cfg.Snapshots, cfg.Probes),
		Header:    []string{"DR", "FPR", "FPR*", "EF max", "EF med", "EF min", "AE max", "AE med", "AE min"},
		Precision: []int{3, 3, 3, 2, 2, 2, 4, 4, 4},
	}
	for _, name := range table2Topologies {
		var dr, fpr, strict float64
		var efs, aes []float64
		for run := 0; run < cfg.Runs; run++ {
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(run)*31+7))
			w, err := MakeWorkload(name, cfg, rng)
			if err != nil {
				return nil, err
			}
			r, err := RunOnce(w, cfg, uint64(run))
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", name, run, err)
			}
			dr += r.LIA.Det.DR
			fpr += r.LIA.Det.FPR
			strict += r.LIA.StrictFPR
			efs = append(efs, r.LIA.ErrFactors...)
			aes = append(aes, r.LIA.AbsErrors...)
		}
		n := float64(cfg.Runs)
		ef := stats.Summarize(efs)
		ae := stats.Summarize(aes)
		t.AddRow(name, dr/n, fpr/n, strict/n, ef.Max, ef.Median, ef.Min, ae.Max, ae.Median, ae.Min)
	}
	return t, nil
}

// Figure7 regenerates Figure 7: the ratio between the number of congested
// links and the number of columns retained in R*, per topology. A ratio
// below 1 means the full-rank reduction never had to discard a congested
// link.
func Figure7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:     "Figure 7: (#congested links) / (#columns of R*)",
		Header:    []string{"ratio", "congested", "kept"},
		Precision: []int{3, 1, 1},
	}
	for _, name := range TopologyNames {
		var ratio, cong, kept float64
		for run := 0; run < cfg.Runs; run++ {
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(run)*17+3))
			w, err := MakeWorkload(name, cfg, rng)
			if err != nil {
				return nil, err
			}
			r, err := RunOnce(w, cfg, uint64(run))
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", name, run, err)
			}
			ratio += float64(r.LIA.Congested) / float64(r.LIA.Kept)
			cong += float64(r.LIA.Congested)
			kept += float64(r.LIA.Kept)
		}
		n := float64(cfg.Runs)
		t.AddRow(name, ratio/n, cong/n, kept/n)
	}
	return t, nil
}

// Figure8a regenerates Figure 8(a): DR and FPR as the fraction of congested
// links p sweeps from 5% to 25% on the planetlab-like topology.
func Figure8a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:     "Figure 8a: accuracy vs fraction of congested links p (planetlab-like)",
		Header:    []string{"p", "DR", "FPR", "FPR*"},
		Precision: []int{2, 3, 3, 3},
	}
	for _, p := range []float64{0.05, 0.10, 0.15, 0.20, 0.25} {
		c := cfg
		c.Fraction = p
		dr, fpr, strict, err := sweepPoint("planetlab", c)
		if err != nil {
			return nil, err
		}
		t.AddRow("", p, dr, fpr, strict)
	}
	return t, nil
}

// Figure8b regenerates Figure 8(b): DR and FPR as the number of probes per
// snapshot S sweeps from 50 to 1000. The sweep exists to expose probe
// sampling error, so it always runs at packet fidelity (under exact link
// aggregation S only quantizes the realized rates and the curve is flat).
func Figure8b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.Fidelity = FidelityPacketShared
	t := &Table{
		Title:     "Figure 8b: accuracy vs probes per snapshot S (planetlab-like)",
		Header:    []string{"S", "DR", "FPR", "FPR*"},
		Precision: []int{0, 3, 3, 3},
	}
	for _, s := range []int{50, 200, 400, 600, 800, 1000} {
		c := cfg
		c.Probes = s
		dr, fpr, strict, err := sweepPoint("planetlab", c)
		if err != nil {
			return nil, err
		}
		t.AddRow("", float64(s), dr, fpr, strict)
	}
	return t, nil
}

func sweepPoint(name string, cfg Config) (dr, fpr, strict float64, err error) {
	for run := 0; run < cfg.Runs; run++ {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(run)*13+11))
		w, err := MakeWorkload(name, cfg, rng)
		if err != nil {
			return 0, 0, 0, err
		}
		r, err := RunOnce(w, cfg, uint64(run))
		if err != nil {
			return 0, 0, 0, err
		}
		dr += r.LIA.Det.DR
		fpr += r.LIA.Det.FPR
		strict += r.LIA.StrictFPR
	}
	n := float64(cfg.Runs)
	return dr / n, fpr / n, strict / n, nil
}

// Figure3 regenerates Figure 3: the relationship between the mean and the
// variance of per-path loss rates across repeated measurements (the paper
// plots 17,200 PlanetLab paths over one day; we bin the simulated scatter).
// The last column reports the Pearson correlation between a path's mean loss
// and its variance, quantifying the monotonicity assumption S.3.
func Figure3(cfg Config, samples int) (*Table, float64, error) {
	cfg = cfg.withDefaults()
	if samples <= 1 {
		samples = 250 // the paper's per-path sample count
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 333))
	w, err := MakeWorkload("planetlab", cfg, rng)
	if err != nil {
		return nil, 0, err
	}
	series := SimulateSeries(w, cfg, 333, samples)
	np := w.RM.NumPaths()
	means := make([]float64, np)
	vars := make([]float64, np)
	for i := 0; i < np; i++ {
		obs := make([]float64, len(series))
		for t, rec := range series {
			obs[t] = 1 - rec.Snap.Frac[i]
		}
		means[i] = stats.Mean(obs)
		vars[i] = stats.Variance(obs)
	}
	corr := stats.Pearson(means, vars)
	// Bin paths by mean loss.
	type bin struct {
		sumVar float64
		n      int
	}
	const nbins = 12
	maxMean := 0.0
	for _, m := range means {
		if m > maxMean {
			maxMean = m
		}
	}
	if maxMean == 0 {
		maxMean = 1e-9
	}
	bins := make([]bin, nbins)
	for i := range means {
		b := int(means[i] / maxMean * float64(nbins-1))
		bins[b].sumVar += vars[i]
		bins[b].n++
	}
	t := &Table{
		Title:     fmt.Sprintf("Figure 3: mean vs variance of path loss rates (%d paths, %d samples, corr=%.3f)", np, samples, corr),
		Header:    []string{"mean loss (bin center)", "avg variance", "paths"},
		Precision: []int{4, 6, 0},
	}
	for b := range bins {
		if bins[b].n == 0 {
			continue
		}
		center := (float64(b) + 0.5) / nbins * maxMean
		t.AddRow("", center, bins[b].sumVar/float64(bins[b].n), float64(bins[b].n))
	}
	return t, corr, nil
}

// RunningTimes reproduces the Section 6.4 measurements: wall-clock time of
// (a) building the Gram system for A once, (b) the Phase-1 variance solve,
// and (c) the Phase-2 reduced solve, on the named topology.
func RunningTimes(cfg Config, name string) (*Table, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 999))
	w, err := MakeWorkload(name, cfg, rng)
	if err != nil {
		return nil, err
	}
	series := SimulateSeries(w, cfg, 999, cfg.Snapshots+1)
	acc := stats.NewCovAccumulator(w.RM.NumPaths())
	for t := 0; t < cfg.Snapshots; t++ {
		acc.Add(series[t].Snap.LogRates())
	}
	// The one-time pair-support index build is timed on its own: folding it
	// into the A-build number would conflate a per-topology cost with the
	// steady-state Gram fold (which the benchmarks measure index-warm).
	ti := time.Now()
	if err := w.RM.PrecomputePairSupports(); err != nil {
		return nil, err
	}
	indexMS := time.Since(ti).Seconds() * 1000

	t0 := time.Now()
	buildGram := func() {
		gr := core.NewGram(w.RM.NumLinks())
		core.VisitPairs(w.RM, func(i, j int, support []int32) {
			if len(support) > 0 {
				gr.AddEquation(support, 0)
			}
		})
	}
	buildGram()
	gramMS := time.Since(t0).Seconds() * 1000

	// The phases are timed stage by stage rather than through lia.Engine,
	// whose Variances would run the elimination inside the phase-1 timer.
	t1 := time.Now()
	vars, err := core.EstimateVariances(w.RM, acc, cfg.Variance)
	if err != nil {
		return nil, err
	}
	phase1MS := time.Since(t1).Seconds() * 1000

	t2 := time.Now()
	kept, _ := core.Eliminate(w.RM, vars, cfg.Strategy)
	if _, err := core.SolveReduced(w.RM, kept, series[cfg.Snapshots].Snap.LogRates()); err != nil {
		return nil, err
	}
	phase2MS := time.Since(t2).Seconds() * 1000

	tab := &Table{
		Title:     fmt.Sprintf("Section 6.4: running times on %s (np=%d, nc=%d)", name, w.RM.NumPaths(), w.RM.NumLinks()),
		Header:    []string{"pair index (ms)", "A build (ms)", "phase 1 (ms)", "phase 2 (ms)"},
		Precision: []int{2, 2, 2, 2},
	}
	tab.AddRow(name, indexMS, gramMS, phase1MS, phase2MS)
	return tab, nil
}
