// Command liasim regenerates every table and figure of the paper's
// evaluation (Sections 6 and 7) from the simulation harness.
//
// Usage:
//
//	liasim -experiment fig5 [-scale 0.5] [-runs 10] [-seed 1] ...
//	liasim -experiment all
//
// Experiments: fig3, fig5, fig6, fig7, fig8a, fig8b, table2, fig9, table3,
// durations, runtimes, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lia"
	"lia/internal/experiments"
	"lia/internal/lossmodel"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment to run (fig3, fig5, fig6, fig7, fig8a, fig8b, table2, fig9, table3, durations, runtimes, all)")
		scale    = flag.Float64("scale", 1.0, "topology size multiplier (1.0 = paper-scale)")
		runs     = flag.Int("runs", 10, "repetitions per configuration")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		m        = flag.Int("m", 50, "learning snapshots")
		probes   = flag.Int("S", 1000, "probes per snapshot")
		p        = flag.Float64("p", 0.10, "fraction of congested links")
		model    = flag.String("model", "llrd1", "loss-rate model: llrd1 or llrd2")
		kind     = flag.String("process", "gilbert", "loss process: gilbert or bernoulli")
		good     = flag.String("good", "near-zero", "good-link rate shape: near-zero or uniform")
		fidelity = flag.String("fidelity", "exact", "snapshot fidelity: exact, packet-shared, packet-per-path")
		strategy = flag.String("strategy", "paper", "phase-2 elimination: paper or greedy")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:      *seed,
		Snapshots: *m,
		Probes:    *probes,
		Fraction:  *p,
		Runs:      *runs,
		Scale:     *scale,
	}
	switch strings.ToLower(*model) {
	case "llrd1":
		cfg.Model = lossmodel.LLRD1
	case "llrd2":
		cfg.Model = lossmodel.LLRD2
	default:
		fatalf("unknown -model %q", *model)
	}
	switch strings.ToLower(*kind) {
	case "gilbert":
		cfg.Kind = lossmodel.Gilbert
	case "bernoulli":
		cfg.Kind = lossmodel.Bernoulli
	default:
		fatalf("unknown -process %q", *kind)
	}
	switch strings.ToLower(*good) {
	case "near-zero":
		cfg.Good = lossmodel.GoodNearZero
	case "uniform":
		cfg.Good = lossmodel.GoodUniform
	default:
		fatalf("unknown -good %q", *good)
	}
	switch strings.ToLower(*fidelity) {
	case "exact":
		cfg.Fidelity = experiments.FidelityExact
	case "packet-shared":
		cfg.Fidelity = experiments.FidelityPacketShared
	case "packet-per-path":
		cfg.Fidelity = experiments.FidelityPacketPerPath
	default:
		fatalf("unknown -fidelity %q", *fidelity)
	}
	switch strings.ToLower(*strategy) {
	case "paper":
		cfg.Strategy = lia.StrategyPaperSequential
	case "greedy":
		cfg.Strategy = lia.StrategyGreedyBasis
	default:
		fatalf("unknown -strategy %q", *strategy)
	}
	names := []string{strings.ToLower(*exp)}
	if names[0] == "all" {
		names = []string{"fig3", "fig5", "fig6", "fig7", "fig8a", "fig8b", "table2", "fig9", "table3", "durations", "runtimes"}
	}
	for _, name := range names {
		if err := runExperiment(name, cfg); err != nil {
			fatalf("%s: %v", name, err)
		}
	}
}

func runExperiment(name string, cfg experiments.Config) error {
	switch name {
	case "fig3":
		t, corr, err := experiments.Figure3(cfg, 250)
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		fmt.Printf("mean-variance Pearson correlation: %.3f (Assumption S.3)\n\n", corr)
	case "fig5":
		return printTable(experiments.Figure5(cfg))
	case "fig6":
		a, b, err := experiments.Figure6(cfg)
		if err != nil {
			return err
		}
		a.Fprint(os.Stdout)
		fmt.Println()
		b.Fprint(os.Stdout)
		fmt.Println()
	case "fig7":
		return printTable(experiments.Figure7(cfg))
	case "fig8a":
		return printTable(experiments.Figure8a(cfg))
	case "fig8b":
		return printTable(experiments.Figure8b(cfg))
	case "table2":
		return printTable(experiments.Table2(cfg))
	case "fig9":
		return printTable(experiments.Figure9(cfg))
	case "table3":
		return printTable(experiments.Table3(cfg))
	case "durations":
		t, err := experiments.CongestionDurations(cfg, 60, 0.01)
		return printTable(t, err)
	case "runtimes":
		return printTable(experiments.RunningTimes(cfg, "planetlab"))
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func printTable(t *experiments.Table, err error) error {
	if err != nil {
		return err
	}
	t.Fprint(os.Stdout)
	fmt.Println()
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "liasim: "+format+"\n", args...)
	os.Exit(2)
}
