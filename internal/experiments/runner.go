package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"lia"
	"lia/internal/baseline"
	"lia/internal/core"
	"lia/internal/lossmodel"
	"lia/internal/netsim"
	"lia/internal/stats"
	"lia/internal/topology"
)

// SnapshotRecord pairs a simulated snapshot with the assigned (ground truth)
// loss rates in force when it was taken.
type SnapshotRecord struct {
	Snap     *netsim.Snapshot
	Assigned []float64
}

// SimulateSeries runs count snapshots of the configured workload, advancing
// the loss scenario between snapshots.
func SimulateSeries(w *Workload, cfg Config, runSeed uint64, count int) []SnapshotRecord {
	return simulateSeriesWeighted(w, cfg, runSeed, count, nil)
}

// simulateSeriesWeighted additionally skews which links are congestion-prone
// (see lossmodel.Config.ProneWeights).
func simulateSeriesWeighted(w *Workload, cfg Config, runSeed uint64, count int, weights []float64) []SnapshotRecord {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, runSeed^0xabcdef12345))
	scen := lossmodel.NewScenario(lossmodel.Config{
		Model:        cfg.Model,
		Process:      cfg.Kind,
		Fraction:     cfg.Fraction,
		Good:         cfg.Good,
		ProneWeights: weights,
	}, rng, w.RM.NumLinks())
	sim := netsim.New(w.RM, netsim.Config{
		Probes: cfg.Probes,
		Mode:   cfg.Fidelity.Mode(),
		Kind:   cfg.Kind,
		Seed:   cfg.Seed*1_000_003 + runSeed,
	})
	out := make([]SnapshotRecord, 0, count)
	for t := 0; t < count; t++ {
		if t > 0 {
			scen.Advance()
		}
		out = append(out, SnapshotRecord{
			Snap:     sim.Run(scen.Rates()),
			Assigned: append([]float64(nil), scen.Rates()...),
		})
	}
	return out
}

// newEngine builds the LIA engine an experiment runs, with the elimination
// strategy and negative-covariance policy the configuration selects.
func newEngine(rm *topology.RoutingMatrix, cfg Config) (*lia.Engine, error) {
	return lia.NewEngine(rm,
		lia.WithStrategy(cfg.Strategy),
		lia.WithNegCovPolicy(cfg.Variance.NegPolicy),
	)
}

// RunMetrics aggregates the quality of one inference.
type RunMetrics struct {
	// Det compares the congestion classification against the assigned
	// (scenario ground truth) statuses.
	Det stats.Detection
	// StrictFPR counts, among links classified congested, only those whose
	// *realized* loss rate in the inferred snapshot was below the threshold:
	// links flagged because of inference error rather than because they
	// genuinely dropped packets that snapshot. Plain FPR additionally counts
	// good-assigned links that burst past tl in the realization — events no
	// estimator of the snapshot's actual losses could classify differently.
	StrictFPR       float64
	StrictPositives int // strict false positives (raw count)
	AbsErrors       []float64
	ErrFactors      []float64
	Kept            int // columns in R*
	Congested       int // truly congested links
}

// evaluate compares an inference result against the snapshot it explains.
func evaluate(rec SnapshotRecord, res *core.Result) RunMetrics {
	nc := len(rec.Assigned)
	truth := make([]bool, nc)
	congested := 0
	for k, q := range rec.Assigned {
		if q > lossmodel.Threshold {
			truth[k] = true
			congested++
		}
	}
	// Classify at tl plus half a probe of margin (realized rates are
	// quantized to 1/S) and gate on the Phase-1 variance (Assumption S.3:
	// a truly congested link cannot have near-zero variance).
	margin := 0.5 / float64(rec.Snap.Probes)
	gate := core.VarGateAt(lossmodel.Threshold, rec.Snap.Probes)
	inferred := res.CongestedGated(lossmodel.Threshold+margin, gate)
	m := RunMetrics{
		Det:        stats.Detect(truth, inferred),
		AbsErrors:  make([]float64, nc),
		ErrFactors: make([]float64, nc),
		Kept:       len(res.Kept),
		Congested:  congested,
	}
	identified, strictFP := 0, 0
	for k := 0; k < nc; k++ {
		real := rec.Snap.LinkRealized[k]
		m.AbsErrors[k] = math.Abs(real - res.LossRates[k])
		m.ErrFactors[k] = stats.ErrorFactor(real, res.LossRates[k], stats.DefaultDelta)
		if inferred[k] {
			identified++
			if real <= lossmodel.Threshold {
				strictFP++
			}
		}
	}
	if identified > 0 {
		m.StrictFPR = float64(strictFP) / float64(identified)
	}
	m.StrictPositives = strictFP
	return m
}

// CheckpointResult is the outcome of LIA (and single-snapshot SCFS) after
// learning from the first M snapshots and inferring on snapshot M.
type CheckpointResult struct {
	M    int
	LIA  RunMetrics
	SCFS stats.Detection
}

// RunCheckpoints drives one experiment run: it simulates max(checkpoints)+1
// snapshots, then for every checkpoint m (ascending) learns on the first m
// snapshots and infers on the (m+1)-th, mirroring the paper's protocol.
// SCFS sees only the inferred snapshot.
func RunCheckpoints(w *Workload, cfg Config, runSeed uint64, checkpoints []int) ([]CheckpointResult, error) {
	cfg = cfg.withDefaults()
	maxM := 0
	for _, m := range checkpoints {
		if m <= 0 {
			return nil, fmt.Errorf("experiments: checkpoint %d must be positive", m)
		}
		if m > maxM {
			maxM = m
		}
	}
	series := SimulateSeries(w, cfg, runSeed, maxM+1)
	eng, err := newEngine(w.RM, cfg)
	if err != nil {
		return nil, err
	}
	want := make(map[int]bool, len(checkpoints))
	for _, m := range checkpoints {
		want[m] = true
	}
	var out []CheckpointResult
	for t := 0; t < maxM; t++ {
		if err := eng.Ingest(series[t].Snap.LogRates()); err != nil {
			return nil, err
		}
		m := t + 1
		if !want[m] {
			continue
		}
		rec := series[m] // the (m+1)-th snapshot
		res, err := eng.Infer(context.Background(), rec.Snap.LogRates())
		if err != nil {
			return nil, fmt.Errorf("experiments: checkpoint m=%d: %w", m, err)
		}
		truth := make([]bool, w.RM.NumLinks())
		for k, q := range rec.Assigned {
			truth[k] = q > lossmodel.Threshold
		}
		scfs := baseline.SCFS(w.RM, baseline.PathStatus(w.RM, rec.Snap.Frac, lossmodel.Threshold))
		if w.Name != "tree" {
			scfs = baseline.GreedyCover(w.RM, baseline.PathStatus(w.RM, rec.Snap.Frac, lossmodel.Threshold))
		}
		out = append(out, CheckpointResult{
			M:    m,
			LIA:  evaluate(rec, res),
			SCFS: stats.Detect(truth, scfs),
		})
	}
	return out, nil
}

// RunOnce is the single-checkpoint convenience used by Table 2 and the
// sweeps: learn on cfg.Snapshots snapshots, infer on the next.
func RunOnce(w *Workload, cfg Config, runSeed uint64) (CheckpointResult, error) {
	cfg = cfg.withDefaults()
	res, err := RunCheckpoints(w, cfg, runSeed, []int{cfg.Snapshots})
	if err != nil {
		return CheckpointResult{}, err
	}
	return res[0], nil
}
