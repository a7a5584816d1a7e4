package core

import (
	"math"

	"lia/internal/topology"
)

// CongestionThreshold is the default loss-rate threshold tl separating good
// from congested links (the LLRD models' 0.002).
const CongestionThreshold = 0.002

// Observation selects what the snapshot vectors measure. The identifiability
// theory and both LIA phases are agnostic to it; only the final conversion
// differs.
type Observation int

const (
	// ObserveLogTransmission (default): Y holds log path transmission rates
	// and results convert to loss rates via 1 − eˣ.
	ObserveLogTransmission Observation = iota
	// ObserveLinear: Y holds additive path metrics (e.g. excess queueing
	// delays, the Section 8 extension); results are reported as-is, clamped
	// at zero.
	ObserveLinear
)

// Options configures one LIA pipeline: the Phase-1 negative-covariance
// policy, the Phase-2 elimination strategy, the observation semantics and
// the congestion threshold.
type Options struct {
	Variance VarianceOptions
	Strategy Elimination
	// Observation selects the snapshot semantics (default log transmission).
	Observation Observation
	// Threshold tl used by Result.Congested, honored verbatim: an explicit
	// tl = 0 flags every link with any inferred loss.
	Threshold float64
}

// Result is the output of one Phase-2 inference.
type Result struct {
	// LossRates[k] is the inferred per-link metric: the mean loss rate under
	// ObserveLogTransmission, or the clamped linear metric (e.g. excess
	// delay) under ObserveLinear. Eliminated links report 0.
	LossRates []float64
	// LogRates[k] is the raw reduced-system solution (log transmission rate,
	// or the linear metric; 0 for eliminated links).
	LogRates []float64
	// Kept and Removed partition the virtual links: Kept columns form the
	// full-column-rank R*, Removed columns were approximated as loss-free.
	Kept, Removed []int
	// Variances are the Phase-1 estimates used for the ordering.
	Variances []float64
	// Epoch is the ingestion epoch of the Phase-1 state behind Kept/
	// Variances, when the producer tracks one (lia.Engine does); 0
	// otherwise.
	Epoch int
	// Unresolved lists links whose owning sharded component failed to
	// produce estimates (see lia.ShardedEngine.Infer): their entries above
	// are zero and they appear in neither Kept nor Removed. Nil everywhere
	// else — a plain engine's Result never carries unresolved links.
	Unresolved []int
}

// Congested classifies every virtual link against the threshold tl.
func (r *Result) Congested(tl float64) []bool {
	out := make([]bool, len(r.LossRates))
	for k, q := range r.LossRates {
		out[k] = q > tl
	}
	return out
}

// CongestedGated classifies links as congested only when the inferred rate
// exceeds tl AND the Phase-1 variance exceeds varGate. Under the
// monotonicity assumption S.3 a link with mean loss above tl cannot have a
// variance below the variance at tl, so gating removes false positives
// caused by one-snapshot inference noise on links the learning phase saw to
// be quiet. VarGateAt derives a suitable gate.
func (r *Result) CongestedGated(tl, varGate float64) []bool {
	out := r.Congested(tl)
	for k := range out {
		if out[k] && r.Variances[k] <= varGate {
			out[k] = false
		}
	}
	return out
}

// VarGateAt estimates the variance a link sitting exactly at the congestion
// threshold tl would exhibit across snapshots measured with S probes: the
// sum of the level-redraw variance (uniform on [0, tl]: tl²/12) and the
// burst-inflated sampling variance of the realized rate (≈2.5·tl/S for the
// paper's Gilbert parameter), with a 3× safety factor.
func VarGateAt(tl float64, probes int) float64 {
	if probes <= 0 {
		probes = 1000
	}
	return 3 * (tl*tl/12 + 2.5*tl/float64(probes))
}

// AssembleResult maps the reduced-system solution x (aligned with kept) back
// to full per-link vectors under the given observation semantics. The input
// slices are stored in the Result, not copied.
func AssembleResult(rm *topology.RoutingMatrix, obs Observation, vars []float64, kept, removed []int, x []float64) *Result {
	res := &Result{
		LossRates: make([]float64, rm.NumLinks()),
		LogRates:  make([]float64, rm.NumLinks()),
		Kept:      kept,
		Removed:   removed,
		Variances: vars,
	}
	for idx, k := range kept {
		res.LogRates[k] = x[idx]
		switch obs {
		case ObserveLinear:
			v := x[idx]
			if v < 0 {
				v = 0
			}
			res.LossRates[k] = v
		default:
			// Loss = 1 − e^x, clamped to [0, 1]: sampling noise can push the
			// estimated log transmission rate slightly above 0.
			loss := 1 - math.Exp(x[idx])
			if loss < 0 {
				loss = 0
			} else if loss > 1 {
				loss = 1
			}
			res.LossRates[k] = loss
		}
	}
	return res
}
