package lia

import (
	"errors"
	"fmt"

	"lia/internal/core"
	"lia/internal/stats"
)

// Strategy selects the Phase-2 column-elimination rule (§5.2).
type Strategy = core.Elimination

const (
	// StrategyPaperSequential removes remaining columns in ascending
	// learned-variance order until R* has full column rank — the algorithm
	// exactly as printed in the paper.
	StrategyPaperSequential Strategy = core.EliminatePaperSequential
	// StrategyGreedyBasis keeps a maximum-variance linearly-independent
	// column basis (a matroid-greedy optimum); evaluated as an ablation.
	StrategyGreedyBasis Strategy = core.EliminateGreedyBasis
)

// Observation selects what the snapshot vectors measure.
type Observation = core.Observation

const (
	// ObserveLogTransmission (default): snapshots hold per-path log
	// transmission rates and results convert to loss rates via 1 − eˣ.
	ObserveLogTransmission Observation = core.ObserveLogTransmission
	// ObserveLinear: snapshots hold additive path metrics (e.g. excess
	// queueing delays — the §8 extension); results are reported as-is,
	// clamped at zero.
	ObserveLinear Observation = core.ObserveLinear
)

// VarianceMethod selects how the Phase-1 moment system Σ* = A·v is solved.
type VarianceMethod = core.VarianceMethod

const (
	// VarianceAuto (default) picks dense QR for small systems and normal
	// equations once the explicit augmented matrix would be large.
	VarianceAuto VarianceMethod = core.VarianceAuto
	// VarianceDenseQR materializes the augmented matrix and solves by
	// Householder QR — the paper's reference method.
	VarianceDenseQR VarianceMethod = core.VarianceDenseQR
	// VarianceNormalEquations streams the equations into AᵀA and solves by
	// Cholesky; never materializes A.
	VarianceNormalEquations VarianceMethod = core.VarianceNormalEquations
)

// NegCovPolicy chooses the treatment of negative measured path covariances
// (a pure sampling artifact under the link-independence assumption S.2).
type NegCovPolicy = core.NegativeCovPolicy

const (
	// NegClamp (default) keeps the equation with its right-hand side
	// clamped to zero, preserving Theorem 1's rank guarantee.
	NegClamp NegCovPolicy = core.ClampNegativeCov
	// NegDrop discards the equation — the paper's printed rule. Can cost
	// identifiability on sparse pair sets (see ErrUnidentifiable).
	NegDrop NegCovPolicy = core.DropNegativeCov
	// NegKeep uses the raw negative value.
	NegKeep NegCovPolicy = core.KeepNegativeCov
)

// DefaultThreshold is the paper's congestion threshold tl = 0.002 (the LLRD
// models' boundary between good and congested links).
const DefaultThreshold = core.CongestionThreshold

// settings is the private option sink; Option values are only constructible
// through the With* functions, keeping the surface closed for extension.
type settings struct {
	opts     core.Options
	window   int
	decay    float64
	decaySet bool
	shards   int
	durDir   string
	dur      DurabilityOptions
}

// newAccumulator builds the moment accumulator the options select:
// cumulative by default, sliding-window with WithWindow, exponentially
// decayed with WithDecay.
func (s *settings) newAccumulator(dim int) (stats.MomentAccumulator, error) {
	switch {
	case s.window != 0 && s.decaySet:
		return nil, errors.New("lia: WithWindow and WithDecay are mutually exclusive")
	case s.window != 0:
		if s.window < 2 {
			return nil, fmt.Errorf("lia: moment window %d must be at least 2 snapshots", s.window)
		}
		return stats.NewWindowedCovAccumulator(dim, s.window), nil
	case s.decaySet:
		if !(s.decay > 0 && s.decay <= 1) {
			return nil, fmt.Errorf("lia: decay factor %g outside (0, 1]", s.decay)
		}
		return stats.NewDecayCovAccumulator(dim, s.decay), nil
	default:
		return stats.NewCovAccumulator(dim), nil
	}
}

// effectiveDecay returns the decay factor for the engine's observability
// surface: the configured λ, or 0 when WithDecay was not used.
func (s *settings) effectiveDecay() float64 {
	if s.decaySet {
		return s.decay
	}
	return 0
}

// Option configures an Engine at construction.
type Option func(*settings)

// WithWorkers bounds the goroutines used by the parallel Phase-1
// accumulation and its dense fallback solve. 0 (the default)
// sizes pools to GOMAXPROCS; 1 forces serial execution. Every setting
// produces bit-identical results — parallelism never changes the answer.
func WithWorkers(n int) Option {
	return func(s *settings) { s.opts.Variance.Workers = n }
}

// WithStrategy selects the Phase-2 elimination strategy.
func WithStrategy(st Strategy) Option {
	return func(s *settings) { s.opts.Strategy = st }
}

// WithObservation selects the snapshot semantics.
func WithObservation(obs Observation) Option {
	return func(s *settings) { s.opts.Observation = obs }
}

// WithThreshold sets the congestion threshold tl used by InferCongested and
// Threshold. The value is honored verbatim — WithThreshold(0) flags every
// link with any inferred loss, it does not reinstate the default.
func WithThreshold(tl float64) Option {
	return func(s *settings) {
		s.opts.Threshold = tl
		s.opts.ThresholdSet = true
	}
}

// WithVarianceMethod selects the Phase-1 solver.
func WithVarianceMethod(m VarianceMethod) Option {
	return func(s *settings) { s.opts.Variance.Method = m }
}

// WithNegCovPolicy selects the treatment of negative measured covariances.
func WithNegCovPolicy(p NegCovPolicy) Option {
	return func(s *settings) { s.opts.Variance.NegPolicy = p }
}

// WithWindow makes the engine's second-order moments cover only the most
// recent n learning snapshots (a sliding window over a retained ring of raw
// vectors, removed exactly as new snapshots arrive), instead of the default
// cumulative average over all history. Long-running engines use this so
// Phase 1 tracks congestion regime changes; n trades responsiveness against
// estimation noise (the paper's experiments use 50–several hundred
// snapshots). n must be at least 2; memory grows by n·np floats.
// Mutually exclusive with WithDecay.
func WithWindow(n int) Option {
	return func(s *settings) { s.window = n }
}

// WithShards requests topology sharding: the routing matrix is split into
// its link-disjoint components (see topology.Partition) and the components
// are grouped into at most k shards whose Phase-1/Phase-2 rebuilds run
// concurrently, each with its own accumulator and caches. k = 0 (the
// default) is the auto policy: New shards whenever the topology is
// disconnected, sizing the shard count to GOMAXPROCS; k = 1 forces the
// single unsharded engine; k > 1 requests up to k shards (never more than
// the number of components — and a fully connected topology always gets
// the plain Engine, where sharding could only add overhead). Sharding is
// exact, not approximate: each
// component's estimates are bitwise-identical to an unsharded engine run on
// that component alone. The option selects the implementation New returns;
// NewEngine ignores it and NewShardedEngine honors the count.
func WithShards(k int) Option {
	return func(s *settings) { s.shards = k }
}

// WithDurability makes the engine New returns durable: ingested snapshots
// append to a write-ahead log under dir before they fold into the moments,
// checkpoints of the full moment state land there periodically, and
// construction recovers the previous process's state (newest valid
// checkpoint + WAL tail replay) so a restarted engine resumes with moments
// bitwise-identical to an uninterrupted run. An empty or absent dir boots
// cold, exactly as without the option. See DurabilityOptions for the
// checkpoint cadence and fsync policy, and DurableEngine for the recovery
// semantics (including *CorruptStateError). The option selects the
// implementation New returns; NewEngine and NewShardedEngine ignore it —
// wrap them explicitly if needed.
func WithDurability(dir string, o DurabilityOptions) Option {
	return func(s *settings) { s.durDir, s.dur = dir, o }
}

// WithDecay exponentially decays the engine's second-order moments: before
// each new snapshot folds in, all previous mass is multiplied by
// lambda ∈ (0, 1], giving an effective memory of ≈ 1/(1−lambda) snapshots
// with O(1) extra state (no retained vectors). lambda = 1 is exactly the
// default cumulative behaviour. Mutually exclusive with WithWindow.
func WithDecay(lambda float64) Option {
	return func(s *settings) { s.decay, s.decaySet = lambda, true }
}
