package lia

import (
	"context"
	"math/rand/v2"
	"sync"
)

// ThinConfig tunes ThinSource's sampling.
type ThinConfig struct {
	// Keep is the probability of delivering each offered snapshot,
	// in (0, 1]. 0 selects 1 (no thinning); values outside (0, 1] are
	// clamped into it.
	Keep float64

	// Every, when > 1, switches from Bernoulli sampling to deterministic
	// striding: exactly one of every Every offered snapshots is kept (the
	// first of each stride) and Keep is ignored.
	Every int

	// Seed keys the Bernoulli draws. Each decision is drawn from a PCG
	// keyed by (Seed, offered-snapshot index), so a run's kept-set is a
	// pure function of the seed — independent of timing, retries upstream,
	// or how many snapshots the consumer ultimately pulls.
	Seed uint64
}

// ThinStats are ThinSource's sampling counters.
type ThinStats struct {
	// Offered counts snapshots pulled from the wrapped source.
	Offered uint64
	// Kept counts snapshots delivered to the consumer.
	Kept uint64
	// Thinned counts snapshots dropped by sampling (Offered − Kept).
	Thinned uint64
	// KeepRate is the realized sampling fraction Kept/Offered (0 before
	// the first snapshot). i.i.d. thinning keeps the second-order moments
	// the engine estimates unbiased (each kept snapshot is an unmodified
	// draw from the same process), but the effective sample count behind
	// every covariance shrinks by this factor, so estimator variance grows
	// by 1/KeepRate and confidence intervals widen by √(1/KeepRate)
	// (Rahman et al., arXiv:2008.13424).
	KeepRate float64
}

// Thinner is the SnapshotSource returned by ThinSource.
type Thinner struct {
	src SnapshotSource
	cfg ThinConfig

	mu      sync.Mutex
	offered uint64
	kept    uint64
}

// ThinSource wraps a source so only a sampled fraction of its snapshots
// reaches the consumer — the measurement-budget reduction of Rahman et
// al.: when probing every epoch is too expensive, an i.i.d.-thinned stream
// still identifies the same loss rates because the engine's second-order
// moments are unbiased under subsampling; only the estimator variance
// grows, by the inverse of the keep rate reported in Stats. Next pulls from
// the wrapped source until a kept snapshot arrives, so EOF and transport
// errors pass through at the position they occur.
//
// Thinning decisions are seeded and keyed by offered-snapshot index, never
// by wall clock, so a replay with the same seed keeps the same snapshots.
// The returned source composes like the other combinators — typically
// counting(sanitize(thin(retry(raw)))) — and implements io.Closer,
// propagating Close to the wrapped source when it is closeable.
func ThinSource(src SnapshotSource, cfg ThinConfig) *Thinner {
	if cfg.Keep <= 0 || cfg.Keep > 1 {
		cfg.Keep = 1
	}
	return &Thinner{src: src, cfg: cfg}
}

// Next implements SnapshotSource: it returns the next kept snapshot,
// counting and skipping thinned ones.
func (t *Thinner) Next(ctx context.Context) (Snapshot, error) {
	for {
		snap, err := t.src.Next(ctx)
		if err != nil {
			return Snapshot{}, err
		}
		t.mu.Lock()
		i := t.offered
		t.offered++
		keep := t.keepDraw(i)
		if keep {
			t.kept++
		}
		t.mu.Unlock()
		if keep {
			return snap, nil
		}
	}
}

// keepDraw decides snapshot index i's fate: stride position for Every > 1,
// otherwise a Bernoulli(Keep) draw keyed by (Seed, i).
func (t *Thinner) keepDraw(i uint64) bool {
	if t.cfg.Every > 1 {
		return i%uint64(t.cfg.Every) == 0
	}
	if t.cfg.Keep >= 1 {
		return true
	}
	rng := rand.New(rand.NewPCG(t.cfg.Seed^0x7417_5eed, i))
	return rng.Float64() < t.cfg.Keep
}

// Stats reports the sampling counters and the realized keep rate.
func (t *Thinner) Stats() ThinStats {
	t.mu.Lock()
	offered, kept := t.offered, t.kept
	t.mu.Unlock()
	st := ThinStats{Offered: offered, Kept: kept, Thinned: offered - kept}
	if offered > 0 {
		st.KeepRate = float64(kept) / float64(offered)
	}
	return st
}

// Close propagates to the wrapped source when it is closeable.
func (t *Thinner) Close() error { return CloseSource(t.src) }
