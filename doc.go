// Package lia is the public face of this reproduction of "Network loss
// inference with second order statistics of end-to-end flows" (Nguyen &
// Thiran, IMC 2007): a concurrency-safe inference engine that localises
// lossy (or high-delay) links from nothing but end-to-end path
// measurements.
//
// The API maps onto the paper as follows:
//
//   - NewTopology performs the alias reduction of §3.1, turning raw
//     end-to-end Paths into the reduced routing matrix R; RemoveFluttering
//     repairs the no-route-fluttering assumption T.2, and Identifiable /
//     AugmentedRank check the second-order identifiability of Lemma 2 and
//     Theorem 1.
//   - Engine.Ingest and IngestBatch fold learning snapshots into the
//     running second-order moments of §5.1 (eq. 7); Phase 1 — solving
//     Σ* = A·v for the per-link variances (Lemma 1) — runs lazily when an
//     inference needs it.
//   - Engine.Infer is Phase 2 (§5.2): order links by learned variance,
//     eliminate the least-variant columns until R* has full column rank,
//     and solve the reduced first-order system for the newest snapshot.
//     Together they are the LIA algorithm of §5.3.
//   - §5.1's incremental update: a routing change means a new engine;
//     within a topology, a rebuild refolds only the changed rows' shards.
//   - WithObservation(ObserveLinear) switches the snapshot semantics to
//     additive path metrics — the §8 delay-tomography extension.
//
// An Engine is safe for concurrent use: snapshot ingestion serialises on a
// short critical section (one Welford fold), while Infer runs lock-free in
// the steady state against an atomically-swapped cache of the Phase-1
// variances and elimination order, keyed by an ingestion epoch. Many
// goroutines can infer while others ingest. Rebuilds after new learning
// data are incremental: under the default clamp policy the Phase-1 normal
// equations' Gram matrix depends only on the topology, so its factorization
// is computed once and reused (bit-identically) across rebuilds.
//
// By default the learning moments are cumulative over all ingested history.
// WithWindow(n) switches to an exact sliding window over the last n
// snapshots and WithDecay(lambda) to exponentially-decayed moments, so
// long-running engines track congestion regime changes instead of averaging
// them away.
//
// Topologies whose routing matrix splits into link-disjoint components
// (federated or multi-domain path sets) shard: New returns a ShardedEngine
// — the same surface as Engine, abstracted by the Inferencer interface —
// that partitions the matrix into its link-connected components (union-find
// over the link supports, see the internal topology.Partition), scatters
// every snapshot to per-component accumulators, and rebuilds load-balanced
// component groups concurrently, each with its own cached Phase-1
// factorization and Phase-2 elimination. Neither LIA phase couples paths
// that share no links, so the decomposition is exact: per-component
// estimates are bitwise-identical to an unsharded engine run on that
// component alone, while the pair equations straddling components (empty
// supports) are never enumerated at all. WithShards tunes or disables the
// policy. Answers come back through one component gather (internal core,
// shared with lia/cluster): each component's answer, in its local link
// order, maps to global links; Kept and Removed sort; a failed component's
// links read Unresolved; and the view reports the oldest healthy component
// epoch. Stats rolls the components up by the same code — counters sum,
// StateEpoch is the oldest, and a component is unhealthy while Degraded or
// while it has failed with no state built.
//
// Steady-state rebuilds are O(delta) in the data that moved, not in the
// topology. Windowed accumulators track which packed comoment blocks each
// snapshot dirtied, and the next rebuild patches only those blocks'
// contributions into the cached Phase-1 right-hand side — bitwise-equal to
// a full refold by construction. A sharded engine additionally skips every
// component none of whose paths saw a snapshot; IngestSparse feeds whole
// components selectively so localized traffic dirties only the components
// it names (ErrPartialComponent rejects partial coverage). Stats reports
// the wave shape (DeltaRebuilds, DirtyComponents, DirtyShards,
// SkippedComponents). The sharded engine's shard layout is the static LPT
// grouping of components by pair count, fixed at construction; it decides
// only which components rebuild together, never an estimate.
//
// Measurement collection is decoupled from inference through the
// SnapshotSource interface: NewSimSource streams synthetic campaigns from
// the packet-level simulator, NewTraceSource adapts recorded received
// fractions (e.g. the emulated overlay's traces), and NewFileSource /
// OpenFileSource read newline-delimited measurement files such as the
// collector's output stream. Malformed lines in such files surface as
// *LineError (with the line number) and the stream resumes after them.
//
// Live measurement planes fail in ways recorded files do not, so sources
// compose with resilience combinators: RetrySource retries transient Next
// errors with seeded exponential backoff and per-attempt timeouts
// (exhaustion surfaces as *RetryError; io.EOF and context cancellation pass
// through untouched), and SanitizeSource quarantines snapshots that would
// poison the moments — NaN/Inf entries, dimension mismatches, outliers past
// a configurable bound — behind counters instead of letting them reach
// Ingest. The lia/chaos subpackage is the test harness for that chain: a
// deterministic fault-injecting source wrapper (drops, duplicates, NaN
// corruption, spikes, transient errors, stalls, mid-stream EOFs) driven by
// a seeded schedule.
//
// Engines degrade rather than fail: when a rebuild cannot produce a new
// estimate (unidentifiable window, solver failure, even a panic in the
// rebuild path), the last successfully built epoch keeps serving and the
// failure is recorded in Stats (Degraded, RebuildFailures, LastError,
// StateAge). ErrRebuildFailed is returned only when there is no last-good
// state to fall back on.
// A ShardedEngine degrades per component: a failing component marks only
// its own links Unresolved while the others keep resolving normally.
//
// The accumulated moments can also survive the process. WithDurability
// wraps the engine in a DurableEngine that appends every acknowledged
// snapshot to a segmented write-ahead log (the lia/wal subpackage, with a
// configurable fsync policy) before folding it, checkpoints the moment
// state periodically with an exact binary codec (Engine.Checkpoint /
// RestoreFrom expose it directly), and on construction recovers the newest
// valid checkpoint plus the WAL tail — bitwise-identical to never having
// crashed, for cumulative, windowed, and decayed moments alike. A corrupt
// newest checkpoint falls back to the previous one automatically; only a
// fully unsalvageable directory surfaces a *CorruptStateError. FileSource
// tracks its byte offset (Offset / OpenFileSourceAt), so a restored server
// resumes a measurement file where the checkpoint left off.
//
// The lia/serve subpackage runs engines as a monitoring service: an HTTP
// JSON API (ingest, inference, steady-state link estimates, status,
// Prometheus metrics) over one or more named topologies, with background
// source consumption and a periodic rebuild policy — plus a live
// CollectorSource that accepts the emulated overlay's beacon/sink reports
// directly and re-listens on its address if the listener dies mid-stream.
// Server-consumed sources are supervised (restarted with backoff, surfaced
// per source in /v1/status), and GET /readyz separates readiness — state
// built, nothing degraded, no source in backoff — from /healthz liveness.
// cmd/liaserve is the ready-made binary; Engine.Stats and Engine.Steady
// are the observability hooks it reads. GET /v1/watch
// pushes epoch-advance events to long-lived clients as an NDJSON stream,
// so dashboards learn of new estimates without polling.
//
// The lia/cluster subpackage stretches the sharding decomposition across
// processes: a coordinator (liaserve -coordinator N) computes the same
// link-connected partition, places component groups on registered nodes
// (liaserve -join, longest-processing-time over pair-equation weight, so
// placement is deterministic and independent of join order), scatters each
// ingested snapshot's per-component projections over persistent streaming
// connections, and gathers Infer/Links/Status from the fleet back into
// global link order with the sharded engine's own gather and stats roll-up,
// so the two hosts cannot drift apart. Because the decomposition is exact,
// the gathered estimates are bitwise-identical to a single process on the
// same snapshots — for any node count. Degradation stays per-component: an
// unreachable node marks only the links it hosts Unresolved while the
// rest of the fleet keeps serving, /readyz names the missing node, and a
// node that rejoins under the same identity is re-placed and re-fed.
//
// The lia/world subpackage is the adversary those layers are tested
// against: a long-running, seeded-deterministic world server whose
// per-link capacity/queue congestion model produces the non-stationary,
// correlated-loss regimes the paper's estimator is built for — diurnal
// load curves, congestion events that correlate loss across every path
// sharing the bottleneck, flapping links, mid-run rerouting. Scenarios are
// served over a newline-delimited-JSON TCP protocol (cmd/liaworld is the
// standalone binary); NewWorldSource is the client-side SnapshotSource, so
// a world stream composes with RetrySource, SanitizeSource, and liaserve's
// supervised ingestion exactly like a real measurement plane, while the
// server's control surface can shift the loss regime mid-run and report
// the ground truth an estimate should be converging to. The same seed and
// schedule reproduce every stream bit for bit, regardless of batching,
// reconnects, or GOMAXPROCS. ThinSource subsamples any source (keep-rate
// or stride) for quick-look monitoring, reporting in its Stats the
// divisor correction a variance consumer owes the thinned stream.
package lia
