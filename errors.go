package lia

import (
	"errors"

	"lia/internal/core"
	"lia/internal/topology"
)

// Sentinel errors returned (possibly wrapped) by the engine; test with
// errors.Is. They are shared with the internal engine room, so errors
// surfacing from any layer keep their identity.
var (
	// ErrTooFewSnapshots: an inference was attempted before at least two
	// learning snapshots were ingested, so path covariances — and with them
	// the Phase-1 variances — do not exist yet.
	ErrTooFewSnapshots = core.ErrTooFewSnapshots

	// ErrDimensionMismatch: a snapshot vector's length does not match the
	// routing matrix's path count.
	ErrDimensionMismatch = core.ErrDimensionMismatch

	// ErrUnidentifiable: the link variances cannot be resolved from the
	// available covariance equations — the augmented matrix of Definition 1
	// lost full column rank (route fluttering violating assumption T.2, or
	// too many equations discarded by NegDrop).
	ErrUnidentifiable = core.ErrUnidentifiable

	// ErrTopologyTooLarge: the topology's int32-packed pair-support index
	// would exceed 2³¹ entries. Shard the path set across several routing
	// matrices (and engines) instead.
	ErrTopologyTooLarge = topology.ErrPairIndexOverflow
)

// ErrPartialComponent: an IngestSparse snapshot covered some but not all
// paths of a link-connected component. Component moments fold whole
// snapshots or none — a partial fold would silently skew the component's
// covariances — so sparse snapshots must cover the union of complete
// components (for a plain Engine: every path). Nothing is ingested when
// this error is returned.
var ErrPartialComponent = errors.New("lia: sparse snapshot must cover complete components")

// ErrRebuildFailed: a Phase-1 state rebuild failed (or panicked) and no
// previously built state exists to fall back on. Engines that have served
// at least one epoch degrade instead — queries keep answering from the
// last-good state (see Stats.Degraded) — so this sentinel only surfaces
// when there is nothing to serve at all. The wrapped chain keeps the
// underlying cause, so errors.Is(err, ErrUnidentifiable) etc. still work
// through it.
var ErrRebuildFailed = errors.New("lia: rebuild failed")
