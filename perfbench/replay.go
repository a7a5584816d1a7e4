package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"lia"
	"lia/internal/core"
	"lia/internal/linalg"
	"lia/internal/stats"
	"lia/internal/topology"
	"lia/wal"
)

// The traced run times the layers below lia by replaying the exact inputs
// the server received through their public functions, outside the server:
// a mirror of the engine's per-component state, fed the same snapshots in
// the same order, rebuilt after every step's ingest and solved on every
// step's held-out snapshots.

// mirrorComp is one link-connected component of the mirror.
type mirrorComp struct {
	rm    *topology.RoutingMatrix
	paths []int // global path of each local row
	links []int // global link of each local column
	acc   stats.MomentAccumulator
	p1    *core.Phase1
	order []int
	kept  []int // local kept columns
	yp    []float64
}

// layerTimes accumulates the replayed layers' busy time and work counts.
type layerTimes struct {
	fold, view, phase1, elim, solve, lsq, wal time.Duration
	folds, rebuilds, solves                   int
	walSnaps                                  int
	viewBytes, walBytes                       int64
	lsqFlops                                  float64
}

func (t *layerTimes) add(o layerTimes) {
	t.fold += o.fold
	t.view += o.view
	t.phase1 += o.phase1
	t.elim += o.elim
	t.solve += o.solve
	t.lsq += o.lsq
	t.wal += o.wal
	t.folds += o.folds
	t.rebuilds += o.rebuilds
	t.solves += o.solves
	t.walSnaps += o.walSnaps
	t.viewBytes += o.viewBytes
	t.walBytes += o.walBytes
	t.lsqFlops += o.lsqFlops
}

type mirror struct {
	comps    []*mirrorComp
	strategy core.Elimination
	log      *wal.Log // nil unless the workload is durable
	seq      uint64
	buf      []byte
	t        layerTimes
}

// newMirror builds the mirror over the workload's routing matrix: one
// component per link-connected component, with the accumulator kind,
// Phase-1 options and elimination strategy the workload's engine uses.
// walDir, when non-empty, opens a WAL there with fsync off.
func newMirror(rm *lia.RoutingMatrix, window int, strategy core.Elimination, walDir string) (*mirror, error) {
	part := topology.NewPartition(rm)
	m := &mirror{strategy: strategy}
	for c := 0; c < part.NumComponents(); c++ {
		var sub *topology.RoutingMatrix
		var links []int
		if part.NumComponents() == 1 {
			// A plain Engine works on the matrix it was given.
			sub, links = rm, identity(rm.NumLinks())
		} else {
			var err error
			if sub, links, err = part.ComponentMatrix(c); err != nil {
				return nil, err
			}
		}
		mc := &mirrorComp{rm: sub, paths: part.Component(c).Paths, links: links,
			p1: core.NewPhase1(sub, core.VarianceOptions{}), yp: make([]float64, sub.NumPaths())}
		if window > 0 {
			mc.acc = stats.NewWindowedCovAccumulator(sub.NumPaths(), window)
		} else {
			mc.acc = stats.NewCovAccumulator(sub.NumPaths())
		}
		m.comps = append(m.comps, mc)
	}
	if walDir != "" {
		log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncOff})
		if err != nil {
			return nil, err
		}
		m.log = log
	}
	return m, nil
}

func (mc *mirrorComp) project(y []float64) []float64 {
	for l, g := range mc.paths {
		mc.yp[l] = y[g]
	}
	return mc.yp
}

// ingest folds a batch into every component (and the WAL, when durable).
func (m *mirror) ingest(ys [][]float64) error {
	if m.log != nil {
		m.buf = m.buf[:0]
		m.buf = binary.LittleEndian.AppendUint32(m.buf, uint32(len(ys)))
		m.buf = binary.LittleEndian.AppendUint32(m.buf, uint32(len(ys[0])))
		for _, y := range ys {
			for _, v := range y {
				m.buf = binary.LittleEndian.AppendUint64(m.buf, math.Float64bits(v))
			}
		}
		m.seq++
		t := time.Now()
		if err := m.log.Append(m.seq, m.buf); err != nil {
			return err
		}
		m.t.wal += time.Since(t)
		m.t.walSnaps += len(ys)
		m.t.walBytes += int64(len(m.buf)) + 16 // frame: length, sequence, CRC
	}
	for _, mc := range m.comps {
		for _, y := range ys {
			yp := mc.project(y)
			t := time.Now()
			mc.acc.Add(yp)
			m.t.fold += time.Since(t)
		}
	}
	m.t.folds += len(ys)
	return nil
}

// rebuild recomputes every component's Phase-1 estimate and, when the
// variance order moved, its elimination — what the engine does on a query
// after new snapshots arrived.
func (m *mirror) rebuild() error {
	for c, mc := range m.comps {
		t := time.Now()
		view := mc.acc.View()
		m.t.view += time.Since(t)
		m.t.viewBytes += int64(8 * view.NumComoments())
		t = time.Now()
		vars, err := mc.p1.Estimate(view)
		m.t.phase1 += time.Since(t)
		if err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		order := core.VarianceOrder(vars)
		if !slices.Equal(order, mc.order) {
			t = time.Now()
			mc.kept, _ = core.EliminateWorkers(mc.rm, vars, m.strategy, 0)
			m.t.elim += time.Since(t)
			mc.order = order
		}
	}
	m.t.rebuilds++
	return nil
}

// infer solves the reduced system of every component for one snapshot,
// once through core.SolveReduced and once through the linalg least-squares
// kernel alone.
func (m *mirror) infer(y []float64) error {
	for c, mc := range m.comps {
		yp := mc.project(y)
		t := time.Now()
		if _, err := core.SolveReduced(mc.rm, mc.kept, yp); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		m.t.solve += time.Since(t)
		sub := mc.rm.DenseColumns(mc.kept)
		t = time.Now()
		if _, err := linalg.SolveLeastSquares(sub, yp); err != nil {
			return fmt.Errorf("component %d: %w", c, err)
		}
		m.t.lsq += time.Since(t)
		rows, cols := float64(sub.Rows()), float64(sub.Cols())
		// Householder QR, Qᵀ·b and back substitution.
		m.t.lsqFlops += 2*rows*cols*cols - 2*cols*cols*cols/3 + 4*rows*cols + cols*cols
	}
	m.t.solves++
	return nil
}

// keptGlobal returns the mirror's kept set in global link indices.
func (m *mirror) keptGlobal(nc int) []bool {
	out := make([]bool, nc)
	for _, mc := range m.comps {
		for _, k := range mc.kept {
			out[mc.links[k]] = true
		}
	}
	return out
}

func (m *mirror) cacheable() int {
	n := 0
	for _, mc := range m.comps {
		if mc.p1.Cacheable() {
			n++
		}
	}
	return n
}

func (m *mirror) close() {
	if m.log != nil {
		m.log.Close()
	}
}

// topologyTimes times building the routing matrix and its pair-support
// indexes from the routes, the set-up work of every workload. Components
// are indexed apart, as the sharded engine does.
func topologyTimes(paths []lia.Path) (build, pairIndex time.Duration, pairs int, err error) {
	t := time.Now()
	rm, err := lia.NewTopology(paths)
	if err != nil {
		return 0, 0, 0, err
	}
	build = time.Since(t)
	part := topology.NewPartition(rm)
	subs := []*topology.RoutingMatrix{rm}
	if part.NumComponents() > 1 {
		subs = subs[:0]
		for c := 0; c < part.NumComponents(); c++ {
			sub, _, err := part.ComponentMatrix(c)
			if err != nil {
				return 0, 0, 0, err
			}
			subs = append(subs, sub)
		}
	}
	t = time.Now()
	for _, sub := range subs {
		if err := sub.PrecomputePairSupports(); err != nil {
			return 0, 0, 0, err
		}
		pairs += sub.NumPairs()
	}
	return build, time.Since(t), pairs, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
