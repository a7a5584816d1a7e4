package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"lia"
	"lia/serve"
	"lia/world"
)

// spec is the shape of one workload: its topology, the engine options it is
// served with, and the make-up of one closed-loop step.
type spec struct {
	name       string
	components int  // link-disjoint trees
	leaves     int  // paths per tree
	window     int  // WithWindow length; 0 = cumulative moments
	greedy     bool // WithStrategy(StrategyGreedyBasis)
	durable    bool

	warmup int // snapshots ingested during set-up (600-path workloads)
	// history is the number of snapshots written to the durability
	// directory before set-up recovers it (durable workloads).
	history int

	ingest int // snapshots per POST /v1/snapshots
	infers int // POST /v1/infer calls per step, on held-out snapshots

	// segments is how many independent segments a run measures. Each
	// builds the serving stack from scratch (setup_s is the median of these
	// set-ups) and drives its share of the closed loop on a snapshot stream
	// of its own, so a run's medians pool several learning trajectories.
	segments int
}

var specs = map[string]spec{
	"ingest600": {name: "ingest600", components: 1, leaves: 600, greedy: true, warmup: 64, ingest: 64, infers: 1, segments: 4},
	"query600":  {name: "query600", components: 1, leaves: 600, greedy: true, warmup: 64, ingest: 4, infers: 8, segments: 4},
	"fed5k": {name: "fed5k", components: 200, leaves: 25, window: 64, durable: true,
		history: 460, ingest: 8, infers: 2, segments: 8},
}

// workloadOrder is the order `--workload all` runs them in.
var workloadOrder = []string{"ingest600", "query600", "fed5k"}

// probes is the probe count the server converts "frac" payloads with (the
// serve default). The world reports exact fractions, so it only matters for
// a zero fraction, which the congestion model never produces.
const probes = 1000

// Congestion set-up of the world: this share of the links below each tree's
// access link carries a permanent congest event whose load factor is drawn
// from [congestMin, congestMax). Base utilisation (the world default,
// 0.55 ± 0.1 with ±15 % jitter) never overloads a link on its own, so the
// other links are exactly loss-free.
const (
	congestShare = 0.1
	congestMin   = 2.4
	congestMax   = 3.0
)

// randomTree returns the physical routes of a random tree with the given
// number of leaves, hanging below one shared access link: every route starts
// with that link, so the tree is one link-connected component. Internal
// nodes get 2 to 4 children; the node split next is drawn uniformly from
// the current leaves, which gives uneven depths. Link IDs start at base and
// the next free ID is returned.
func randomTree(rng *rand.Rand, leaves, base int) (routes [][]int, next int) {
	next = base
	access := next
	next++
	// Each open leaf is the route from the access link down to it.
	open := [][]int{{access}}
	for len(open) < leaves {
		i := rng.IntN(len(open))
		parent := open[i]
		kids := 2 + rng.IntN(3)
		if room := leaves - len(open) + 1; kids > room {
			kids = room
		}
		open[i] = open[len(open)-1]
		open = open[:len(open)-1]
		for c := 0; c < kids; c++ {
			r := make([]int, len(parent)+1)
			copy(r, parent)
			r[len(parent)] = next
			next++
			open = append(open, r)
		}
	}
	return open, next
}

// instance is one workload's generated inputs: the routes, the routing
// matrix the server is built over, and the worlds that produce snapshots.
// Each tree runs in a world of its own, seeded from the workload seed and
// the tree's index; a snapshot concatenates the trees' paths in order.
type instance struct {
	sp     spec
	seed   uint64
	paths  []lia.Path
	worlds []*world.World
	// linkIdx maps a physical link ID to its index in the concatenated
	// per-link tick vectors.
	linkIdx map[int]int
	sent    int // snapshots handed to the server so far (incl. history)
}

// newInstance builds the topology and the worlds for a workload and seed.
// The network — tree shapes, congested links and their load factors — is
// fixed per topology size, so every seed measures the same system; the
// seed drives the worlds' random streams, the per-tick load jitter behind
// every snapshot.
func newInstance(sp spec, seed uint64) (*instance, error) {
	rng := rand.New(rand.NewPCG(uint64(sp.components*sp.leaves), 0x7e1e))
	in := &instance{sp: sp, seed: seed, linkIdx: map[int]int{}}
	next := 0
	for c := 0; c < sp.components; c++ {
		access := next
		var routes [][]int
		routes, next = randomTree(rng, sp.leaves, next)
		// Congest events on a seeded share of the non-access links.
		var schedule []world.Event
		for id := access + 1; id < next; id++ {
			if rng.Float64() >= congestShare {
				continue
			}
			schedule = append(schedule, world.Event{
				Kind:   world.KindCongest,
				Links:  []int{id},
				Factor: congestMin + (congestMax-congestMin)*rng.Float64(),
			})
		}
		w, err := world.New(routes, world.Config{Seed: seed*1_000_003 + uint64(c)}, schedule)
		if err != nil {
			return nil, fmt.Errorf("world: %w", err)
		}
		for _, id := range w.LinkIDs() {
			in.linkIdx[id] = len(in.linkIdx)
		}
		for _, r := range routes {
			in.paths = append(in.paths, lia.Path{Beacon: c, Dst: len(in.paths) + 1, Links: r})
		}
		in.worlds = append(in.worlds, w)
	}
	return in, nil
}

// tick is one world snapshot as the benchmark keeps it: the payload the
// server receives, the log rates it derives from it, and the truth.
type tick struct {
	frac   []float64
	y      []float64
	regime []float64
}

func (in *instance) step() tick {
	var t tick
	for _, w := range in.worlds {
		wt := w.Step()
		t.frac = append(t.frac, wt.Frac...)
		t.regime = append(t.regime, wt.Regime...)
	}
	t.y = lia.LogRates(t.frac, probes)
	return t
}

// ticks draws n consecutive world snapshots.
func (in *instance) ticks(n int) []tick {
	out := make([]tick, n)
	for i := range out {
		out[i] = in.step()
	}
	return out
}

// ingestBody encodes a POST /v1/snapshots batch.
func ingestBody(ts []tick) []byte {
	req := serve.IngestRequest{Snapshots: make([]serve.SnapshotPayload, len(ts))}
	for i, t := range ts {
		req.Snapshots[i] = serve.SnapshotPayload{Frac: t.frac}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of float slices always encodes
	}
	return b
}

// inferBody encodes a POST /v1/infer body.
func inferBody(t tick) []byte {
	b, err := json.Marshal(serve.SnapshotPayload{Frac: t.frac})
	if err != nil {
		panic(err)
	}
	return b
}

// virtualTruth folds the world's per-physical-link regime loss onto the
// routing matrix's virtual links: a virtual link's loss is one minus the
// product of its members' transmission rates.
func virtualTruth(rm *lia.RoutingMatrix, linkIdx map[int]int, regime []float64) []float64 {
	out := make([]float64, rm.NumLinks())
	for k := range out {
		tr := 1.0
		for _, id := range rm.Members(k) {
			tr *= 1 - regime[linkIdx[id]]
		}
		out[k] = 1 - tr
	}
	return out
}
