package emunet

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"lia/internal/lossmodel"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// LabConfig parameterizes an in-process overlay deployment (the stand-in
// for the paper's PlanetLab experiment of Section 7).
type LabConfig struct {
	Probes int           // S probes per path per snapshot
	Gap    time.Duration // inter-probe gap per beacon (0 = full speed)
	Seed   uint64

	Loss lossmodel.Config // loss scenario over physical links

	// Discovery realism (Section 7.1):
	RespondProb    float64 // per-router probability of answering TTL probes (default 0.93)
	MultiIfaceProb float64 // fraction of routers with several interfaces (default 0.16)
	ResolveProb    float64 // probability sr-ally resolves a router's aliases (default 0.8)

	// SequentialBeacons probes one beacon at a time (in beacon-ID order)
	// instead of concurrently. Loopback sockets deliver in order and the
	// loss processes are seeded, so a sequential run is bit-reproducible —
	// the mode statistical tests need. Concurrent probing (the default)
	// mirrors independent real hosts, whose interleaving at the shared core
	// varies from run to run.
	SequentialBeacons bool
}

func (c LabConfig) withDefaults() LabConfig {
	if c.Probes == 0 {
		c.Probes = 1000
	}
	if c.RespondProb == 0 {
		c.RespondProb = 0.93
	}
	if c.MultiIfaceProb == 0 {
		c.MultiIfaceProb = 0.16
	}
	if c.ResolveProb == 0 {
		c.ResolveProb = 0.8
	}
	return c
}

// Lab wires a topogen network into a running emulated overlay: one core,
// one sink per destination host, one beacon per source host, a collector,
// and the ground-truth loss scenario.
type Lab struct {
	cfg     LabConfig
	net     *topogen.Network
	paths   []topology.Path
	core    *Core
	sinks   map[int]*Sink // destination node -> sink
	beacons map[int]*Beacon
	coll    *Collector
	scen    *lossmodel.Scenario
	rng     *rand.Rand
	routers []RouterInfo
	snap    int
	mu      sync.Mutex
	history [][]float64 // per snapshot: per-path received fraction
}

// NewLab builds and starts the whole deployment. The paths must come from
// the same network (typically topogen.Routes output).
func NewLab(network *topogen.Network, paths []topology.Path, cfg LabConfig) (*Lab, error) {
	cfg = cfg.withDefaults()
	if len(paths) == 0 {
		return nil, fmt.Errorf("emunet: lab needs at least one path")
	}
	lab := &Lab{
		cfg:     cfg,
		net:     network,
		paths:   paths,
		sinks:   make(map[int]*Sink),
		beacons: make(map[int]*Beacon),
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x1AB)),
	}
	// Ground-truth scenario over physical links (edge IDs).
	lab.scen = lossmodel.NewScenario(cfg.Loss, lab.rng, network.G.NumEdges())

	// Router inventory with interfaces and responsiveness.
	for node := 0; node < network.G.NumNodes(); node++ {
		n := 1
		if lab.rng.Float64() < cfg.MultiIfaceProb {
			n = 2 + lab.rng.IntN(2)
		}
		info := RouterInfo{ID: node, Responds: lab.rng.Float64() < cfg.RespondProb}
		for i := 0; i < n; i++ {
			addr := uint32(node)*16 + uint32(i) + 1
			info.Interfaces = append(info.Interfaces, addr)
		}
		lab.routers = append(lab.routers, info)
	}

	core, err := NewCore(CoreConfig{
		Rates: lab.currentRates(),
		Kind:  cfg.Loss.Process,
		Seed:  cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	lab.core = core
	if err := core.conn.SetReadBuffer(8 << 20); err != nil {
		core.logf("emunet lab: SetReadBuffer: %v", err)
	}
	for _, r := range lab.routers {
		core.AddRouter(r)
	}

	coll, err := NewCollector()
	if err != nil {
		lab.Close()
		return nil, err
	}
	lab.coll = coll

	// One sink per destination, one beacon per source.
	for i, p := range paths {
		if _, ok := lab.sinks[p.Dst]; !ok {
			s, err := NewSink()
			if err != nil {
				lab.Close()
				return nil, err
			}
			_ = s.conn.SetReadBuffer(8 << 20)
			lab.sinks[p.Dst] = s
		}
		if _, ok := lab.beacons[p.Beacon]; !ok {
			b, err := NewBeacon(core.Addr())
			if err != nil {
				lab.Close()
				return nil, err
			}
			lab.beacons[p.Beacon] = b
		}
		core.AddPath(PathSpec{
			ID:      i,
			Links:   p.Links,
			Routers: lab.intermediateRouters(p),
			Sink:    lab.sinks[p.Dst].Addr(),
		})
	}
	return lab, nil
}

// intermediateRouters lists the router node after each link except the last
// (whose endpoint is the destination host, which answers as destination).
func (l *Lab) intermediateRouters(p topology.Path) []int {
	var routers []int
	for i, linkID := range p.Links {
		if i == len(p.Links)-1 {
			break
		}
		routers = append(routers, l.net.G.Edge(linkID).To)
	}
	return routers
}

func (l *Lab) currentRates() map[int]float64 {
	rates := l.scen.Rates()
	m := make(map[int]float64, len(rates))
	for link, r := range rates {
		m[link] = r
	}
	return m
}

// Paths returns the lab's probing paths (index = path ID on the wire).
func (l *Lab) Paths() []topology.Path { return l.paths }

// Network returns the underlying ground-truth network.
func (l *Lab) Network() *topogen.Network { return l.net }

// Scenario exposes the ground-truth loss scenario.
func (l *Lab) Scenario() *lossmodel.Scenario { return l.scen }

// CollectorAddr returns the central server's TCP endpoint.
func (l *Lab) CollectorAddr() string { return l.coll.Addr() }

// RunSnapshot advances the scenario (except before the first snapshot),
// probes every path with S probes, gathers the sink counts, ships them to
// the collector, and returns the per-path received fractions.
func (l *Lab) RunSnapshot() ([]float64, error) {
	l.mu.Lock()
	snap := l.snap
	l.snap++
	l.mu.Unlock()
	if snap > 0 {
		l.scen.Advance()
		l.core.SetRates(l.currentRates())
	}
	// Beacons probe their paths concurrently by default (one goroutine per
	// beacon, as each PlanetLab host probed independently), paths
	// sequentially within a beacon to respect the per-host rate limit.
	byBeacon := make(map[int][]int)
	for i, p := range l.paths {
		byBeacon[p.Beacon] = append(byBeacon[p.Beacon], i)
	}
	probeBeacon := func(b *Beacon, ids []int) error {
		for _, id := range ids {
			if _, err := b.ProbePath(id, snap, l.cfg.Probes, l.cfg.Gap); err != nil {
				return err
			}
		}
		// Barrier: wait until the core has processed this beacon's probes,
		// so sink counts are complete before reporting.
		return b.Flush(10 * time.Second)
	}
	if l.cfg.SequentialBeacons {
		beacons := make([]int, 0, len(byBeacon))
		for beacon := range byBeacon {
			beacons = append(beacons, beacon)
		}
		sort.Ints(beacons)
		for _, beacon := range beacons {
			if err := probeBeacon(l.beacons[beacon], byBeacon[beacon]); err != nil {
				return nil, err
			}
		}
	} else {
		var wg sync.WaitGroup
		errs := make(chan error, len(byBeacon))
		for beacon, pathIDs := range byBeacon {
			wg.Add(1)
			go func(b *Beacon, ids []int) {
				defer wg.Done()
				if err := probeBeacon(b, ids); err != nil {
					errs <- err
				}
			}(l.beacons[beacon], pathIDs)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	// Short drain for core→sink forwarding of the last probes.
	time.Sleep(10 * time.Millisecond)

	// Sinks report to the collector over TCP.
	rc, err := DialCollector(l.coll.Addr())
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	for i, p := range l.paths {
		rep := Report{
			PathID:   i,
			Snapshot: snap,
			Sent:     l.cfg.Probes,
			Received: l.sinks[p.Dst].Received(i, snap),
		}
		if err := rc.Send(rep); err != nil {
			return nil, err
		}
	}
	frac, err := l.coll.WaitSnapshot(snap, len(l.paths), 5*time.Second)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.history = append(l.history, frac)
	l.mu.Unlock()
	return frac, nil
}

// History returns the received fractions of all completed snapshots.
func (l *Lab) History() [][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]float64, len(l.history))
	copy(out, l.history)
	return out
}

// Discover runs traceroute over every path and reconstructs the measured
// topology: hops become canonical interface addresses (after alias
// resolution), silent routers become synthetic anonymous nodes, and each
// adjacent hop pair becomes a discovered link. The result is the error-prone
// measured counterpart of the true paths, exactly as Section 7.1 builds it.
func (l *Lab) Discover() ([]topology.Path, error) {
	tracer, err := NewTracer(l.core.Addr(), 2, 200*time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer tracer.Close()
	resolver := NewAliasResolver(l.routers, l.cfg.ResolveProb)

	linkID := make(map[[2]uint32]int)
	nextLink := 0
	idOf := func(a, b uint32) int {
		key := [2]uint32{a, b}
		if id, ok := linkID[key]; ok {
			return id
		}
		linkID[key] = nextLink
		nextLink++
		return linkID[key]
	}
	var out []topology.Path
	for i, p := range l.paths {
		hops, err := tracer.TracePath(i, len(p.Links)+4)
		if err != nil {
			return nil, fmt.Errorf("emunet: discover path %d: %w", i, err)
		}
		// Node sequence: beacon, hop interfaces…, destination.
		nodes := []uint32{uint32(p.Beacon)*16 + 1}
		for h, hop := range hops {
			if hop.Responded {
				nodes = append(nodes, resolver.Canonical(hop.Interface))
			} else {
				nodes = append(nodes, AnonAddress(i, h))
			}
		}
		nodes = append(nodes, uint32(p.Dst)*16+1)
		dp := topology.Path{Beacon: p.Beacon, Dst: p.Dst}
		for j := 1; j < len(nodes); j++ {
			dp.Links = append(dp.Links, idOf(nodes[j-1], nodes[j]))
		}
		out = append(out, dp)
	}
	return out, nil
}

// Close tears the deployment down.
func (l *Lab) Close() {
	if l.core != nil {
		_ = l.core.Close()
	}
	for _, s := range l.sinks {
		_ = s.Close()
	}
	for _, b := range l.beacons {
		_ = b.Close()
	}
	if l.coll != nil {
		_ = l.coll.Close()
	}
}
