// Package experiments contains one runner per table and figure of the
// paper's evaluation (Sections 6 and 7). The same runners back the
// cmd/liasim command-line tool and the repository-level benchmarks, so the
// published results can be regenerated from either entry point.
package experiments

import (
	"fmt"
	"math/rand/v2"

	"lia/internal/core"
	"lia/internal/lossmodel"
	"lia/internal/netsim"
	"lia/internal/topogen"
	"lia/internal/topology"
)

// Config carries the simulation parameters shared by all experiments.
// Zero values select the paper's defaults.
type Config struct {
	Seed      uint64  // base RNG seed (default 1)
	Snapshots int     // m, learning snapshots (default 50)
	Probes    int     // S, probes per snapshot (default 1000)
	Fraction  float64 // p, fraction of congested links (default 0.10)
	Runs      int     // experiment repetitions (default 10)
	Scale     float64 // topology size multiplier (default 1.0)

	Model    lossmodel.RateModel     // LLRD1 (default) or LLRD2
	Kind     lossmodel.ProcessKind   // Gilbert (default) or Bernoulli
	Good     lossmodel.GoodRateShape // good-link rate distribution
	Fidelity Fidelity                // snapshot generation fidelity
	Strategy core.Elimination        // Phase-2 elimination strategy
	Variance core.VarianceOptions    // Phase-1 negative-covariance policy
}

// Fidelity selects how snapshots are generated (see netsim.Mode).
type Fidelity int

const (
	// FidelityExact (default) aggregates losses at the link level so
	// Y = R·X holds exactly — the regime behind the paper's error tables.
	FidelityExact Fidelity = iota
	// FidelityPacketShared keeps per-probe path trials over shared link
	// state sequences (S.1 exact, path sampling noise present).
	FidelityPacketShared
	// FidelityPacketPerPath is the fully packet-level simulation with
	// independent per-(path,link) processes (S.1 approximate).
	FidelityPacketPerPath
)

func (f Fidelity) String() string {
	switch f {
	case FidelityPacketShared:
		return "packet-shared"
	case FidelityPacketPerPath:
		return "packet-per-path"
	default:
		return "exact"
	}
}

// Mode maps the fidelity to the simulator mode.
func (f Fidelity) Mode() netsim.Mode {
	switch f {
	case FidelityPacketShared:
		return netsim.ModePacketShared
	case FidelityPacketPerPath:
		return netsim.ModePacketPerPath
	default:
		return netsim.ModeExact
	}
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Snapshots == 0 {
		c.Snapshots = 50
	}
	if c.Probes == 0 {
		c.Probes = 1000
	}
	if c.Fraction == 0 {
		c.Fraction = 0.10
	}
	if c.Runs == 0 {
		c.Runs = 10
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 2 {
		v = 2
	}
	return v
}

// TopologyNames lists the named topologies of Table 2 / Figure 7 in paper
// order (plus "tree", which Figure 7 includes).
var TopologyNames = []string{
	"tree",
	"waxman",
	"barabasi-albert",
	"hierarchical-td",
	"hierarchical-bu",
	"planetlab",
	"dimes",
}

// Workload is a generated topology with its probing paths reduced to a
// routing matrix.
type Workload struct {
	Name    string
	Net     *topogen.Network
	Beacons []int
	Dests   []int
	RM      *topology.RoutingMatrix
}

// MakeWorkload builds the named topology at the configured scale, selects
// beacons and destinations as in the paper (the tree probes root→leaves;
// meshes use end hosts as both beacons and destinations), derives the
// routes, removes fluttering paths, and reduces the routing matrix.
func MakeWorkload(name string, cfg Config, rng *rand.Rand) (*Workload, error) {
	cfg = cfg.withDefaults()
	var (
		net              *topogen.Network
		beacons, dests   []int
		defaultHostCount = 20
	)
	switch name {
	case "tree":
		net = topogen.Tree(rng, cfg.scaled(1000), 10)
		beacons = []int{0}
		dests = net.Hosts
	case "waxman":
		net = topogen.Waxman(rng, cfg.scaled(1000), 0.15, 0.2)
	case "barabasi-albert":
		net = topogen.BarabasiAlbert(rng, cfg.scaled(1000), 2)
	case "hierarchical-td":
		net = topogen.HierarchicalTopDown(rng, cfg.scaled(25), 40)
	case "hierarchical-bu":
		net = topogen.HierarchicalBottomUp(rng, cfg.scaled(1000), cfg.scaled(25))
	case "planetlab":
		net = topogen.PlanetLabLike(rng, cfg.scaled(100), 2)
		defaultHostCount = 25
	case "dimes":
		net = topogen.DIMESLike(rng, 8, cfg.scaled(60), 4)
		defaultHostCount = 25
	default:
		return nil, fmt.Errorf("experiments: unknown topology %q (have %v)", name, TopologyNames)
	}
	if beacons == nil {
		hosts := topogen.SelectHosts(rng, net, defaultHostCount)
		beacons, dests = hosts, hosts
	}
	paths := topogen.Routes(net, beacons, dests)
	paths, _ = topology.RemoveFluttering(paths)
	rm, err := topology.Build(paths)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return &Workload{Name: name, Net: net, Beacons: beacons, Dests: dests, RM: rm}, nil
}
