// Command liaserve runs the inference engine as a long-lived HTTP service:
// learning snapshots stream in continuously (over HTTP, from a live
// collector listener, from an NDJSON file, from the built-in simulator, or
// from a congestion-driven world server via -world, see cmd/liaworld) and
// per-link loss estimates are queryable at any moment.
//
//	liaserve -listen 127.0.0.1:8420 -topo default=topo.json \
//	         -collect default=127.0.0.1:7000
//
// starts one engine over the topology document (the liainfer -topo schema:
// {"probes": N, "paths": [{"beacon","dst","links"}]}) and accepts
// beacon/sink reports on :7000 — `collector | liainfer` as one process.
// Repeat -topo to serve several topologies; the first is the default one
// addressed by the unprefixed /v1 routes, the rest live under
// /v1/topologies/{name}/. Topologies whose routing matrix splits into
// link-disjoint components are sharded automatically (or explicitly with
// -shards k): each component keeps its own solver caches and the shards
// rebuild concurrently, with identical estimates. Query with:
//
//	curl localhost:8420/v1/links
//	curl localhost:8420/v1/status
//	curl -d '{"frac": [0.98, 1.0, ...]}' localhost:8420/v1/infer
//
// SIGINT/SIGTERM drain in-flight requests and stop background ingestion
// before exiting.
//
// The server degrades rather than fails: background sources are supervised
// (a dead collector listener is re-opened with backoff), poisoned
// snapshots are quarantined before they can reach the estimators, and
// /v1/links keeps answering from the last successfully built state while
// rebuilds fail. GET /readyz separates readiness (state built, sources
// live) from /healthz liveness. The -chaos-kill-collector flag kills every
// live collector listener once after the given delay — the fault-injection
// hook the CI smoke test uses to verify the recovery path end to end.
//
// With -state-dir the accumulated moments survive the process: every
// sanitizer-surviving snapshot is journaled to a write-ahead log before it
// is folded, the moments are checkpointed periodically (-checkpoint-every /
// -checkpoint-interval), and a restarted server restores the newest valid
// checkpoint plus the WAL tail before sources start — bitwise-identical to
// never having crashed. -fsync picks the WAL durability/throughput
// tradeoff (batch, interval, off). NDJSON -stream sources resume at their
// persisted byte offset instead of re-ingesting from line 1, and recovery
// is visible in /v1/status ("durability") and /metrics
// (liaserve_checkpoints_total, liaserve_wal_bytes,
// liaserve_recovery_replayed_snapshots). Cluster nodes take the same flags:
// each placed component journals under its own subdirectory, and a
// restarted node returns with its moments instead of re-learning.
//
// The same binary also runs as a multi-process cluster. A coordinator
//
//	liaserve -listen :8420 -topo default=topo.json -coordinator 2
//
// waits for two nodes, places the topology's link-connected components
// across them (deterministically, independent of join order), scatters
// every ingested snapshot to the owning nodes over persistent NDJSON
// streams, and serves the full /v1 API by gathering per-component results
// — bitwise-identical to the single-process engine. Nodes are started as
//
//	liaserve -listen :8421 -join http://coordinator:8420 -node-id a
//
// and need no topology file; their components arrive from the coordinator,
// and a restarted node (same -node-id) is re-assigned and re-learns. While
// a node is down only its components' links read unresolved; /readyz on
// the coordinator names the degradation. GET /v1/watch streams epoch
// updates (NDJSON, heartbeats included) for both single-process and
// cluster serving.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lia"
	"lia/cluster"
	"lia/serve"
	"lia/wal"
)

// topoDoc is the topology file schema (liainfer's -topo document; any
// "snapshots" field is ignored).
type topoDoc struct {
	Probes int `json:"probes"`
	Paths  []struct {
		Beacon int   `json:"beacon"`
		Dst    int   `json:"dst"`
		Links  []int `json:"links"`
	} `json:"paths"`
}

// multiFlag collects repeatable name=value flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// splitSpec parses a "name=value" flag occurrence; a bare value gets the
// default topology name.
func splitSpec(spec string) (name, value string) {
	if i := strings.IndexByte(spec, '='); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return "default", spec
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "liaserve: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("liaserve", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:8420", "HTTP listen address")
		topos   multiFlag
		collect multiFlag
		streams multiFlag
		sims    multiFlag
		worlds  multiFlag

		rebuildEvery    = fs.Int("rebuild-every", serve.DefaultRebuildEvery, "rebuild the served state after this many new snapshots (negative disables)")
		rebuildInterval = fs.Duration("rebuild-interval", 5*time.Second, "also rebuild a stale state at least this often (0 disables)")

		window   = fs.Int("window", 0, "sliding moment window in snapshots (0 = cumulative)")
		decay    = fs.Float64("decay", 0, "exponential moment decay factor in (0,1] (0 = cumulative)")
		shards   = fs.Int("shards", 0, "topology shards rebuilding concurrently: 0 auto-shards disconnected topologies to GOMAXPROCS, 1 forces a single engine, k caps at k")
		strategy = fs.String("strategy", "paper", "phase-2 elimination: paper or greedy")
		tl       = fs.Float64("tl", lia.DefaultThreshold, "congestion threshold")

		settle      = fs.Duration("settle", 1500*time.Millisecond, "collector settle window after snapshot completion")
		snapTimeout = fs.Duration("snapshot-timeout", 2*time.Minute, "collector per-snapshot completion timeout")
		simSeed     = fs.Uint64("sim-seed", 1, "simulator source seed")

		shutdownGrace = fs.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")

		chaosKillCollector = fs.Duration("chaos-kill-collector", 0, "fault injection: kill every live collector listener once after this delay (0 disables; the source must reconnect on its own)")

		stateDir           = fs.String("state-dir", "", "durable state root: moments are checkpointed and snapshots journaled per topology (server mode) or per placed component (node mode), and restored on boot before sources start (empty = in-memory only)")
		checkpointEvery    = fs.Int("checkpoint-every", 0, "with -state-dir, checkpoint after this many journaled snapshots (0 = library default, negative disables count-based checkpoints)")
		checkpointInterval = fs.Duration("checkpoint-interval", 0, "with -state-dir, also checkpoint when this much time has passed since the last one and new snapshots arrived (0 disables)")
		fsyncPolicy        = fs.String("fsync", "batch", "with -state-dir, WAL fsync policy: batch (fsync every append batch), interval (background cadence, see -fsync-interval), off (page cache only)")
		fsyncInterval      = fs.Duration("fsync-interval", 0, "with -fsync interval, fsync the WAL at least this often (0 = library default)")

		coordinator = fs.Int("coordinator", 0, "run as a cluster coordinator placing the topology's components across this many nodes (requires exactly one -topo)")
		join        = fs.String("join", "", "run as a cluster node: base URL of the coordinator to register with (ignores -topo; components arrive from the coordinator)")
		nodeID      = fs.String("node-id", "", "stable cluster node identity surviving restarts (default: the -listen address)")
		advertise   = fs.String("advertise", "", "base URL the coordinator dials this node back on (default http://<listen>)")
	)
	fs.Var(&topos, "topo", "topology to serve, as name=file.json (repeatable; first is the default)")
	fs.Var(&collect, "collect", "live collector listener, as name=host:port (repeatable)")
	fs.Var(&streams, "stream", "NDJSON snapshot file source, as name=file (repeatable)")
	fs.Var(&sims, "sim", "built-in simulator source streaming N snapshots (0 = unbounded), as name=N (repeatable)")
	fs.Var(&worlds, "world", "world-server source (see cmd/liaworld), as name=host:port (repeatable; the scenario is named after the topology)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dur := lia.DurabilityOptions{
		CheckpointEvery:    *checkpointEvery,
		CheckpointInterval: *checkpointInterval,
		FsyncInterval:      *fsyncInterval,
	}
	switch *fsyncPolicy {
	case "batch":
		dur.Fsync = wal.SyncBatch
	case "interval":
		dur.Fsync = wal.SyncInterval
	case "off":
		dur.Fsync = wal.SyncOff
	default:
		return fmt.Errorf("unknown -fsync %q (batch, interval, or off)", *fsyncPolicy)
	}
	if *join != "" {
		if *coordinator > 0 {
			return errors.New("-join and -coordinator are mutually exclusive")
		}
		return runNode(*listen, *join, *nodeID, *advertise, *shutdownGrace, *stateDir, dur)
	}
	if *coordinator > 0 && *stateDir != "" {
		return errors.New("-state-dir applies where the moments live: pass it to the cluster nodes (-join mode), not the coordinator")
	}
	if len(topos) == 0 {
		return errors.New("at least one -topo name=file.json is required")
	}
	if *coordinator > 0 && len(topos) != 1 {
		return errors.New("-coordinator requires exactly one -topo")
	}
	opts := []lia.Option{lia.WithShards(*shards), lia.WithThreshold(*tl)}
	switch *strategy {
	case "paper":
	case "greedy":
		opts = append(opts, lia.WithStrategy(lia.StrategyGreedyBasis))
	default:
		return fmt.Errorf("unknown -strategy %q", *strategy)
	}
	if *window != 0 {
		opts = append(opts, lia.WithWindow(*window))
	}
	if *decay != 0 {
		opts = append(opts, lia.WithDecay(*decay))
	}

	srv := serve.New(serve.Config{
		RebuildEvery:    *rebuildEvery,
		RebuildInterval: *rebuildInterval,
		Shards:          *shards,
	})

	type topoState struct {
		spec    serve.Topology
		rm      *lia.RoutingMatrix
		eng     lia.Inferencer
		nPaths  int
		nProbes int
		dropped int // fluttering paths removed from the input document
	}
	states := make(map[string]*topoState)
	var order []string
	var fleet *cluster.Fleet
	for _, spec := range topos {
		name, file := splitSpec(spec)
		if _, dup := states[name]; dup {
			return fmt.Errorf("-topo %s: duplicate topology name", name)
		}
		rm, probes, dropped, err := loadTopology(file)
		if err != nil {
			return fmt.Errorf("-topo %s: %w", name, err)
		}
		var eng lia.Inferencer
		if *coordinator > 0 {
			fleet, err = cluster.NewFleet(rm, cluster.FleetConfig{
				Size: *coordinator,
				Options: cluster.EngineOptions{
					Strategy:     *strategy,
					Threshold:    *tl,
					ThresholdSet: true,
					Window:       *window,
					Decay:        *decay,
				},
				Logf: log.Printf,
			})
			eng = fleet
		} else {
			topts := opts
			if *stateDir != "" {
				topts = append(append([]lia.Option{}, opts...),
					lia.WithDurability(filepath.Join(*stateDir, name), dur))
			}
			eng, err = lia.New(rm, topts...)
			var corrupt *lia.CorruptStateError
			if errors.As(err, &corrupt) {
				return fmt.Errorf("-topo %s: %w (repair or remove the state directory to boot cold)", name, err)
			}
		}
		if err != nil {
			return fmt.Errorf("-topo %s: %w", name, err)
		}
		states[name] = &topoState{rm: rm, eng: eng, nPaths: rm.NumPaths(), nProbes: probes, dropped: dropped}
		order = append(order, name)
	}

	stateFor := func(flagName, spec string) (*topoState, string, error) {
		name, value := splitSpec(spec)
		st, ok := states[name]
		if !ok {
			return nil, "", fmt.Errorf("-%s %s: unknown topology %q", flagName, spec, name)
		}
		return st, value, nil
	}
	// Collector reports and NDJSON lines are indexed by the positions in the
	// input document: if fluttering repair dropped paths, those indices no
	// longer match the engine's rows and every estimate downstream would be
	// silently misattributed. Refuse instead of remapping wrongly.
	externallyIndexed := func(flagName, spec string, st *topoState) error {
		if st.dropped > 0 {
			return fmt.Errorf("-%s %s: topology dropped %d fluttering paths, so externally measured "+
				"path indices no longer match the engine's rows; remove the fluttering paths from "+
				"the topology file first", flagName, spec, st.dropped)
		}
		return nil
	}
	var closers []func() error
	if fleet != nil {
		closers = append(closers, fleet.Close)
	}
	for _, name := range order {
		st := states[name]
		ds, ok := st.eng.(interface{ DurabilityStats() lia.DurabilityStats })
		if !ok {
			continue
		}
		// Graceful shutdown writes a final checkpoint, so the next boot
		// restores without WAL replay; an unclean kill recovers identically,
		// just replaying the journal tail.
		closers = append(closers, st.eng.(io.Closer).Close)
		d := ds.DurabilityStats()
		log.Printf("liaserve: topology %s: durable state in %s (fsync %s), restored epoch %d (%d snapshots replayed from the WAL)",
			name, d.Dir, d.SyncPolicy, d.RecoveredEpoch, d.ReplayedSnapshots)
	}
	var collectors []*serve.CollectorSource
	for _, spec := range collect {
		st, addr, err := stateFor("collect", spec)
		if err != nil {
			return err
		}
		if err := externallyIndexed("collect", spec, st); err != nil {
			return err
		}
		src, err := serve.NewCollectorSource(addr, serve.CollectorConfig{
			Paths:   st.nPaths,
			Probes:  st.nProbes,
			Settle:  *settle,
			Timeout: *snapTimeout,
		})
		if err != nil {
			return err
		}
		closers = append(closers, src.Close)
		collectors = append(collectors, src)
		st.spec.Sources = append(st.spec.Sources, src)
		log.Printf("liaserve: accepting collector reports on %s (%d paths)", src.Addr(), st.nPaths)
	}
	streamIdx := make(map[string]int)
	for _, spec := range streams {
		st, file, err := stateFor("stream", spec)
		if err != nil {
			return err
		}
		if err := externallyIndexed("stream", spec, st); err != nil {
			return err
		}
		if *stateDir == "" {
			src, err := lia.OpenFileSource(file, st.nProbes)
			if err != nil {
				return err
			}
			closers = append(closers, src.Close)
			st.spec.Sources = append(st.spec.Sources, src)
			continue
		}
		// With durable state the NDJSON stream resumes where the previous
		// process left off instead of re-folding the whole file into the
		// restored moments: the consumed byte offset is persisted in a
		// sidecar next to the topology's checkpoints.
		name, _ := splitSpec(spec)
		sidecar := filepath.Join(*stateDir, name, fmt.Sprintf("stream-%02d.offset", streamIdx[name]))
		streamIdx[name]++
		offset := readOffsetSidecar(sidecar)
		src, err := lia.OpenFileSourceAt(file, offset, st.nProbes)
		if err != nil {
			return err
		}
		if offset > 0 {
			log.Printf("liaserve: topology %s: resuming %s at byte offset %d", name, file, offset)
		}
		tracked := &offsetSidecarSource{src: src, sidecar: sidecar}
		closers = append(closers, tracked.Close)
		st.spec.Sources = append(st.spec.Sources, tracked)
	}
	for _, spec := range sims {
		st, nStr, err := stateFor("sim", spec)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			return fmt.Errorf("-sim %s: snapshot count must be a non-negative integer", spec)
		}
		st.spec.Sources = append(st.spec.Sources,
			lia.NewSimSource(st.rm, lia.SimConfig{Probes: st.nProbes, Seed: *simSeed, Snapshots: n}))
	}
	for _, spec := range worlds {
		st, addr, err := stateFor("world", spec)
		if err != nil {
			return err
		}
		// The scenario is named after the topology, so several liaserve
		// topologies (or a restarted liaserve) attach to their own worlds on
		// a shared server — and a reconnect resumes rather than restarts.
		name, _ := splitSpec(spec)
		src := lia.NewWorldSource(addr, st.rm, lia.WorldConfig{Scenario: name, Probes: st.nProbes})
		closers = append(closers, src.Close)
		st.spec.Sources = append(st.spec.Sources, src)
		log.Printf("liaserve: topology %s: streaming world scenario %q from %s", name, name, addr)
	}
	defer func() {
		for _, c := range closers {
			_ = c()
		}
	}()

	for _, name := range order {
		st := states[name]
		st.spec.Engine = st.eng
		st.spec.Probes = st.nProbes
		if err := srv.Add(name, st.spec); err != nil {
			return err
		}
		if es := st.eng.Stats(); es.Shards > 0 {
			log.Printf("liaserve: topology %s: %d paths, %d virtual links, %d components in %d shards, %d sources",
				name, st.nPaths, st.rm.NumLinks(), es.Components, es.Shards, len(st.spec.Sources))
		} else {
			log.Printf("liaserve: topology %s: %d paths, %d virtual links, %d sources",
				name, st.nPaths, st.rm.NumLinks(), len(st.spec.Sources))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = srv.Run(ctx)
	}()

	if *chaosKillCollector > 0 && len(collectors) > 0 {
		go func() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(*chaosKillCollector):
			}
			for _, src := range collectors {
				log.Printf("liaserve: CHAOS killing collector listener %s", src.Addr())
				if err := src.InjectListenerFailure(); err != nil {
					log.Printf("liaserve: chaos kill %s: %v", src.Addr(), err)
				}
			}
		}()
	}

	handler := srv.Handler()
	if fleet != nil {
		// The coordinator mounts the node-registration protocol next to the
		// serving API on one listener.
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", fleet.Handler())
		mux.Handle("/", handler)
		handler = mux
		log.Printf("liaserve: coordinating a fleet of %d nodes for topology %q", *coordinator, order[0])
	}
	httpSrv := &http.Server{Addr: *listen, Handler: handler}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.ListenAndServe() }()
	log.Printf("liaserve: serving on http://%s (default topology %q)", *listen, order[0])

	select {
	case err := <-httpDone:
		stop()
		<-runDone
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}
	log.Printf("liaserve: shutting down (draining for up to %v)", *shutdownGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx)
	<-runDone
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("liaserve: bye")
	return nil
}

// runNode runs the process as a cluster worker: it serves the node side of
// the cluster protocol on -listen, registers with the coordinator (retrying
// until it is up), and then runs whatever components the coordinator
// assigns until SIGINT/SIGTERM.
func runNode(listen, coordinatorURL, id, advertiseURL string, grace time.Duration, stateDir string, dur lia.DurabilityOptions) error {
	if id == "" {
		id = listen
	}
	if advertiseURL == "" {
		advertiseURL = "http://" + listen
	}
	node := cluster.NewNode(id)
	node.Logf = log.Printf
	if stateDir != "" {
		// Placed components journal and checkpoint under stateDir and restore
		// on rejoin, so this node returns with its moments instead of cold.
		node.StateDir = stateDir
		node.Durability = dur
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: listen, Handler: node.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.ListenAndServe() }()
	log.Printf("liaserve: cluster node %q on http://%s, joining %s", id, listen, coordinatorURL)

	regDone := make(chan error, 1)
	go func() { regDone <- node.Register(ctx, nil, coordinatorURL, advertiseURL) }()

	select {
	case err := <-httpDone:
		stop()
		return fmt.Errorf("http server: %w", err)
	case err := <-regDone:
		if err != nil {
			return fmt.Errorf("register with %s: %w", coordinatorURL, err)
		}
		select {
		case err := <-httpDone:
			stop()
			return fmt.Errorf("http server: %w", err)
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	log.Printf("liaserve: node %q shutting down (draining for up to %v)", id, grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx)
	if cerr := node.Close(); cerr != nil {
		log.Printf("liaserve: node %q close: %v", id, cerr)
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("liaserve: bye")
	return nil
}

// offsetSidecarSource persists the wrapped NDJSON file source's consumed
// byte offset to a sidecar file after every snapshot it yields, so the next
// boot resumes the stream past everything this process already read. The
// offset is written when a snapshot is handed to the ingestion pump, which
// is just before it reaches the engine's journal — so a kill in that window
// skips (never double-folds) at most one snapshot per source; a graceful
// shutdown is exact.
type offsetSidecarSource struct {
	src     *lia.FileSource
	sidecar string
}

func (o *offsetSidecarSource) Next(ctx context.Context) (lia.Snapshot, error) {
	snap, err := o.src.Next(ctx)
	if err == nil {
		writeOffsetSidecar(o.sidecar, o.src.Offset())
	}
	return snap, err
}

func (o *offsetSidecarSource) Close() error {
	writeOffsetSidecar(o.sidecar, o.src.Offset())
	return o.src.Close()
}

// readOffsetSidecar returns the persisted stream offset, or 0 (start of
// file) when the sidecar is absent or unreadable — a bad sidecar degrades
// to re-reading, never to refusing to boot.
func readOffsetSidecar(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil || v < 0 {
		return 0
	}
	return v
}

// writeOffsetSidecar atomically replaces the sidecar (write + rename), so a
// kill mid-write leaves the previous offset intact. Persistence is best
// effort: a failed write costs re-reading some lines on the next boot.
func writeOffsetSidecar(path string, offset int64) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatInt(offset, 10)+"\n"), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, path)
}

// loadTopology reads a topology document, repairs fluttering, and builds
// the reduced routing matrix. It also reports how many input paths the
// repair dropped, so callers can refuse sources whose path indexing would
// no longer line up.
func loadTopology(file string) (*lia.RoutingMatrix, int, int, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, 0, 0, err
	}
	var doc topoDoc
	err = json.NewDecoder(f).Decode(&doc)
	f.Close()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("decode topology: %w", err)
	}
	if doc.Probes <= 0 {
		doc.Probes = 1000
	}
	paths := make([]lia.Path, len(doc.Paths))
	for i, p := range doc.Paths {
		paths[i] = lia.Path{Beacon: p.Beacon, Dst: p.Dst, Links: p.Links}
	}
	paths, droppedIdx := lia.RemoveFluttering(paths)
	if len(droppedIdx) > 0 {
		log.Printf("liaserve: dropped %d fluttering paths (T.2): %v", len(droppedIdx), droppedIdx)
	}
	rm, err := lia.NewTopology(paths)
	if err != nil {
		return nil, 0, 0, err
	}
	return rm, doc.Probes, len(droppedIdx), nil
}
