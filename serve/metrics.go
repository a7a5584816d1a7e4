package serve

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"lia"
)

// metricDef is one exported gauge/counter family.
type metricDef struct {
	name, help, kind string
	value            func(m *topoMetrics) float64
}

// topoMetrics is one topology's state for one /metrics scrape: the engine
// stats and (for durable engines) the durability stats are each taken once,
// so every family of a scrape reads the same consistent snapshot.
type topoMetrics struct {
	tp *topo
	st lia.Stats
	ds *lia.DurabilityStats // nil when the engine is not durable
}

// metricDefs are the per-topology series of the /metrics exposition, in
// output order. Ingest and inference rates are derived by the scraper from
// the *_total counters; rebuild latency is exported directly.
var metricDefs = []metricDef{
	{"liaserve_snapshots_total", "Learning snapshots ingested (HTTP + background sources).", "counter",
		func(m *topoMetrics) float64 { return float64(m.tp.eng.Snapshots()) }},
	{"liaserve_http_snapshots_total", "Learning snapshots ingested via POST /v1/snapshots.", "counter",
		func(m *topoMetrics) float64 { return float64(m.tp.httpSnapshots.Load()) }},
	{"liaserve_source_snapshots_total", "Learning snapshots ingested from background sources.", "counter",
		func(m *topoMetrics) float64 { return float64(m.tp.sourceSnapshots.Load()) }},
	{"liaserve_inferences_total", "Inference requests served.", "counter",
		func(m *topoMetrics) float64 { return float64(m.tp.inferences.Load()) }},
	{"liaserve_rebuilds_total", "Phase-1 state rebuilds.", "counter",
		func(m *topoMetrics) float64 { return float64(m.st.Rebuilds) }},
	{"liaserve_elim_reuses_total", "Rebuilds that reused the cached Phase-2 elimination.", "counter",
		func(m *topoMetrics) float64 { return float64(m.st.ElimReuses) }},
	{"liaserve_rebuild_last_seconds", "Duration of the most recent rebuild.", "gauge",
		func(m *topoMetrics) float64 { return m.st.LastRebuild.Seconds() }},
	{"liaserve_epoch_lag", "Snapshots ingested but not yet absorbed by the served state.", "gauge",
		func(m *topoMetrics) float64 { return float64(m.st.EpochLag) }},
	{"liaserve_paths", "Routing-matrix path count.", "gauge",
		func(m *topoMetrics) float64 { return float64(m.tp.eng.RoutingMatrix().NumPaths()) }},
	{"liaserve_links", "Routing-matrix virtual-link count.", "gauge",
		func(m *topoMetrics) float64 { return float64(m.tp.eng.RoutingMatrix().NumLinks()) }},
	{"liaserve_shards", "Concurrent rebuild shards of the engine (0 = unsharded).", "gauge",
		func(m *topoMetrics) float64 { return float64(m.st.Shards) }},
	{"liaserve_components", "Link-connected topology components (0 = unsharded engine).", "gauge",
		func(m *topoMetrics) float64 { return float64(m.st.Components) }},
	{"liaserve_delta_rebuilds_total", "Rebuilds that ran the incremental O(delta) Phase-1 fold over dirty shards only.", "counter",
		func(m *topoMetrics) float64 { return float64(m.st.DeltaRebuilds) }},
	{"liaserve_rebuild_dirty_shards", "Shard work of the most recent rebuild (pair shards refolded, or rebuild groups that rebuilt).", "gauge",
		func(m *topoMetrics) float64 { return float64(m.st.DirtyShards) }},
	{"liaserve_rebuild_dirty_components", "Components that actually rebuilt in the most recent sharded rebuild wave.", "gauge",
		func(m *topoMetrics) float64 { return float64(m.st.DirtyComponents) }},
	{"liaserve_rebuild_skipped_components", "Components whose Phase-1 rebuild was skipped because their moments were untouched.", "counter",
		func(m *topoMetrics) float64 { return float64(m.st.SkippedComponents) }},
	{"liaserve_rebuild_failures_total", "Phase-1 rebuild attempts that failed or panicked.", "counter",
		func(m *topoMetrics) float64 { return float64(m.st.RebuildFailures) }},
	{"liaserve_degraded", "1 while the engine serves its last-good state through rebuild failures.", "gauge",
		func(m *topoMetrics) float64 {
			if m.st.Degraded {
				return 1
			}
			return 0
		}},
	{"liaserve_degraded_components", "Sharded components currently failing (their links read unresolved).", "gauge",
		func(m *topoMetrics) float64 { return float64(m.st.DegradedComponents) }},
	{"liaserve_state_age_seconds", "Age of the served Phase-1 state.", "gauge",
		func(m *topoMetrics) float64 { return m.st.StateAge.Seconds() }},
	{"liaserve_source_restarts_total", "Background source restarts by the supervisor.", "counter",
		func(m *topoMetrics) float64 { return float64(m.tp.sourceRestarts()) }},
	{"liaserve_snapshots_quarantined_total", "Source snapshots quarantined by sanitization (NaN/Inf, dimension, outlier).", "counter",
		func(m *topoMetrics) float64 { return float64(m.tp.quarantined()) }},
	{"liaserve_watchers", "GET /v1/watch push streams currently connected.", "gauge",
		func(m *topoMetrics) float64 { return float64(m.tp.watchers.Load()) }},
	// The world-lag gauge applies only to topologies fed by a world server
	// (lia.WorldSource); other sources skip the series (NaN sentinel).
	{"liaserve_world_lag", "World-server snapshots generated but not yet ingested (largest across sources).", "gauge",
		func(m *topoMetrics) float64 { return m.tp.worldLag() }},
	// The cluster gauges apply only to engines with a node fleet behind them
	// (cluster.Fleet); other engines skip the series entirely (NaN sentinel).
	{"liaserve_cluster_nodes", "Nodes registered with the clustered engine's fleet.", "gauge",
		func(m *topoMetrics) float64 {
			if cn, ok := m.tp.eng.(clusterNoder); ok {
				total, _ := cn.ClusterNodes()
				return float64(total)
			}
			return math.NaN()
		}},
	{"liaserve_cluster_nodes_live", "Fleet nodes with healthy ingest and watch streams.", "gauge",
		func(m *topoMetrics) float64 {
			if cn, ok := m.tp.eng.(clusterNoder); ok {
				_, live := cn.ClusterNodes()
				return float64(live)
			}
			return math.NaN()
		}},
	{"liaserve_cluster_snapshots_missed_total", "Snapshot deliveries dropped on the way to down or backlogged fleet nodes.", "counter",
		func(m *topoMetrics) float64 {
			if cm, ok := m.tp.eng.(clusterMisser); ok {
				return float64(cm.Missed())
			}
			return math.NaN()
		}},
	// The durability series apply only to engines persisting state
	// (lia.WithDurability); other engines skip them (NaN sentinel).
	{"liaserve_checkpoints_total", "State checkpoints written this process lifetime.", "counter",
		durable(func(ds *lia.DurabilityStats) float64 { return float64(ds.Checkpoints) })},
	{"liaserve_wal_bytes", "Total size of the write-ahead-log segment files.", "gauge",
		durable(func(ds *lia.DurabilityStats) float64 { return float64(ds.WALBytes) })},
	{"liaserve_recovery_replayed_snapshots", "Snapshots replayed from the WAL tail by boot recovery.", "gauge",
		durable(func(ds *lia.DurabilityStats) float64 { return float64(ds.ReplayedSnapshots) })},
}

// durable adapts a durability family's value: engines that do not persist
// state skip the family (NaN sentinel).
func durable(value func(ds *lia.DurabilityStats) float64) func(m *topoMetrics) float64 {
	return func(m *topoMetrics) float64 {
		if m.ds == nil {
			return math.NaN()
		}
		return value(m.ds)
	}
}

// worldLagger is the optional lag interface a world-server consumer
// (lia.WorldSource) implements; other sources do not.
type worldLagger interface {
	WorldLag() int
}

// clusterNoder is the optional fleet-size interface a clustered engine
// (cluster.Fleet) implements; plain and sharded engines do not.
type clusterNoder interface {
	ClusterNodes() (total, live int)
}

// clusterMisser exposes the fleet's dropped-delivery counter.
type clusterMisser interface {
	Missed() int64
}

// durabilityStatser is the optional interface a durable engine
// (lia.DurableEngine) implements; plain engines do not, so the status block
// and metric families are emitted only where they apply.
type durabilityStatser interface {
	DurabilityStats() lia.DurabilityStats
}

// handleMetrics writes the Prometheus text exposition (version 0.0.4): one
// series per metric family per topology, labelled {topology="name"}, in
// registration order so the output is deterministic for a fixed state. Each
// topology's stats are taken once per scrape (see topoMetrics).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP liaserve_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(&b, "# TYPE liaserve_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "liaserve_uptime_seconds %g\n", time.Since(s.start).Seconds())
	var topos []*topoMetrics
	for _, name := range s.names() {
		tp, err := s.lookup(name)
		if err != nil {
			continue
		}
		m := &topoMetrics{tp: tp, st: tp.eng.Stats()}
		if d, ok := tp.eng.(durabilityStatser); ok {
			ds := d.DurabilityStats()
			m.ds = &ds
		}
		topos = append(topos, m)
	}
	for _, def := range metricDefs {
		// A NaN value means the metric does not apply to the topology's
		// engine (e.g. cluster gauges on a single-process engine); emit the
		// family only for topologies it applies to.
		var lines []string
		for _, m := range topos {
			v := def.value(m)
			if math.IsNaN(v) {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s{topology=%q} %g\n", def.name, m.tp.name, v))
		}
		if len(lines) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", def.name, def.help, def.name, def.kind)
		b.WriteString(strings.Join(lines, ""))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
