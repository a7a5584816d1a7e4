package serve_test

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"lia"
	"lia/serve"
)

// countingEngine forwards to a durable engine and counts the stats calls a
// /metrics scrape makes.
type countingEngine struct {
	lia.Inferencer
	stats, durability atomic.Int64
}

func (c *countingEngine) Stats() lia.Stats {
	c.stats.Add(1)
	return c.Inferencer.Stats()
}

func (c *countingEngine) DurabilityStats() lia.DurabilityStats {
	c.durability.Add(1)
	return c.Inferencer.(*lia.DurableEngine).DurabilityStats()
}

// TestMetricsOneStatsPerTopology pins that a /metrics scrape takes exactly
// one Stats and one DurabilityStats per topology, so every family of a
// scrape comes from one consistent snapshot and a sharded engine aggregates
// its components once per scrape, not once per family.
func TestMetricsOneStatsPerTopology(t *testing.T) {
	s := serve.New(serve.Config{RebuildEvery: -1, Logf: t.Logf})
	var engines []*countingEngine
	for _, name := range []string{"plain", "sharded"} {
		paths := treePaths(2, 3)
		if name == "sharded" {
			paths = twoComponentPaths()
		}
		rm, err := lia.NewTopology(paths)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := lia.New(rm, lia.WithDurability(t.TempDir(), lia.DurabilityOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inner.(*lia.DurableEngine).Close() })
		eng := &countingEngine{Inferencer: inner}
		engines = append(engines, eng)
		if err := s.Add(name, serve.Topology{Engine: eng, Probes: 400}); err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(testVectors(t, rm, 1, 16)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, eng := range engines {
		eng.stats.Store(0)
		eng.durability.Store(0)
	}
	if code, body := do(t, http.MethodGet, ts.URL+"/metrics", nil); code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, body)
	}
	for i, eng := range engines {
		if got := eng.stats.Load(); got != 1 {
			t.Errorf("topology %d: %d Stats calls per scrape, want 1", i, got)
		}
		if got := eng.durability.Load(); got != 1 {
			t.Errorf("topology %d: %d DurabilityStats calls per scrape, want 1", i, got)
		}
	}
}
