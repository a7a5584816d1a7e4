package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"lia"
	"lia/serve"
	"lia/wal"
)

// Fields of /v1/status and /metrics that read the clock or name the
// durability directory: they differ between any two servers and are left
// out of the comparison.
var (
	clockFields = map[string]bool{
		"uptime_seconds": true, "state_age_ms": true, "last_rebuild_ms": true,
		"last_checkpoint_ms": true, "last_checkpoint_at": true, "dir": true,
	}
	clockMetrics = []string{"liaserve_uptime_seconds", "liaserve_state_age_seconds", "liaserve_rebuild_last_seconds"}
)

func dropClock(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if clockFields[k] {
				delete(v, k)
			} else {
				v[k] = dropClock(x)
			}
		}
	case []any:
		for i, x := range v {
			v[i] = dropClock(x)
		}
	}
	return v
}

func normalizedStatus(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(dropClock(v))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func normalizedMetrics(body []byte) string {
	var keep []string
	for _, line := range strings.Split(string(body), "\n") {
		clock := false
		for _, m := range clockMetrics {
			if strings.HasPrefix(line, m+" ") || strings.HasPrefix(line, m+"{") {
				clock = true
			}
		}
		if !clock {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// exercise serves the same requests to a server over eng and returns the
// /v1/status and /metrics bodies.
func exercise(t *testing.T, eng lia.Inferencer, in *instance) (status, metrics []byte) {
	t.Helper()
	srv := serve.New(serve.Config{Logf: func(string, ...any) {}})
	if err := srv.Add("default", serve.Topology{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	get := func(method, path string, body []byte) []byte {
		c := newCall("test", method, path, body)
		h.ServeHTTP(c.rec, c.req)
		if c.rec.Code != 200 {
			t.Fatalf("%s %s: HTTP %d %s", method, path, c.rec.Code, c.rec.Body)
		}
		return c.rec.Body.Bytes()
	}
	get("POST", "/v1/snapshots", ingestBody(in.ticks(16)))
	get("GET", "/v1/links", nil)
	get("POST", "/v1/infer", inferBody(in.step()))
	return get("GET", "/v1/status", nil), get("GET", "/metrics", nil)
}

// TestWrapperChangesNoOutput serves identical inputs through a plain and a
// wrapped engine of each kind (plain, sharded, sharded and durable) and
// requires identical /v1/status and /metrics bodies, clock fields aside.
func TestWrapperChangesNoOutput(t *testing.T) {
	sp := spec{name: "test", components: 3, leaves: 6}
	kinds := []struct {
		name string
		opts func(dir string) []lia.Option
	}{
		{"plain", func(string) []lia.Option { return []lia.Option{lia.WithShards(1)} }},
		{"sharded", func(string) []lia.Option { return nil }},
		{"durable", func(dir string) []lia.Option {
			return []lia.Option{lia.WithWindow(8), lia.WithDurability(dir, lia.DurabilityOptions{Fsync: wal.SyncOff, CheckpointEvery: 8})}
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			var bodies [2][2][]byte
			tr := newTracer()
			tr.on = true
			for i := range bodies {
				in, err := newInstance(sp, 7)
				if err != nil {
					t.Fatal(err)
				}
				rm, err := lia.NewTopology(in.paths)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := lia.New(rm, kind.opts(filepath.Join(t.TempDir(), "state"))...)
				if err != nil {
					t.Fatal(err)
				}
				defer closeEngine(eng)
				served := eng
				if i == 1 {
					served = wrapEngine(eng, tr)
					_, rawD := eng.(durabilityStatser)
					_, wrapD := served.(durabilityStatser)
					_, rawC := eng.(componentStatser)
					_, wrapC := served.(componentStatser)
					if rawD != wrapD || rawC != wrapC {
						t.Fatalf("optional interfaces: raw %v/%v, wrapped %v/%v", rawD, rawC, wrapD, wrapC)
					}
				}
				bodies[i][0], bodies[i][1] = exercise(t, served, in)
			}
			if a, b := normalizedStatus(t, bodies[0][0]), normalizedStatus(t, bodies[1][0]); a != b {
				t.Errorf("/v1/status differs:\nplain   %s\nwrapped %s", a, b)
			}
			if a, b := normalizedMetrics(bodies[0][1]), normalizedMetrics(bodies[1][1]); a != b {
				t.Errorf("/metrics differs:\nplain\n%s\nwrapped\n%s", a, b)
			}
			if len(tr.spans) == 0 {
				t.Fatal("the wrapper recorded no spans")
			}
			if !bytes.Contains(bodies[1][1], []byte("liaserve_snapshots_total")) {
				t.Fatal("/metrics lacks liaserve_snapshots_total")
			}
		})
	}
}

// TestInstanceDeterministic: the same seed gives the same topology and
// snapshot stream; another seed does not.
func TestInstanceDeterministic(t *testing.T) {
	sp := specs["fed5k"]
	sp.components = 4
	body := func(seed uint64) []byte {
		in, err := newInstance(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		return ingestBody(in.ticks(5))
	}
	if !bytes.Equal(body(3), body(3)) {
		t.Fatal("same seed, different snapshots")
	}
	if bytes.Equal(body(3), body(4)) {
		t.Fatal("different seeds, same snapshots")
	}
}
