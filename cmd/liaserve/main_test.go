package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadFlags drives run through every configuration error it
// reports before a listener opens or a source starts. A run that accepts
// the flags serves until killed, so each case is bounded by a timeout.
func TestRunRejectsBadFlags(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topo.json")
	doc := `{"probes": 100, "paths": [
		{"beacon": 0, "dst": 2, "links": [1, 2]},
		{"beacon": 0, "dst": 3, "links": [1, 3]}]}`
	if err := os.WriteFile(topo, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown fsync", []string{"-topo", topo, "-fsync", "always"}, "unknown -fsync"},
		{"join with coordinator", []string{"-join", "http://127.0.0.1:1", "-coordinator", "2"}, "mutually exclusive"},
		{"coordinator with state dir", []string{"-topo", topo, "-coordinator", "2", "-state-dir", t.TempDir()}, "-state-dir applies"},
		{"no topology", nil, "at least one -topo"},
		{"coordinator with two topologies", []string{"-topo", "a=" + topo, "-topo", "b=" + topo, "-coordinator", "2"}, "exactly one -topo"},
		{"duplicate topology name", []string{"-topo", "a=" + topo, "-topo", "a=" + topo}, "duplicate topology name"},
		{"unknown strategy", []string{"-topo", topo, "-strategy", "random"}, "unknown -strategy"},
		{"negative window", []string{"-topo", topo, "-window", "-3"}, "moment window -3"},
		{"negative decay", []string{"-topo", topo, "-decay", "-0.5"}, "decay factor -0.5"},
		{"coordinator with negative window", []string{"-topo", topo, "-coordinator", "2", "-window", "-3"}, "moment window -3"},
		{"retired workers flag", []string{"-topo", topo, "-workers", "2"}, "flag provided but not defined: -workers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...)) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("run(%q) accepted the flags and started serving", tc.args)
			}
		})
	}
}
