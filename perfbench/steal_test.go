package main

import (
	"testing"
	"time"
)

func TestParseCPUTicks(t *testing.T) {
	got := parseCPUTicks("cpu  1000 10 200 5000 30 4 6 250 0 0")
	if want := (cpuTicks{busy: 1000 + 10 + 200 + 4 + 6, steal: 250}); got != want {
		t.Fatalf("parseCPUTicks = %+v, want %+v", got, want)
	}
	for _, line := range []string{
		"cpu0 1000 10 200 5000 30 4 6 250 0 0", // a single CPU's line
		"cpu  1000 10 200 5000 30 4 6",         // no steal column
		"cpu  1000 x 200 5000 30 4 6 250",
		"",
	} {
		if got := parseCPUTicks(line); got != (cpuTicks{}) {
			t.Errorf("parseCPUTicks(%q) = %+v, want zeros", line, got)
		}
	}
}

func TestStealShare(t *testing.T) {
	var m stealMeter
	m.add(cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 400, steal: 110})
	if got := m.share(); got != 0.25 {
		t.Fatalf("share = %v, want 0.25 (100 stolen of 400 wanted)", got)
	}
	if got := unstolen(800*time.Millisecond, m.share()); got != 600*time.Millisecond {
		t.Fatalf("unstolen = %v, want 600ms", got)
	}
	var idle stealMeter
	idle.add(cpuTicks{}, cpuTicks{})
	if got := idle.share(); got != 0 {
		t.Fatalf("share without ticks = %v, want 0", got)
	}
}
