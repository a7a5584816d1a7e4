package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on virtual machines whose CPUs share a host's cores.
// While the hypervisor runs another guest on a core one of this machine's
// CPUs wants, the guest kernel counts the lost time as steal in /proc/stat;
// the program's wall-clock spans grow by it although the program did no
// more work. On the 2-vCPU machines this benchmark was tuned on, steal went
// from 1 % to 21 % of the busy CPU time within minutes, and fed5k's
// ingest rate fell by a third with it. So every timing the benchmark reports
// is its wall time with the stolen share taken out: over a block of measured
// steps the stolen share f is steal ÷ (busy + steal) of all CPUs, and each
// duration of the block counts (1 − f) of its wall time. With one busy
// thread that removes exactly the time stolen from it; with two threads
// sharing the work it removes the average of what was stolen from each.
// Slowdowns the host causes without steal (contention for shared caches and
// memory) stay in the timings.

// cpuTicks is the machine's cumulative CPU accounting over all CPUs, in
// USER_HZ ticks: busy is user, nice, system, irq and softirq time, steal
// the time the hypervisor held a CPU that had work.
type cpuTicks struct{ busy, steal int64 }

// readCPUTicks reads the machine's CPU accounting from /proc/stat. It
// returns zeros when the file cannot be read or has no steal column; the
// shares computed from it are then 0 and the timings stay raw wall time.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPUTicks(line)
}

// parseCPUTicks parses the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal, then guest columns that user
// already includes.
func parseCPUTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		var err error
		if v[i], err = strconv.ParseInt(f[i], 10, 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stealMeter adds up the CPU accounting over a set of timed spans.
type stealMeter struct{ busy, steal int64 }

func (m *stealMeter) add(from, to cpuTicks) {
	m.busy += to.busy - from.busy
	m.steal += to.steal - from.steal
}

func (m *stealMeter) merge(o stealMeter) {
	m.busy += o.busy
	m.steal += o.steal
}

// share is the stolen share of the CPU time the machine's CPUs wanted.
func (m stealMeter) share() float64 {
	if m.steal <= 0 || m.busy+m.steal <= 0 {
		return 0
	}
	return float64(m.steal) / float64(m.busy+m.steal)
}

// unstolen scales a wall-clock duration to the share the host did not steal.
func unstolen(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * (1 - share))
}
