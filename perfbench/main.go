// Command perfbench is the pipeline benchmark of the lia service: it drives
// serve's http.Handler in process, from one client goroutine in a closed
// loop, with snapshots drawn from an in-process world.World, and checks
// every answer against computations of its own.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload ingest600|query600|fed5k|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "ingest600", "ingest600, query600, fed5k, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured duration of the closed loop")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for spans and scratch state")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		sp, ok := specs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		res, err := runWorkload(sp, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(2)
		}
		if len(names) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s: %s\n", name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func runWorkload(sp spec, seed uint64, seconds float64, traced bool, out string) (result, error) {
	work := filepath.Join(out, fmt.Sprintf("tmp-%d-%s", os.Getpid(), sp.name))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	r := newRunner(sp, seed, traced, work)
	if err := r.run(seconds); err != nil {
		return result{}, err
	}
	endToEnd := r.endToEnd()
	r.finalChecks()
	res := result{Metrics: endToEnd}
	if traced {
		res.Metrics = r.perLayer()
	}
	res.Correct = len(r.fails) == 0
	for _, k := range []string{"ingest", "links", "infer", "metrics"} {
		res.Attempted += r.ops[k].Attempted
		res.Failed += r.ops[k].Failed
	}
	ops, _ := json.Marshal(r.ops)
	fmt.Printf("%s seed %d: %d measured steps, operations %s\n", sp.name, seed, r.steps, ops)
	dr, fpr := r.det.rates()
	fmt.Printf("%s host steal: %.1f %% of the CPU time the measured steps wanted (taken out of every timing)\n",
		sp.name, 100*r.stolen.share())
	fmt.Printf("%s accuracy: DR %.4f FPR %.4f over %d truly congested link-inferences; worst scaled normal-equation residual %.3g\n",
		sp.name, dr, fpr, r.det.truth, r.worstResid)
	for _, f := range r.fails {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	if traced {
		e2e, _ := json.Marshal(endToEnd)
		fmt.Printf("traced end-to-end (tracing overhead included): %s\n", e2e)
		dir := filepath.Join(out, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
		if err := writeSpans(path, r.tr.spans); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %s (%d)\n", path, len(r.tr.spans))
	}
	printTable(res.Metrics)
	return res, nil
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// endToEnd computes the user-visible metrics, pooled over the segments.
func (r *runner) endToEnd() map[string]metric {
	epochs, infers := sortedCopy(r.epochMs), sortedCopy(r.inferMs)
	return map[string]metric{
		"setup_s":            {median(r.setupS), "s"},
		"ingest_snaps_per_s": {float64(r.ingestSnaps) / r.ingestTime.Seconds(), "1/s"},
		"epoch_p50_ms":       {quantile(epochs, 0.5), "ms"},
		"epoch_p90_ms":       {quantile(epochs, 0.9), "ms"},
		"infer_p50_ms":       {quantile(infers, 0.5), "ms"},
		"infer_p90_ms":       {quantile(infers, 0.9), "ms"},
		"scrape_p50_ms":      {median(r.scrapeMs), "ms"},
		"live_heap_mb":       {median(r.heapMB), "MB"},
	}
}

// perLayer computes the per-layer metrics of a traced run from its spans,
// the engine's counters and the replay mirror.
func (r *runner) perLayer() map[string]metric {
	spans := r.tr.spans
	self := selfTimes(spans)
	type agg struct {
		self, dur time.Duration
		n         int
	}
	by := map[string]*agg{}
	statsCalls := 0
	var statsDur time.Duration
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.self += time.Duration(self[i])
		a.dur += time.Duration(s.dur())
		a.n++
		switch s.Name {
		case "lia.stats", "lia.durability_stats", "lia.component_stats":
			statsDur += time.Duration(s.dur())
			if s.Name == "lia.stats" {
				statsCalls++
			}
		}
	}
	perCall := func(name string, self bool) float64 {
		a := by[name]
		if a == nil || a.n == 0 {
			return 0
		}
		if self {
			return ms(a.self) / float64(a.n)
		}
		return ms(a.dur) / float64(a.n)
	}
	scrapes := 1
	if a := by["serve.metrics"]; a != nil && a.n > 0 {
		scrapes = a.n
	}
	steps := float64(max(r.steps, 1))
	snaps := float64(max(r.ingestSnaps, 1))
	t := r.lt
	perRebuild := func(d time.Duration) float64 { return ms(d) / float64(max(t.rebuilds, 1)) }
	perSolve := func(d time.Duration) float64 { return ms(d) / float64(max(t.solves, 1)) }
	perSnap := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	ckptMs := 0.0
	if r.ckptCount > 0 {
		ckptMs = ms(r.ckptTime) / float64(r.ckptCount)
	}
	walBytes := 0.0
	if t.walSnaps > 0 {
		walBytes = float64(t.walBytes) / float64(t.walSnaps)
	}
	recoverMs := 0.0
	if len(r.recoverMs) > 0 {
		recoverMs = median(r.recoverMs)
	}
	var build, pairIdx []float64
	pairs := 0
	for i := 0; i < r.sp.segments; i++ {
		b, p, n, err := topologyTimes(r.in.paths)
		if err != nil {
			r.fail("topology replay: %v", err)
			break
		}
		build, pairIdx, pairs = append(build, ms(b)), append(pairIdx, ms(p)), n
	}
	return map[string]metric{
		"serve.ingest_self_ms":         {perCall("serve.ingest", true), "ms"},
		"serve.ingest_bytes_per_snap":  {float64(r.ingestBytes) / snaps, "B"},
		"serve.links_self_ms":          {perCall("serve.links", true), "ms"},
		"serve.links_bytes":            {float64(r.linksBytes) / steps, "B"},
		"serve.infer_self_ms":          {perCall("serve.infer", true), "ms"},
		"serve.metrics_self_ms":        {perCall("serve.metrics", true), "ms"},
		"serve.stats_calls_per_scrape": {float64(statsCalls) / float64(scrapes), "count"},

		"lia.ingest_batch_ms":  {perCall("lia.ingest_batch", false), "ms"},
		"lia.steady_ms":        {perCall("lia.steady", false), "ms"},
		"lia.infer_ms":         {perCall("lia.infer", false), "ms"},
		"lia.stats_ms":         {ms(statsDur) / float64(scrapes), "ms"},
		"lia.rebuilds":         {float64(r.rebuilds) / steps, "1/step"},
		"lia.delta_rebuilds":   {float64(r.deltaRebuilds) / steps, "1/step"},
		"lia.elim_reuses":      {float64(r.elimReuses) / steps, "1/step"},
		"lia.dirty_components": {float64(r.dirtyComponents), "count"},
		"lia.checkpoints":      {float64(r.ckptCount) / steps, "1/step"},
		"lia.checkpoint_ms":    {ckptMs, "ms"},
		"lia.recover_ms":       {recoverMs, "ms"},

		"stats.fold_us_per_snap": {perSnap(t.fold, t.folds), "us"},
		"stats.view_ms":          {perRebuild(t.view), "ms"},
		"stats.view_bytes":       {float64(t.viewBytes) / float64(max(t.rebuilds, 1)), "B"},

		"core.phase1_ms":            {perRebuild(t.phase1), "ms"},
		"core.cacheable_components": {float64(r.cacheable), "count"},
		"core.elim_ms":              {perRebuild(t.elim), "ms"},
		"core.solve_reduced_ms":     {perSolve(t.solve), "ms"},
		"linalg.lsq_ms":             {perSolve(t.lsq), "ms"},
		"linalg.lsq_flops":          {t.lsqFlops / float64(max(t.solves, 1)), "flop"},
		"topology.build_ms":         {median(build), "ms"},
		"topology.pair_index_ms":    {median(pairIdx), "ms"},
		"topology.pairs":            {float64(pairs), "count"},
		"wal.append_us_per_snap":    {perSnap(t.wal, t.walSnaps), "us"},
		"wal.bytes_per_snap":        {walBytes, "B"},
		"go.alloc_bytes_per_snap":   {float64(r.allocBytes) / snaps, "B"},
		"go.gc_cycles":              {float64(r.gcCycles) / steps, "1/step"},
	}
}
