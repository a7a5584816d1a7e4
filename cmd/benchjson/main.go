// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, compares benchmark documents against a
// committed baseline, and renders multi-run speedup tables — the three
// legs of the CI performance harness.
//
// Convert (default mode, stdin → stdout):
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson > BENCH.json
//
// Each benchmark line ("BenchmarkX-8  120  9255 ns/op  12 B/op  3 allocs/op
// 0.98 DR") becomes one record with the iteration count and every reported
// metric keyed by its unit; the goos/goarch/cpu header lines become the
// environment block. Multi-package streams (`go test -bench . ./pkg1
// ./pkg2`) are supported: each bench record carries the "pkg" header it
// appeared under, so one BENCH.json can hold the whole module's results.
//
// Compare against a baseline (the regression gate):
//
//	go run ./cmd/benchjson -baseline BENCH_pr4.json -max-regress 0.25 \
//	    -track 'BenchmarkEngineRebuild|BenchmarkServer' BENCH_pr5.json
//
// prints a markdown delta table (ns/op per bench, package-aware: benches
// are matched by package and name with the -N GOMAXPROCS suffix stripped)
// and exits non-zero when any bench matching -track regressed by more than
// -max-regress. Benches absent from the baseline are listed as new and
// never gate. When the baseline was recorded on a different cpu the deltas
// are cross-machine and the gate is advisory (reported, exit 0) unless
// -strict forces it.
//
// Speedup table across runs (the GOMAXPROCS scaling harness):
//
//	go run ./cmd/benchjson -speedup -labels 1,2,4 \
//	    -assert 'BenchmarkShardedEngineRebuild/sharded:1.5' \
//	    scale_1.json scale_2.json scale_4.json
//
// prints a markdown table of each bench's speedup relative to the first
// document (baseline ns/op ÷ run ns/op, so larger is faster) and, with
// -assert regex:min, exits non-zero unless every matching bench reaches
// the minimum speedup in the last document.
//
// Absolute latency gate (the steady-state SLO harness):
//
//	go run ./cmd/benchjson \
//	    -gate 'BenchmarkEngineWindowedRebuild/warm:5000000' windowed.json
//
// prints a markdown table and exits non-zero unless every bench matching
// each -gate regex (repeatable; the spec splits on its last colon) comes in
// at or under the ns/op ceiling. Unlike -baseline, the limit is absolute —
// machine-dependent, but immune to a drifting baseline — so it suits hard
// targets like "a warm rebuild wave stays under five milliseconds". A -gate
// that matches no bench fails rather than passing vacuously.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type report struct {
	Env     map[string]string `json:"env"`
	Benches []bench           `json:"benches"`
}

type bench struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"` // package the bench ran in
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value (e.g. "ns/op")
}

func main() {
	var (
		baseline   = flag.String("baseline", "", "baseline BENCH.json to compare the argument document against")
		maxRegress = flag.Float64("max-regress", 0.25, "with -baseline: fail when a tracked bench's ns/op grows by more than this fraction")
		track      = flag.String("track", ".", "with -baseline: regex of bench names that gate (others are reported but never fail)")
		strict     = flag.Bool("strict", false, "with -baseline: gate regressions even when the baseline was recorded on a different cpu (default: advisory across machines)")
		speedup    = flag.Bool("speedup", false, "render a speedup table across the argument documents, relative to the first")
		labels     = flag.String("labels", "", "with -speedup: comma-separated column labels, one per document")
		assertSpec = flag.String("assert", "", "with -speedup: regex:min — every matching bench must reach the minimum speedup in the last document")
	)
	var gates []gateSpec
	flag.Func("gate", "regex:max-ns — every matching bench's ns/op must come in at or under the ceiling (repeatable)", func(s string) error {
		g, err := parseGate(s)
		if err != nil {
			return err
		}
		gates = append(gates, g)
		return nil
	})
	flag.Parse()
	var err error
	switch {
	case *baseline != "" && *speedup,
		len(gates) > 0 && (*baseline != "" || *speedup):
		err = fmt.Errorf("-baseline, -speedup and -gate are mutually exclusive")
	case *baseline != "":
		err = runBaseline(os.Stdout, *baseline, flag.Args(), *maxRegress, *track, *strict)
	case *speedup:
		err = runSpeedup(os.Stdout, flag.Args(), *labels, *assertSpec)
	case len(gates) > 0:
		err = runGate(os.Stdout, flag.Args(), gates)
	default:
		err = runConvert()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runConvert is the original mode: bench text on stdin, JSON on stdout.
func runConvert() error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	rep := report{Env: map[string]string{}}
	pkg := ""
	pkgs := map[string]bool{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "pkg:"):
			// Package headers repeat per package in a multi-package run;
			// track the current one and stamp it on each bench record.
			_, val, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(val)
			pkgs[pkg] = true
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			key, val, _ := strings.Cut(line, ":")
			rep.Env[key] = strings.TrimSpace(val)
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Pkg = pkg
				rep.Benches = append(rep.Benches, b)
			}
		}
	}
	// env.pkg only describes a single-package stream; in multi-package runs
	// the per-record pkg fields carry the attribution.
	if len(pkgs) == 1 {
		rep.Env["pkg"] = pkg
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseBench decodes one result line: name, iteration count, then
// value/unit pairs.
func parseBench(line string) (bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return bench{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return bench{}, false
	}
	b := bench{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return bench{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// gomaxprocsSuffix matches the trailing -N goroutine-count suffix the test
// runner appends to bench names ("BenchmarkX/sub-8").
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// benchKey identifies a bench across documents: package plus name with the
// GOMAXPROCS suffix stripped, so runs at different -cpu settings compare.
func benchKey(b bench) string {
	return b.Pkg + " " + gomaxprocsSuffix.ReplaceAllString(b.Name, "")
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// nsByKey indexes a document's ns/op by bench key, keeping the first record
// per key and the document's bench order.
func nsByKey(rep *report) (ns map[string]float64, order []string) {
	ns = map[string]float64{}
	for _, b := range rep.Benches {
		v, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		k := benchKey(b)
		if _, dup := ns[k]; dup {
			continue
		}
		ns[k] = v
		order = append(order, k)
	}
	return ns, order
}

// runBaseline compares one document against a committed baseline and gates
// on ns/op regressions of tracked benches.
func runBaseline(w io.Writer, basePath string, args []string, maxRegress float64, track string, strict bool) error {
	if len(args) != 1 {
		return fmt.Errorf("-baseline mode takes exactly one current BENCH.json argument")
	}
	trackRE, err := regexp.Compile(track)
	if err != nil {
		return fmt.Errorf("-track: %w", err)
	}
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(args[0])
	if err != nil {
		return err
	}
	baseNS, _ := nsByKey(base)
	curNS, order := nsByKey(cur)
	// ns/op is only commensurable on the same hardware: when the baseline
	// was produced on a different CPU the deltas are still reported, but
	// the gate downgrades to a warning unless -strict forces it — a slower
	// runner generation must not read as a code regression.
	sameCPU := base.Env["cpu"] == cur.Env["cpu"]
	if !sameCPU {
		fmt.Fprintf(w, "> note: baseline cpu %q differs from current cpu %q — absolute deltas are cross-machine",
			base.Env["cpu"], cur.Env["cpu"])
		if !strict {
			fmt.Fprintf(w, "; the regression gate is advisory for this comparison")
		}
		fmt.Fprintf(w, "\n\n")
	}
	fmt.Fprintf(w, "| bench | baseline ns/op | current ns/op | delta | gated |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|:---:|\n")
	var regressions []string
	for _, k := range order {
		old, inBase := baseNS[k]
		now := curNS[k]
		gated := trackRE.MatchString(k)
		switch {
		case !inBase:
			fmt.Fprintf(w, "| %s | — | %.6g | new | %s |\n", k, now, mark(false))
		default:
			delta := (now - old) / old
			fmt.Fprintf(w, "| %s | %.6g | %.6g | %+.1f%% | %s |\n", k, old, now, 100*delta, mark(gated))
			if gated && delta > maxRegress {
				regressions = append(regressions,
					fmt.Sprintf("%s regressed %+.1f%% (%.6g → %.6g ns/op, limit %+.0f%%)",
						k, 100*delta, old, now, 100*maxRegress))
			}
		}
	}
	removed := make([]string, 0, len(baseNS))
	for k := range baseNS {
		if _, ok := curNS[k]; !ok {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	for _, k := range removed {
		fmt.Fprintf(w, "| %s | %.6g | — | removed | %s |\n", k, baseNS[k], mark(false))
	}
	if len(regressions) > 0 {
		if sameCPU || strict {
			return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(regressions, "\n  "))
		}
		fmt.Fprintf(w, "\n> WARNING (not gating, cross-machine baseline):\n")
		for _, r := range regressions {
			fmt.Fprintf(w, "> %s\n", r)
		}
		return nil
	}
	fmt.Fprintf(w, "\n> no tracked bench regressed beyond %.0f%%\n", 100*maxRegress)
	return nil
}

// gateSpec is one -gate flag: an absolute ns/op ceiling every matching
// bench must respect.
type gateSpec struct {
	re    *regexp.Regexp
	maxNS float64
	raw   string
}

// parseGate decodes a regex:max-ns spec, splitting on the LAST colon so the
// regex part may itself contain colons.
func parseGate(s string) (gateSpec, error) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return gateSpec{}, fmt.Errorf("-gate wants regex:max-ns, got %q", s)
	}
	re, err := regexp.Compile(s[:i])
	if err != nil {
		return gateSpec{}, fmt.Errorf("-gate: %w", err)
	}
	maxNS, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil || maxNS <= 0 {
		return gateSpec{}, fmt.Errorf("-gate ceiling %q: want a positive ns/op number", s[i+1:])
	}
	return gateSpec{re: re, maxNS: maxNS, raw: s}, nil
}

// runGate checks one document's ns/op against absolute ceilings.
func runGate(w io.Writer, args []string, gates []gateSpec) error {
	if len(args) != 1 {
		return fmt.Errorf("-gate mode takes exactly one BENCH.json argument")
	}
	rep, err := loadReport(args[0])
	if err != nil {
		return err
	}
	ns, order := nsByKey(rep)
	fmt.Fprintf(w, "| bench | ns/op | limit ns | ok |\n")
	fmt.Fprintf(w, "|---|---:|---:|:---:|\n")
	var failures []string
	matched := make([]int, len(gates))
	for _, k := range order {
		limit := 0.0 // tightest ceiling across the specs that match this bench
		hit := false
		for gi, g := range gates {
			if !g.re.MatchString(k) {
				continue
			}
			matched[gi]++
			if !hit || g.maxNS < limit {
				limit = g.maxNS
			}
			hit = true
		}
		if !hit {
			continue
		}
		ok := ns[k] <= limit
		fmt.Fprintf(w, "| %s | %.6g | %.6g | %s |\n", k, ns[k], limit, mark(ok))
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s took %.6g ns/op, ceiling %.6g", k, ns[k], limit))
		}
	}
	// A spec that matches nothing must fail: a renamed or filtered-out bench
	// would otherwise turn the gate green with no data.
	for gi, g := range gates {
		if matched[gi] == 0 {
			failures = append(failures, fmt.Sprintf("-gate %q matched no bench", g.raw))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("latency gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "\n> every gated bench is under its ns/op ceiling\n")
	return nil
}

func mark(b bool) string {
	if b {
		return "✓"
	}
	return " "
}

// runSpeedup renders ns/op speedups of each document relative to the first
// and optionally asserts a minimum speedup in the last document.
func runSpeedup(w io.Writer, paths []string, labels, assertSpec string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-speedup mode needs at least two BENCH.json arguments")
	}
	cols := make([]string, len(paths))
	for i, p := range paths {
		cols[i] = p
	}
	if labels != "" {
		parts := strings.Split(labels, ",")
		if len(parts) != len(paths) {
			return fmt.Errorf("-labels names %d columns for %d documents", len(parts), len(paths))
		}
		cols = parts
	}
	var assertRE *regexp.Regexp
	minSpeedup := 0.0
	if assertSpec != "" {
		spec, minStr, ok := strings.Cut(assertSpec, ":")
		if !ok {
			return fmt.Errorf("-assert wants regex:min, got %q", assertSpec)
		}
		var err error
		if assertRE, err = regexp.Compile(spec); err != nil {
			return fmt.Errorf("-assert: %w", err)
		}
		if minSpeedup, err = strconv.ParseFloat(minStr, 64); err != nil {
			return fmt.Errorf("-assert minimum %q: %w", minStr, err)
		}
	}
	reps := make([]*report, len(paths))
	for i, p := range paths {
		var err error
		if reps[i], err = loadReport(p); err != nil {
			return err
		}
	}
	ns := make([]map[string]float64, len(reps))
	var order []string
	for i, rep := range reps {
		ns[i], _ = nsByKey(rep)
		if i == 0 {
			_, order = nsByKey(rep)
		}
	}
	fmt.Fprintf(w, "| bench | %s ns/op |", cols[0])
	for _, c := range cols[1:] {
		fmt.Fprintf(w, " ×%s |", c)
	}
	fmt.Fprintf(w, "\n|---|---:|")
	for range cols[1:] {
		fmt.Fprintf(w, "---:|")
	}
	fmt.Fprintf(w, "\n")
	var failures []string
	asserted := 0
	for _, k := range order {
		base := ns[0][k]
		assertThis := assertRE != nil && assertRE.MatchString(k)
		if assertThis {
			asserted++
		}
		fmt.Fprintf(w, "| %s | %.6g |", k, base)
		for i := range paths[1:] {
			last := i+1 == len(paths)-1
			now, ok := ns[i+1][k]
			if !ok || now == 0 {
				fmt.Fprintf(w, " — |")
				// A missing or zero measurement must fail the assertion,
				// not vacuously pass it: a crashed or filtered bench run
				// would otherwise turn the gate green with no data.
				if last && assertThis {
					failures = append(failures,
						fmt.Sprintf("%s has no ns/op in %s, cannot assert ≥ %.2f×", k, cols[len(cols)-1], minSpeedup))
				}
				continue
			}
			sp := base / now
			fmt.Fprintf(w, " %.2f |", sp)
			if last && assertThis && sp < minSpeedup {
				failures = append(failures,
					fmt.Sprintf("%s reached %.2f× in %s, need ≥ %.2f×", k, sp, cols[len(cols)-1], minSpeedup))
			}
		}
		fmt.Fprintf(w, "\n")
	}
	if assertRE != nil && asserted == 0 {
		failures = append(failures, fmt.Sprintf("-assert %q matched no bench", assertRE))
	}
	if len(failures) > 0 {
		return fmt.Errorf("speedup assertion failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
