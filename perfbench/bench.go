package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"lia"
	"lia/internal/core"
	"lia/serve"
	"lia/wal"
)

// stealBlock is how much measured time a block of consecutive steps holds:
// the steps of a block have their timings corrected for host steal with
// the block's stolen share (steal.go). Two seconds hold hundreds of
// accounting ticks, so the share is not quantised, and are short enough to
// follow the host's steal, which was seen to change from one segment of a
// few seconds to the next.
const stealBlock = 2 * time.Second

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// runner drives one workload: set-up, the closed loop, the output checks
// and the metrics.
type runner struct {
	sp   spec
	seed uint64
	in   *instance // the current segment's inputs
	tr   *tracer   // nil for untraced runs
	work string    // scratch directory of this run

	rm      *lia.RoutingMatrix
	eng     lia.Inferencer // the live engine, unwrapped
	h       http.Handler
	blocks  []block
	nc      int
	image   string      // durable workloads: the crash image set-up recovers,
	histPar [][]float64 // its snapshots projected on the parity component
	histYs  [][]float64 // and, in traced runs, its snapshots

	ops   map[string]*opCount
	fails []string

	det         detection
	worstResid  float64
	neBuf       []float64 // checkNormalEquations' scratch, reused by every check
	setupS      []float64
	recoverMs   []float64
	ingestTime  time.Duration // total time of the measured POSTs
	epochMs     []float64
	inferMs     []float64
	scrapeMs    []float64
	heapMB      []float64
	ingestSnaps int
	ingestBytes int
	linksBytes  int
	steps       int        // measured steps
	stolen      stealMeter // host CPU accounting over all measured steps
	blk         stepBlock  // measured steps whose timings await their steal share

	lastLinks []byte
	lastKept  []bool
	lastLoss  []float64
	lastHeld  tick

	// Component parity (durable workloads): the projections of every
	// snapshot the server ingested onto one component's paths.
	parComp  int
	parPaths []int
	parYs    [][]float64

	// Traced runs only: the current segment's replay mirror, the layer
	// times pooled over segments and the engine counters' growth.
	mir             *mirror
	lt              layerTimes
	rebuilds        uint64
	deltaRebuilds   uint64
	elimReuses      uint64
	dirtyComponents int
	cacheable       int
	allocBytes      uint64
	gcCycles        uint32
	ckptSeen        uint64
	ckptCount       uint64
	ckptTime        time.Duration
	stats0          lia.Stats
}

func newRunner(sp spec, seed uint64, traced bool, work string) *runner {
	r := &runner{sp: sp, seed: seed, work: work, ops: map[string]*opCount{}}
	for _, k := range []string{"ingest", "links", "infer", "metrics"} {
		r.ops[k] = &opCount{}
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *runner) fail(format string, args ...any) {
	if len(r.fails) < 20 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// engineOptions are the lia options the workload is served with; dir is
// the durability directory of durable workloads.
func (r *runner) engineOptions(dir string) []lia.Option {
	var opts []lia.Option
	if r.sp.window > 0 {
		opts = append(opts, lia.WithWindow(r.sp.window))
	}
	if r.sp.greedy {
		opts = append(opts, lia.WithStrategy(lia.StrategyGreedyBasis))
	}
	if r.sp.durable {
		opts = append(opts, lia.WithDurability(dir, lia.DurabilityOptions{Fsync: wal.SyncOff}))
	}
	return opts
}

// stepBlock holds the raw wall-clock timings of consecutive measured steps
// until the block is full and they are recorded with its stolen share
// taken out.
type stepBlock struct {
	meter    stealMeter
	measured time.Duration
	ingest   time.Duration
	epoch    []time.Duration
	infer    []time.Duration
	scrape   []time.Duration
}

// flush records the block's timings net of its stolen share.
func (r *runner) flush() {
	b := &r.blk
	f := b.meter.share()
	r.ingestTime += unstolen(b.ingest, f)
	for _, d := range b.epoch {
		r.epochMs = append(r.epochMs, ms(unstolen(d, f)))
	}
	for _, d := range b.infer {
		r.inferMs = append(r.inferMs, ms(unstolen(d, f)))
	}
	for _, d := range b.scrape {
		r.scrapeMs = append(r.scrapeMs, ms(unstolen(d, f)))
	}
	r.stolen.merge(b.meter)
	*b = stepBlock{epoch: b.epoch[:0], infer: b.infer[:0], scrape: b.scrape[:0]}
}

// call is one prepared HTTP request; requests and bodies are built before
// the timed span that serves them.
type call struct {
	name string
	req  *http.Request
	rec  *httptest.ResponseRecorder
}

func newCall(name, method, path string, body []byte) *call {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	return &call{name: name, req: req, rec: httptest.NewRecorder()}
}

// do serves one call in process and returns its duration.
func (r *runner) do(h http.Handler, c *call) time.Duration {
	id := r.tr.begin(c.name)
	t := time.Now()
	h.ServeHTTP(c.rec, c.req)
	d := time.Since(t)
	r.tr.end(id)
	r.tr.measured(c.name, d)
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ys(ts []tick) [][]float64 {
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = t.y
	}
	return out
}

// writeHistory ingests the durable workloads' history into a durable
// engine and copies its directory, as a crash would leave it, to r.image.
// Of the snapshots it keeps the parity component's projections and, for
// traced runs, the vectors the replay mirror needs: the live heap measured
// at the end of a segment should be the server's, not the history's.
func (r *runner) writeHistory(hist []tick) error {
	dir := filepath.Join(r.work, "history")
	rm, err := lia.NewTopology(r.in.paths)
	if err != nil {
		return err
	}
	r.parComp = int(r.seed % uint64(r.sp.components))
	r.parPaths = lia.NewPartition(rm).Component(r.parComp).Paths
	r.project(hist)
	r.histPar = r.parYs
	if r.tr != nil {
		r.histYs = ys(hist)
	}
	eng, err := lia.New(rm, r.engineOptions(dir)...)
	if err != nil {
		return err
	}
	const batch = 10
	for i := 0; i < len(hist); i += batch {
		if err := eng.IngestBatch(ys(hist[i:min(i+batch, len(hist))])); err != nil {
			return err
		}
	}
	r.image = filepath.Join(r.work, "image")
	if err := copyDir(dir, r.image); err != nil {
		return err
	}
	if err := closeEngine(eng); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

func closeEngine(eng lia.Inferencer) error {
	if c, ok := eng.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// setupOnce builds the serving stack from the routes — and, for durable
// workloads, recovers a fresh copy of the crash image — then serves the
// first estimate: POST of the warm-up batch (600-path workloads) and GET
// /v1/links. It returns the set-up time with its stolen share taken out.
func (r *runner) setupOnce(seg int, warm []byte) (time.Duration, error) {
	dir := ""
	if r.sp.durable {
		dir = filepath.Join(r.work, fmt.Sprintf("live-%d", seg))
		if err := copyDir(r.image, dir); err != nil {
			return 0, err
		}
	}
	var calls []*call
	if warm != nil {
		calls = append(calls, newCall("serve.ingest", "POST", "/v1/snapshots", warm))
	}
	links := newCall("serve.links", "GET", "/v1/links", nil)
	calls = append(calls, links)
	runtime.GC()

	cpu0 := readCPUTicks()
	start := time.Now()
	rm, err := lia.NewTopology(r.in.paths)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	eng, err := lia.New(rm, r.engineOptions(dir)...)
	if err != nil {
		return 0, err
	}
	recovered := time.Since(t)
	served := eng
	if r.tr != nil {
		served = wrapEngine(eng, r.tr)
	}
	srv := serve.New(serve.Config{Logf: func(string, ...any) {}})
	if err := srv.Add("default", serve.Topology{Engine: served}); err != nil {
		return 0, err
	}
	h := srv.Handler()
	for _, c := range calls {
		r.do(h, c)
	}
	took := time.Since(start)
	var meter stealMeter
	meter.add(cpu0, readCPUTicks())
	took = unstolen(took, meter.share())

	sent := r.sp.history + r.sp.warmup
	if warm != nil {
		r.ops["ingest"].Attempted++
		r.checkIngest(calls[0], r.sp.warmup, sent)
	}
	r.ops["links"].Attempted++
	r.checkLinks(links, rm.NumLinks(), sent)
	r.rm, r.eng, r.h, r.nc = rm, eng, h, rm.NumLinks()
	r.in.sent = sent
	if r.sp.durable {
		r.recoverMs = append(r.recoverMs, ms(unstolen(recovered, meter.share())))
	}
	return took, nil
}

// decode parses a JSON response body, recording a failed operation when
// the status is not 200 or the body does not parse.
func (r *runner) decode(kind string, c *call, v any) bool {
	if c.rec.Code != http.StatusOK {
		r.ops[kind].Failed++
		r.fail("%s: HTTP %d: %s", c.name, c.rec.Code, bytes.TrimSpace(c.rec.Body.Bytes()))
		return false
	}
	if v == nil {
		return true
	}
	if err := json.Unmarshal(c.rec.Body.Bytes(), v); err != nil {
		r.ops[kind].Failed++
		r.fail("%s: decode: %v", c.name, err)
		return false
	}
	return true
}

func (r *runner) checkIngest(c *call, n, sent int) {
	var resp serve.IngestResponse
	if !r.decode("ingest", c, &resp) {
		return
	}
	if resp.Ingested != n || resp.Snapshots != sent {
		r.fail("ingest acknowledged %d (lifetime %d), sent %d (lifetime %d)", resp.Ingested, resp.Snapshots, n, sent)
	}
}

func (r *runner) checkLinks(c *call, nc, sent int) []bool {
	var resp serve.LinksResponse
	if !r.decode("links", c, &resp) {
		return nil
	}
	if resp.Epoch != sent || resp.Snapshots != sent {
		r.fail("/v1/links epoch %d snapshots %d, want both %d", resp.Epoch, resp.Snapshots, sent)
	}
	if resp.Unresolved != 0 {
		r.fail("/v1/links reports %d unresolved links", resp.Unresolved)
	}
	if len(resp.Links) != nc {
		r.fail("/v1/links has %d links, topology %d", len(resp.Links), nc)
		return nil
	}
	kept := make([]bool, nc)
	for k, l := range resp.Links {
		kept[k] = l.Kept
	}
	r.lastLinks = append(r.lastLinks[:0], c.rec.Body.Bytes()...)
	r.lastKept = kept
	return kept
}

func (r *runner) checkInfer(c *call, t tick, kept []bool) {
	var resp serve.InferResponse
	if !r.decode("infer", c, &resp) {
		return
	}
	if resp.Epoch != r.in.sent || resp.Unresolved != 0 || len(resp.Links) != r.nc {
		r.fail("/v1/infer epoch %d unresolved %d links %d, want %d, 0, %d",
			resp.Epoch, resp.Unresolved, len(resp.Links), r.in.sent, r.nc)
		return
	}
	loss := make([]float64, r.nc)
	congested := make([]bool, r.nc)
	for k, l := range resp.Links {
		loss[k], congested[k] = l.LossRate, l.Congested
		if kept != nil && l.Kept != kept[k] {
			r.fail("/v1/infer keeps link %d = %v, /v1/links of the same epoch %v", k, l.Kept, kept[k])
			return
		}
	}
	if kept == nil {
		return
	}
	worst, err := checkNormalEquations(r.rm, r.blocks, kept, loss, t.y, &r.neBuf)
	if err != nil {
		r.fail("/v1/infer: %v", err)
	}
	r.worstResid = max(r.worstResid, worst)
	r.det.add(virtualTruth(r.rm, r.in.linkIdx, t.regime), resp.Threshold, congested)
	r.lastLoss, r.lastHeld = loss, t
}

// run executes the workload: the spec's number of independent segments,
// each with its own snapshot stream, set-up and share of the measured
// duration. Only the steps' timed spans count towards that duration;
// set-up, input generation and the output checks come on top.
func (r *runner) run(seconds float64) error {
	n := r.sp.segments
	for seg := 0; seg < n; seg++ {
		if err := r.segment(seg, seconds/float64(n)); err != nil {
			return fmt.Errorf("segment %d: %w", seg, err)
		}
	}
	return nil
}

// segment builds a fresh serving stack from this segment's inputs, drives
// the closed loop on it and runs the end-of-segment checks.
func (r *runner) segment(seg int, seconds float64) error {
	sp := r.sp
	in, err := newInstance(sp, r.seed*uint64(sp.segments)+uint64(seg))
	if err != nil {
		return err
	}
	r.in = in
	var warmBody []byte
	var pre [][]float64 // snapshots ingested before the closed loop
	if sp.durable {
		// One history per run: every segment recovers a copy of the same
		// crash image and continues it with its own stream.
		if r.image == "" {
			if err := r.writeHistory(in.ticks(sp.history)); err != nil {
				return fmt.Errorf("write history: %w", err)
			}
		}
		pre = r.histYs
		r.parYs = append([][]float64(nil), r.histPar...)
	} else {
		warm := in.ticks(sp.warmup)
		warmBody = ingestBody(warm)
		pre = ys(warm)
	}
	d, err := r.setupOnce(seg, warmBody)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupS = append(r.setupS, d.Seconds())
	if r.blocks == nil {
		r.blocks = blocksOf(r.rm)
	}
	if r.tr != nil {
		defer os.RemoveAll(filepath.Join(r.work, fmt.Sprintf("mirror-wal-%d", seg)))
		if r.mir, err = r.newMirror(seg, pre); err != nil {
			return fmt.Errorf("mirror: %w", err)
		}
		defer r.mir.close()
		r.ckptSeen = 0
		if d, ok := r.eng.(durabilityStatser); ok {
			r.ckptSeen = d.DurabilityStats().Checkpoints
		}
		r.stats0 = r.eng.Stats()
		r.tr.on = true
	}

	e0, i0, snaps0, ingest0, stolen0 := len(r.epochMs), len(r.inferMs), r.ingestSnaps, r.ingestTime, r.stolen
	budget := time.Duration(seconds * float64(time.Second))
	for measured := time.Duration(0); measured == 0 || measured < budget; {
		d, err := r.step()
		if err != nil {
			return err
		}
		measured += d
		if r.blk.measured >= stealBlock {
			r.flush()
		}
	}
	r.flush()
	segStolen := stealMeter{busy: r.stolen.busy - stolen0.busy, steal: r.stolen.steal - stolen0.steal}
	fmt.Printf("%s segment %d: set-up %.3f s, %d steps, host steal %.1f %%, ingest %.1f snaps/s, epoch p50 %.2f ms, infer p50 %.3f ms\n",
		sp.name, seg, d.Seconds(), len(r.epochMs)-e0, 100*segStolen.share(),
		float64(r.ingestSnaps-snaps0)/(r.ingestTime-ingest0).Seconds(),
		median(r.epochMs[e0:]), median(r.inferMs[i0:]))

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(r.h)
	r.heapMB = append(r.heapMB, float64(mem.HeapAlloc)/1e6)
	if r.tr != nil {
		r.tr.on = false
		st := r.eng.Stats()
		r.rebuilds += st.Rebuilds - r.stats0.Rebuilds
		r.deltaRebuilds += st.DeltaRebuilds - r.stats0.DeltaRebuilds
		r.elimReuses += st.ElimReuses - r.stats0.ElimReuses
		r.dirtyComponents = st.DirtyComponents
		r.cacheable = r.mir.cacheable()
		r.lt.add(r.mir.t)
	}
	if err := r.segmentChecks(seg); err != nil {
		return err
	}
	err = closeEngine(r.eng)
	r.eng, r.h = nil, nil
	if err != nil {
		return err
	}
	// Deleted at once, the segment's files never reach the disk: the
	// kernel's writeback of them would otherwise run during later segments.
	return os.RemoveAll(filepath.Join(r.work, fmt.Sprintf("live-%d", seg)))
}

// step runs one closed-loop round: POST a batch, GET /v1/links, POST the
// held-out inferences, GET /metrics, and returns the wall time the four
// took; their timings join the current steal block. Set-up already served
// the cold rebuild, so every step is measured.
func (r *runner) step() (time.Duration, error) {
	sp := r.sp
	learn := r.in.ticks(sp.ingest)
	held := r.in.ticks(sp.infers)
	body := ingestBody(learn)
	ingest := newCall("serve.ingest", "POST", "/v1/snapshots", body)
	links := newCall("serve.links", "GET", "/v1/links", nil)
	infers := make([]*call, len(held))
	for i, t := range held {
		infers[i] = newCall("serve.infer", "POST", "/v1/infer", inferBody(t))
	}
	scrape := newCall("serve.metrics", "GET", "/metrics", nil)

	var m0 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&m0)
		r.tr.step = r.steps + 1
	}
	id := r.tr.begin("step")
	cpu0 := readCPUTicks()
	start := time.Now()
	dIngest := r.do(r.h, ingest)
	r.do(r.h, links)
	dEpoch := time.Since(start)
	dInfer := make([]time.Duration, len(infers))
	for i, c := range infers {
		dInfer[i] = r.do(r.h, c)
	}
	dScrape := r.do(r.h, scrape)
	dStep := time.Since(start)
	r.blk.meter.add(cpu0, readCPUTicks())
	r.tr.end(id)

	if r.tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.gcCycles += m1.NumGC - m0.NumGC
	}
	if d, ok := r.eng.(durabilityStatser); ok && r.tr != nil {
		// At most one checkpoint lands per step, so the last one's time is
		// the time of every new one.
		ds := d.DurabilityStats()
		if ds.Checkpoints > r.ckptSeen {
			r.ckptCount += ds.Checkpoints - r.ckptSeen
			r.ckptTime += ds.LastCheckpoint
		}
		r.ckptSeen = ds.Checkpoints
	}
	for _, k := range []string{"ingest", "links", "metrics"} {
		r.ops[k].Attempted++
	}
	r.ops["infer"].Attempted += len(infers)
	r.in.sent += len(learn)
	r.steps++
	b := &r.blk
	b.measured += dStep
	b.ingest += dIngest
	b.epoch = append(b.epoch, dEpoch)
	b.infer = append(b.infer, dInfer...)
	b.scrape = append(b.scrape, dScrape)
	r.ingestSnaps += len(learn)
	r.ingestBytes += len(body)
	r.linksBytes += links.rec.Body.Len()

	r.checkIngest(ingest, len(learn), r.in.sent)
	kept := r.checkLinks(links, r.nc, r.in.sent)
	for i, c := range infers {
		r.checkInfer(c, held[i], kept)
	}
	if r.decode("metrics", scrape, nil) && !bytes.Contains(scrape.rec.Body.Bytes(), []byte("liaserve_snapshots")) {
		r.fail("/metrics lacks liaserve_snapshots")
	}
	if r.sp.durable {
		r.project(learn)
	}
	if r.mir != nil {
		return dStep, r.replay(learn, held, kept)
	}
	return dStep, nil
}

// project keeps the parity component's share of every ingested snapshot.
func (r *runner) project(ts []tick) {
	for _, t := range ts {
		p := make([]float64, len(r.parPaths))
		for l, g := range r.parPaths {
			p[l] = t.y[g]
		}
		r.parYs = append(r.parYs, p)
	}
}

// newMirror builds the replay mirror and feeds it everything the server
// ingested before the loop, then rebuilds it once as set-up did.
func (r *runner) newMirror(seg int, pre [][]float64) (*mirror, error) {
	rm, err := lia.NewTopology(r.in.paths)
	if err != nil {
		return nil, err
	}
	walDir := ""
	if r.sp.durable {
		walDir = filepath.Join(r.work, fmt.Sprintf("mirror-wal-%d", seg))
	}
	strategy := core.EliminatePaperSequential
	if r.sp.greedy {
		strategy = core.EliminateGreedyBasis
	}
	m, err := newMirror(rm, r.sp.window, strategy, walDir)
	if err != nil {
		return nil, err
	}
	if err := m.ingest(pre); err != nil {
		return nil, err
	}
	if err := m.rebuild(); err != nil {
		return nil, err
	}
	return m, nil
}

// replay runs the step's inputs through the mirror and checks that it
// reached the served elimination.
func (r *runner) replay(learn, held []tick, kept []bool) error {
	if err := r.mir.ingest(ys(learn)); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := r.mir.rebuild(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for _, t := range held {
		if err := r.mir.infer(t.y); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	if kept != nil && !slices.Equal(kept, r.mir.keptGlobal(r.nc)) {
		r.fail("after %d snapshots: the replay mirror kept other links than the server", r.in.sent)
	}
	return nil
}

// segmentChecks runs the end-of-segment checks: R* has full column rank on
// the final epoch and, for durable workloads, the two bitwise properties.
func (r *runner) segmentChecks(seg int) error {
	if r.lastKept != nil {
		if err := keptFullRank(r.rm, r.blocks, r.lastKept); err != nil {
			r.fail("final epoch: %v", err)
		}
	}
	if !r.sp.durable {
		return nil
	}
	if err := r.checkComponentParity(); err != nil {
		return err
	}
	return r.checkRecovery(seg)
}

// finalChecks runs the end-of-run checks: the accuracy floors over every
// inference and, for traced runs, the spans' nesting and attribution.
func (r *runner) finalChecks() {
	dr, fpr := r.det.rates()
	if dr < minDR || fpr > maxFPR {
		r.fail("accuracy: DR %.4f (floor %.2f), FPR %.4f (ceiling %.2f) over %d truly congested links",
			dr, minDR, fpr, maxFPR, r.det.truth)
	}
	if r.tr != nil {
		if err := checkSpans(r.tr.spans, r.tr.calls); err != nil {
			r.fail("trace: %v", err)
		}
	}
}

// checkComponentParity feeds one component's projection of the whole
// snapshot stream to a standalone WithShards(1) engine and requires the
// served variances, elimination and last inference of that component to
// match it bit for bit.
func (r *runner) checkComponentParity() error {
	part := lia.NewPartition(r.rm)
	sub, local, err := part.ComponentMatrix(r.parComp)
	if err != nil {
		return err
	}
	opts := []lia.Option{lia.WithShards(1)}
	if r.sp.window > 0 {
		opts = append(opts, lia.WithWindow(r.sp.window))
	}
	eng, err := lia.New(sub, opts...)
	if err != nil {
		return err
	}
	if err := eng.IngestBatch(r.parYs); err != nil {
		return err
	}
	ctx := context.Background()
	st, err := eng.Steady(ctx)
	if err != nil {
		return err
	}
	var served serve.LinksResponse
	if err := json.Unmarshal(r.lastLinks, &served); err != nil {
		return err
	}
	paths := part.Component(r.parComp).Paths
	yp := make([]float64, len(paths))
	for l, g := range paths {
		yp[l] = r.lastHeld.y[g]
	}
	res, err := eng.Infer(ctx, yp)
	if err != nil {
		return err
	}
	keptSet := map[int]bool{}
	for _, k := range st.Kept {
		keptSet[k] = true
	}
	for kl, kg := range local {
		sv := served.Links[kg]
		if math.Float64bits(sv.Variance) != math.Float64bits(st.Variances[kl]) || sv.Kept != keptSet[kl] {
			r.fail("component %d link %d: served variance %v kept %v, standalone %v kept %v",
				r.parComp, kg, sv.Variance, sv.Kept, st.Variances[kl], keptSet[kl])
			return nil
		}
		if math.Float64bits(r.lastLoss[kg]) != math.Float64bits(res.LossRates[kl]) {
			r.fail("component %d link %d: served loss %v, standalone %v", r.parComp, kg, r.lastLoss[kg], res.LossRates[kl])
			return nil
		}
	}
	return nil
}

// checkRecovery recovers a copy of the live durability directory, as a
// crash would leave it, into a fresh server and requires its /v1/links
// body to equal the live server's byte for byte.
func (r *runner) checkRecovery(seg int) error {
	dir := filepath.Join(r.work, fmt.Sprintf("recheck-%d", seg))
	defer os.RemoveAll(dir)
	if err := copyDir(filepath.Join(r.work, fmt.Sprintf("live-%d", seg)), dir); err != nil {
		return err
	}
	rm, err := lia.NewTopology(r.in.paths)
	if err != nil {
		return err
	}
	eng, err := lia.New(rm, r.engineOptions(dir)...)
	if err != nil {
		return err
	}
	defer closeEngine(eng)
	srv := serve.New(serve.Config{Logf: func(string, ...any) {}})
	if err := srv.Add("default", serve.Topology{Engine: eng}); err != nil {
		return err
	}
	c := newCall("recheck", "GET", "/v1/links", nil)
	srv.Handler().ServeHTTP(c.rec, c.req)
	if !bytes.Equal(c.rec.Body.Bytes(), r.lastLinks) {
		r.fail("recovered /v1/links (%d bytes) differs from the live server's (%d bytes)", c.rec.Body.Len(), len(r.lastLinks))
	}
	return nil
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}
