package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"lia"
)

// span is one timed interval of the traced run: a closed-loop step, an HTTP
// request into serve, or a call into the engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a step
	Name   string `json:"name"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends. A
// nil *tracer records nothing, so untraced runs share the same code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool // spans are recorded only inside the closed loop
	spans []span
	stack []int
	step  int
	calls []timing
}

// timing is one request of a traced step with the duration the client loop
// measured around ServeHTTP itself, apart from the spans.
type timing struct {
	step int
	name string
	d    time.Duration
}

// measured records a request's own timing for checkSpans.
func (t *tracer) measured(name string, d time.Duration) {
	if t == nil || !t.on {
		return
	}
	t.calls = append(t.calls, timing{step: t.step, name: name, d: d})
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Step: t.step, Start: now})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns every span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// engineCall is the engine span each serve span must hold.
var engineCall = map[string]string{
	"serve.ingest":  "lia.ingest_batch",
	"serve.links":   "lia.steady",
	"serve.infer":   "lia.infer",
	"serve.metrics": "lia.stats",
}

// checkSpans verifies a traced run's spans in two ways. Nesting: in every
// step the layers' self times add up to the step's duration, exactly, in
// nanoseconds — which holds whenever the spans nest. Attribution, against
// the client loop's own timings: a step's serve spans are the requests it
// made, in order, each holds its engine call, each lasts what the loop
// measured around ServeHTTP, within slack (the span also brackets the
// loop's two clock reads), and together they cover the step but for that
// slack. So a span that goes missing, lands under the wrong request or
// times the wrong interval fails.
func checkSpans(spans []span, calls []timing) error {
	self := selfTimes(spans)
	sum := map[int]int64{}
	dur := map[int]int64{}
	kids := make([][]int, len(spans))
	for i, s := range spans {
		sum[s.Step] += self[i]
		if s.Parent < 0 {
			dur[s.Step] += s.dur()
		} else {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for step, d := range dur {
		if sum[step] != d {
			return fmt.Errorf("step %d: layer self times sum to %d ns, step took %d ns", step, sum[step], d)
		}
	}
	byStep := map[int][]timing{}
	for _, c := range calls {
		byStep[c.step] = append(byStep[c.step], c)
	}
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		if loop := self[i]; loop > int64(time.Millisecond)+s.dur()/100 {
			return fmt.Errorf("step %d: %d ns of %d ns lie outside every request", s.Step, loop, s.dur())
		}
		want := byStep[s.Step]
		if len(kids[i]) != len(want) {
			return fmt.Errorf("step %d: %d serve spans, %d requests", s.Step, len(kids[i]), len(want))
		}
		for j, k := range kids[i] {
			c, w := spans[k], want[j]
			if c.Name != w.name {
				return fmt.Errorf("step %d: span %d is %s, request %d was %s", s.Step, j, c.Name, j, w.name)
			}
			slack := int64(time.Millisecond + w.d/100)
			if d := c.dur() - w.d.Nanoseconds(); d < 0 || d > slack {
				return fmt.Errorf("step %d: %s span lasts %d ns, the request %d ns", s.Step, c.Name, c.dur(), w.d.Nanoseconds())
			}
			if !slices.ContainsFunc(kids[k], func(e int) bool { return spans[e].Name == engineCall[c.Name] }) {
				return fmt.Errorf("step %d: %s holds no %s span", s.Step, c.Name, engineCall[c.Name])
			}
		}
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// timedEngine wraps an engine so that every call the serve handlers make
// into it, apart from trivial accessors, is a span of the "lia" layer. It
// changes no result.
type timedEngine struct {
	lia.Inferencer
	tr *tracer
}

func (e *timedEngine) IngestBatch(ys [][]float64) error {
	defer e.tr.end(e.tr.begin("lia.ingest_batch"))
	return e.Inferencer.IngestBatch(ys)
}

func (e *timedEngine) InferCongested(ctx context.Context, y []float64) ([]bool, *lia.Result, error) {
	defer e.tr.end(e.tr.begin("lia.infer"))
	return e.Inferencer.InferCongested(ctx, y)
}

func (e *timedEngine) Steady(ctx context.Context) (*lia.SteadyState, error) {
	defer e.tr.end(e.tr.begin("lia.steady"))
	return e.Inferencer.Steady(ctx)
}

func (e *timedEngine) Stats() lia.Stats {
	defer e.tr.end(e.tr.begin("lia.stats"))
	return e.Inferencer.Stats()
}

// The optional interfaces serve type-asserts on an engine. The wrapper
// offers exactly those the wrapped engine offers, so serve reports the same
// /v1/status and /metrics either way.
type (
	durabilityStatser interface {
		DurabilityStats() lia.DurabilityStats
	}
	componentStatser interface {
		ComponentStats() []lia.Stats
	}
)

type timedDurable struct {
	*timedEngine
	d durabilityStatser
}

func (e timedDurable) DurabilityStats() lia.DurabilityStats {
	defer e.tr.end(e.tr.begin("lia.durability_stats"))
	return e.d.DurabilityStats()
}

type timedComponents struct {
	*timedEngine
	c componentStatser
}

func (e timedComponents) ComponentStats() []lia.Stats {
	defer e.tr.end(e.tr.begin("lia.component_stats"))
	return e.c.ComponentStats()
}

// wrapEngine returns eng wrapped in a timing layer that records into tr.
// lia's engines offer at most one of the optional interfaces: a
// DurableEngine the durability stats, a ShardedEngine the component stats.
func wrapEngine(eng lia.Inferencer, tr *tracer) lia.Inferencer {
	base := &timedEngine{Inferencer: eng, tr: tr}
	if d, ok := eng.(durabilityStatser); ok {
		return timedDurable{base, d}
	}
	if c, ok := eng.(componentStatser); ok {
		return timedComponents{base, c}
	}
	return base
}
