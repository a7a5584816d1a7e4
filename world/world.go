// Package world is a congestion-driven scenario simulator for
// non-stationary, correlated-loss worlds — the loss processes the paper's
// i.i.d. assumption explicitly sidesteps.
//
// Where internal/netsim draws independent per-link loss from a stationary
// scenario, a world.World models the *mechanism* that couples losses in a
// real network: every physical link has a capacity C and an offered load R,
// utilisation rho = R/C drives overload loss (p = 1 − C/R when R > C, per
// the capacity/queue traffic model), and a bounded queue absorbs transient
// bursts and drains at capacity per tick. Layered on top are
//
//   - diurnal load curves (a sinusoidal multiplier over a configurable
//     period), so utilisation — and with it loss — is non-stationary by
//     construction;
//   - congestion events that multiply the offered load of a *group* of
//     links sharing a bottleneck, correlating their losses in time;
//   - flapping links that alternate between healthy and lossy phases on a
//     fixed period; and
//   - topology churn: scheduled reroutes that switch a path onto different
//     physical links mid-run, so observations stop matching the routing
//     matrix the consumer learned — the hardest regime shift of all.
//
// Determinism is a hard contract, not an accident: every random draw is
// keyed by (seed, tick, link) or (seed, tick, path) through its own PCG
// stream, never by call order, so the same seed and the same event schedule
// produce a bitwise-identical snapshot stream on every run, at every
// GOMAXPROCS, on every machine. Soak tests rely on this to compare a chaos
// run against a clean replay.
//
// A World advances only through Step — there is no wall clock anywhere —
// and Server (see server.go) exposes it over a TCP NDJSON protocol that
// lia.WorldSource consumes, so liaserve and the examples plug into a live
// world exactly like any other lia.SnapshotSource.
package world

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Event kinds understood by the scheduler.
const (
	// KindCongest multiplies the offered load of Links by Factor — a shared
	// bottleneck filling up. All affected links overload together, so their
	// losses correlate snapshot-to-snapshot.
	KindCongest = "congest"
	// KindFlap alternates Links between a healthy phase and a lossy phase
	// (loss = Loss) every Period/2 ticks — interface damping, a wedged LAG
	// member, a route that keeps withdrawing.
	KindFlap = "flap"
	// KindReroute switches the listed paths onto new physical links at
	// Tick — topology churn mid-run. Links never seen before are created
	// with the world's deterministic defaults.
	KindReroute = "reroute"
)

// Reroute is one path's new physical route under a KindReroute event.
type Reroute struct {
	// Path is the row index of the rerouted path.
	Path int `json:"path"`
	// Links is its new physical link sequence.
	Links []int `json:"links"`
}

// Event is one scheduled regime change. Events activate at the start of
// tick Tick and, for congest/flap, stay active for Duration ticks
// (Duration <= 0 means permanently — a regime shift rather than an
// episode).
type Event struct {
	// Tick is the world tick the event activates at (the first Step is
	// tick 0).
	Tick int `json:"tick"`
	// Duration bounds congest/flap activity in ticks; <= 0 is permanent.
	// Ignored for reroutes, which are instantaneous and irreversible.
	Duration int `json:"duration,omitempty"`
	// Kind is one of KindCongest, KindFlap, KindReroute.
	Kind string `json:"kind"`
	// Links are the physical links a congest/flap event affects.
	Links []int `json:"links,omitempty"`
	// Factor is the congest load multiplier (default 4).
	Factor float64 `json:"factor,omitempty"`
	// Period is the flap full cycle in ticks (default 8): lossy for the
	// first half of each cycle, healthy for the second.
	Period int `json:"period,omitempty"`
	// Loss is the flap lossy-phase loss rate (default 0.3).
	Loss float64 `json:"loss,omitempty"`
	// Reroutes are the path changes of a KindReroute event.
	Reroutes []Reroute `json:"reroutes,omitempty"`
}

// validate normalises defaults and rejects malformed events.
func (ev *Event) validate(numPaths int) error {
	switch ev.Kind {
	case KindCongest:
		if len(ev.Links) == 0 {
			return errors.New("world: congest event needs links")
		}
		if ev.Factor == 0 {
			ev.Factor = 4
		}
		if ev.Factor < 0 {
			return fmt.Errorf("world: congest factor %g < 0", ev.Factor)
		}
	case KindFlap:
		if len(ev.Links) == 0 {
			return errors.New("world: flap event needs links")
		}
		if ev.Period <= 0 {
			ev.Period = 8
		}
		if ev.Loss == 0 {
			ev.Loss = 0.3
		}
		if ev.Loss < 0 || ev.Loss > 1 {
			return fmt.Errorf("world: flap loss %g outside [0,1]", ev.Loss)
		}
	case KindReroute:
		if len(ev.Reroutes) == 0 {
			return errors.New("world: reroute event needs reroutes")
		}
		for _, rr := range ev.Reroutes {
			if rr.Path < 0 || rr.Path >= numPaths {
				return fmt.Errorf("world: reroute of path %d, world has %d paths", rr.Path, numPaths)
			}
			if len(rr.Links) == 0 {
				return fmt.Errorf("world: reroute of path %d to an empty route", rr.Path)
			}
		}
	default:
		return fmt.Errorf("world: unknown event kind %q", ev.Kind)
	}
	if ev.Tick < 0 {
		return fmt.Errorf("world: event tick %d < 0", ev.Tick)
	}
	return nil
}

// active reports whether a congest/flap event applies at tick t.
func (ev *Event) active(t int) bool {
	if t < ev.Tick {
		return false
	}
	return ev.Duration <= 0 || t < ev.Tick+ev.Duration
}

// Config tunes the world's traffic model. The zero value selects the
// documented defaults.
type Config struct {
	// Seed drives every random stream; the same seed (with the same paths
	// and schedule) reproduces the snapshot stream bit-for-bit.
	Seed uint64

	// Probes, when positive, samples each path's received fraction as a
	// Binomial(Probes, p)/Probes draw — per-probe measurement noise on top
	// of the congestion process. 0 reports exact fractions.
	Probes int

	// Utilization is the mean base utilisation rho = R/C a link idles at
	// (default 0.55). Individual links draw their base load from
	// [Utilization−UtilizationSpread/2, Utilization+UtilizationSpread/2]
	// deterministically from (Seed, link ID).
	Utilization float64
	// UtilizationSpread is the per-link base utilisation spread
	// (default 0.2).
	UtilizationSpread float64

	// Capacity is the per-link service rate in load units per tick
	// (default 1). Loss depends only on rho, so this is a pure scale knob.
	Capacity float64
	// Queue is the per-link buffer in units of Capacity·tick (default 0.5):
	// how much transient overload a link absorbs before dropping.
	Queue float64

	// DiurnalPeriod is the load-curve cycle length in ticks (0 disables the
	// diurnal multiplier).
	DiurnalPeriod int
	// DiurnalAmplitude is the peak-to-mean diurnal swing as a fraction of
	// base load (default 0.3 when DiurnalPeriod > 0).
	DiurnalAmplitude float64

	// Jitter is the per-tick, per-link multiplicative load noise amplitude
	// (default 0.15): each tick every link's load is scaled by
	// 1 + Jitter·u, u uniform in [−1, 1), drawn from a PCG keyed by
	// (Seed, tick, link). This is what makes losses vary snapshot to
	// snapshot — the second-order signal the engine learns from.
	Jitter float64
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Utilization == 0 {
		c.Utilization = 0.55
	}
	if c.UtilizationSpread == 0 {
		c.UtilizationSpread = 0.2
	}
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	if c.Queue == 0 {
		c.Queue = 0.5
	}
	if c.DiurnalPeriod > 0 && c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = 0.3
	}
	if c.Jitter == 0 {
		c.Jitter = 0.15
	}
	return c
}

// link is one physical link's static parameters and queue state.
type link struct {
	id       int
	capacity float64
	baseLoad float64 // offered load before diurnal/jitter/events
	queueCap float64 // buffer in load units
	queue    float64 // current occupancy
}

// Tick is one world snapshot: the observation the consumer sees plus the
// ground truth the consumer is trying to infer.
type Tick struct {
	// Tick is the world time this snapshot was generated at.
	Tick int `json:"tick"`
	// Frac is the per-path received fraction (exact products, or binomial
	// samples when Config.Probes > 0).
	Frac []float64 `json:"frac"`
	// Loss is the realized per-physical-link loss rate this tick, aligned
	// with the world's sorted link-ID order (see World.LinkIDs).
	Loss []float64 `json:"loss"`
	// Regime is the noise-free mean loss of the current regime per link —
	// the steady-state overload loss max(0, 1−C/R) under the tick's diurnal
	// and event multipliers with jitter stripped, and the flap duty-cycle
	// mean for flapping links. This is the ground truth a windowed engine
	// should re-converge to after a shift.
	Regime []float64 `json:"regime"`
}

// World is one deterministic scenario instance. It is not safe for
// concurrent use; Server serialises access.
type World struct {
	cfg   Config
	seed  uint64
	paths [][]int // physical link IDs per path (current routes)

	links   []*link     // sorted by id
	linkIdx map[int]int // id -> index into links

	schedule []Event // all events ever scheduled, in scheduling order
	// linkEvents indexes the congest/flap events of schedule by physical
	// link ID, each event at most once per link, in scheduling order.
	linkEvents map[int][]int
	tick       int   // next tick to be generated by Step
	last       *Tick // most recent Step result (nil before the first)
}

// New builds a world over the given physical routes. paths[i] is the
// ordered physical link IDs of path i — exactly the Links field of the
// topology documents liaserve serves. The schedule may be nil; more events
// can be added later with ScheduleEvent as long as they are in the future.
func New(paths [][]int, cfg Config, schedule []Event) (*World, error) {
	if len(paths) == 0 {
		return nil, errors.New("world: no paths")
	}
	for i, p := range paths {
		if len(p) == 0 {
			return nil, fmt.Errorf("world: path %d has no links", i)
		}
	}
	w := &World{
		cfg:        cfg.withDefaults(),
		seed:       cfg.Seed,
		linkIdx:    make(map[int]int),
		linkEvents: make(map[int][]int),
	}
	w.paths = make([][]int, len(paths))
	for i, p := range paths {
		w.paths[i] = append([]int(nil), p...)
		for _, id := range p {
			w.ensureLink(id)
		}
	}
	for _, ev := range schedule {
		if err := w.ScheduleEvent(ev); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// ensureLink creates the state of physical link id if it does not exist
// yet, drawing its parameters deterministically from (seed, id) — so a
// reroute onto a brand-new link is just as reproducible as the initial
// topology. Links are kept sorted by ID so every per-link iteration is
// order-deterministic.
func (w *World) ensureLink(id int) {
	if _, ok := w.linkIdx[id]; ok {
		return
	}
	rng := rand.New(rand.NewPCG(w.seed^0x11afc0de, uint64(uint(id))))
	u := w.cfg.Utilization + w.cfg.UtilizationSpread*(rng.Float64()-0.5)
	if u < 0.05 {
		u = 0.05
	}
	l := &link{
		id:       id,
		capacity: w.cfg.Capacity,
		baseLoad: u * w.cfg.Capacity,
		queueCap: w.cfg.Queue * w.cfg.Capacity,
	}
	// Insert sorted by ID.
	pos := sort.Search(len(w.links), func(i int) bool { return w.links[i].id >= id })
	w.links = append(w.links, nil)
	copy(w.links[pos+1:], w.links[pos:])
	w.links[pos] = l
	for i := pos; i < len(w.links); i++ {
		w.linkIdx[w.links[i].id] = i
	}
}

// ScheduleEvent adds an event to the schedule. Events may only be scheduled
// at the current tick or later: rewriting the past would break the replay
// contract (the same schedule must reproduce the same stream).
func (w *World) ScheduleEvent(ev Event) error {
	if err := ev.validate(len(w.paths)); err != nil {
		return err
	}
	if ev.Tick < w.tick {
		return fmt.Errorf("world: event at tick %d is in the past (world is at %d)", ev.Tick, w.tick)
	}
	for _, rr := range rerouteLinks(ev) {
		// Materialise rerouted-onto links now, so LinkIDs (and the Loss/
		// Regime alignment the protocol advertises) is stable from assign
		// time — a mid-run reroute must not re-index the truth arrays.
		w.ensureLink(rr)
	}
	if ev.Kind == KindCongest || ev.Kind == KindFlap {
		idx := len(w.schedule)
		for _, id := range ev.Links {
			if l := w.linkEvents[id]; len(l) > 0 && l[len(l)-1] == idx {
				continue // a link listed twice counts once
			}
			w.linkEvents[id] = append(w.linkEvents[id], idx)
		}
	}
	w.schedule = append(w.schedule, ev)
	return nil
}

// rerouteLinks lists the physical links a reroute event routes onto.
func rerouteLinks(ev Event) []int {
	if ev.Kind != KindReroute {
		return nil
	}
	var out []int
	for _, rr := range ev.Reroutes {
		out = append(out, rr.Links...)
	}
	return out
}

// LinkIDs returns the world's physical link IDs in ascending order — the
// alignment of Tick.Loss and Tick.Regime. The set is stable from creation
// (scheduled reroute targets are pre-materialised), so the protocol can
// advertise it once at assign time.
func (w *World) LinkIDs() []int {
	out := make([]int, len(w.links))
	for i, l := range w.links {
		out[i] = l.id
	}
	return out
}

// NumPaths returns the number of paths (the snapshot dimension).
func (w *World) NumPaths() int { return len(w.paths) }

// Now returns the number of ticks generated so far (the tick of the next
// Step).
func (w *World) Now() int { return w.tick }

// Last returns the most recent Step result (nil before the first Step).
// The caller must not modify it.
func (w *World) Last() *Tick { return w.last }

// Events returns how many events have been scheduled over the world's life.
func (w *World) Events() int { return len(w.schedule) }

// diurnal returns the tick's diurnal load multiplier.
func (w *World) diurnal(t int) float64 {
	if w.cfg.DiurnalPeriod <= 0 {
		return 1
	}
	return 1 + w.cfg.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/float64(w.cfg.DiurnalPeriod))
}

// eventState aggregates the active events' effect on one link at tick t:
// the combined congest load factor, and whether a flap pins the loss. It
// walks only the events that list the link, in scheduling order.
func (w *World) eventState(t, linkID int) (factor float64, flapping bool, flapLoss, flapDuty float64) {
	factor = 1
	for _, i := range w.linkEvents[linkID] {
		ev := &w.schedule[i]
		if !ev.active(t) {
			continue
		}
		switch ev.Kind {
		case KindCongest:
			factor *= ev.Factor
		case KindFlap:
			// Lossy during the first half of each cycle.
			phase := (t - ev.Tick) % ev.Period
			if phase < (ev.Period+1)/2 {
				flapping, flapLoss = true, ev.Loss
			}
			flapDuty += ev.Loss * float64((ev.Period+1)/2) / float64(ev.Period)
		}
	}
	if flapDuty > 1 {
		flapDuty = 1
	}
	return factor, flapping, flapLoss, flapDuty
}

// applyReroutes switches paths onto their new routes for events activating
// exactly at tick t.
func (w *World) applyReroutes(t int) {
	for i := range w.schedule {
		ev := &w.schedule[i]
		if ev.Kind != KindReroute || ev.Tick != t {
			continue
		}
		for _, rr := range ev.Reroutes {
			w.paths[rr.Path] = append([]int(nil), rr.Links...)
		}
	}
}

// Step advances the world one tick and returns its snapshot. The result is
// owned by the world until the next Step (Server encodes it immediately).
//
// Per link: offered load R = base·diurnal·congest·(1 + jitter), the queue
// absorbs R−C up to its capacity and drains at C, and the tick's loss is
// the dropped fraction of offered load — zero while the queue still has
// room, rising toward 1 − C/R as sustained overload saturates it. A
// flapping link's lossy phase overrides the queue model. Per path: the
// received fraction is the product of its current links' transmission
// rates, optionally binomially sampled at Config.Probes.
func (w *World) Step() *Tick {
	t := w.tick
	w.tick++
	w.applyReroutes(t)

	out := &Tick{
		Tick:   t,
		Frac:   make([]float64, len(w.paths)),
		Loss:   make([]float64, len(w.links)),
		Regime: make([]float64, len(w.links)),
	}
	dn := w.diurnal(t)
	for i, l := range w.links {
		factor, flapping, flapLoss, flapDuty := w.eventState(t, l.id)
		mean := l.baseLoad * dn * factor
		// Regime truth: steady-state overload loss of the noise-free load,
		// plus the flap duty-cycle mean — what the loss converges to if the
		// regime holds.
		regime := 0.0
		if mean > l.capacity {
			regime = 1 - l.capacity/mean
		}
		out.Regime[i] = 1 - (1-regime)*(1-flapDuty)

		if flapping {
			// The lossy phase pins the loss; the queue neither fills nor
			// drains during it (the link is dropping at the policer, not
			// overflowing the buffer).
			out.Loss[i] = flapLoss
			continue
		}
		jit := jitterDraw(w.seed, t, l.id)
		offered := mean * (1 + w.cfg.Jitter*jit)
		if offered < 0 {
			offered = 0
		}
		q := l.queue + offered - l.capacity
		if q < 0 {
			q = 0
		}
		dropped := 0.0
		if q > l.queueCap {
			dropped = q - l.queueCap
			q = l.queueCap
		}
		l.queue = q
		if offered > 0 {
			out.Loss[i] = dropped / offered
		}
	}
	for p, route := range w.paths {
		tr := 1.0
		for _, id := range route {
			tr *= 1 - out.Loss[w.linkIdx[id]]
		}
		if w.cfg.Probes > 0 {
			out.Frac[p] = binomialFrac(w.seed, t, p, w.cfg.Probes, tr)
		} else {
			out.Frac[p] = tr
		}
	}
	w.last = out
	return out
}

// jitterDraw returns the uniform [−1, 1) jitter of (tick, link), keyed so
// the draw is independent of evaluation order.
func jitterDraw(seed uint64, tick, linkID int) float64 {
	rng := rand.New(rand.NewPCG(seed^0x6a177e12, uint64(uint(tick))<<32|uint64(uint32(linkID))))
	return 2*rng.Float64() - 1
}

// binomialFrac samples Binomial(n, p)/n with a PCG keyed by (seed, tick,
// path) — per-probe measurement noise, bit-reproducible.
func binomialFrac(seed uint64, tick, path, n int, p float64) float64 {
	rng := rand.New(rand.NewPCG(seed^0x9b0be5, uint64(uint(tick))<<32|uint64(uint32(path))))
	got := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			got++
		}
	}
	return float64(got) / float64(n)
}
