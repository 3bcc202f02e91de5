package fault

import (
	"fmt"

	"dctcpplus/internal/sim"
)

// Stats totals what a plan actually did to a run. Window totals are closed
// out by Finish; until then, open blackout/stall windows are not counted.
type Stats struct {
	// EventsFired counts element changes applied: one per window edge,
	// two for a buffer edge (the buffer, then the ECN threshold).
	EventsFired int64

	Blackouts    int64        // down/up windows completed
	BlackoutTime sim.Duration // summed per-link down time
	Stalls       int64        // stall/resume windows completed
	StallTime    sim.Duration // summed per-host frozen time

	// InducedDropPkts/Bytes total the packets destroyed by the fault layer
	// itself (link blackholes + injected random loss) — drops the
	// congestion-control loop did not cause. Switch tail drops under a
	// shrunken buffer still show up in PortStats, as they would on a real
	// switch.
	InducedDropPkts  int64
	InducedDropBytes int64
}

// Injector binds a plan to the elements of a built topology and applies
// each episode's edges from scheduler callbacks. All application happens
// on the simulation thread; the injector holds no locks and spawns no
// goroutines, preserving the byte-identical determinism contract.
type Injector struct {
	sched *sim.Scheduler
	el    Elements

	// Nominal values recorded by NewInjector; an episode's Scale is
	// relative to these, and its end restores them exactly.
	nomRate   []int64
	nomDelay  []sim.Duration
	nomBuf    []int
	nomThresh []int

	// Open-window bookkeeping, index-aligned with el.Links / el.Hosts.
	downSince  []sim.Time
	downOpen   []bool
	stallSince []sim.Time
	stallOpen  []bool

	stats    Stats
	finished bool
}

// NewInjector creates an injector over the given topology elements.
func NewInjector(sched *sim.Scheduler, el Elements) *Injector {
	in := &Injector{
		sched:      sched,
		el:         el,
		nomRate:    make([]int64, len(el.Links)),
		nomDelay:   make([]sim.Duration, len(el.Links)),
		nomBuf:     make([]int, len(el.Ports)),
		nomThresh:  make([]int, len(el.Ports)),
		downSince:  make([]sim.Time, len(el.Links)),
		downOpen:   make([]bool, len(el.Links)),
		stallSince: make([]sim.Time, len(el.Hosts)),
		stallOpen:  make([]bool, len(el.Hosts)),
	}
	for i, l := range el.Links {
		in.nomRate[i] = l.RateBps
		in.nomDelay[i] = l.Delay
	}
	for i, p := range el.Ports {
		cfg := p.Config()
		in.nomBuf[i] = cfg.BufferBytes
		in.nomThresh[i] = cfg.MarkThresholdBytes
	}
	return in
}

// Install validates the plan against the bound elements and schedules, in
// plan order, one callback at each episode's start and one at its end; the
// scheduler fires callbacks due at the same instant in the order they were
// queued, so edges that coincide apply in plan order. An episode that
// names a missing element, carries an out-of-range Scale or a negative Dur,
// or starts before the current simulation time panics — a configuration
// error, caught before the plan runs. Install allocates (two closures per
// episode); it runs once at setup, never on the per-packet hot path.
func (in *Injector) Install(plan []Episode) {
	for _, ep := range plan {
		if n := ep.Class.family(len(in.el.Links), len(in.el.Ports), len(in.el.Hosts)); ep.Target < 0 || ep.Target >= n {
			panic(fmt.Sprintf("fault: %s target %d out of range (have %d)", ep.Class, ep.Target, n))
		}
		scaled := ep.Class == ClassRate || ep.Class == ClassDelay || ep.Class == ClassBuffer
		if scaled && !(ep.Scale > 0) || ep.Class == ClassLoss && !(ep.Scale >= 0 && ep.Scale <= 1) {
			panic(fmt.Sprintf("fault: %s scale %v out of range", ep.Class, ep.Scale))
		}
		if ep.From < in.sched.Now() || ep.Dur < 0 {
			panic(fmt.Sprintf("fault: %s window at %v for %v starts in the past or ends before it starts (now %v)",
				ep.Class, ep.From, ep.Dur, in.sched.Now()))
		}
		in.sched.At(ep.From, func() { in.apply(ep, true) })
		in.sched.At(ep.From.Add(ep.Dur), func() { in.apply(ep, false) })
	}
}

// apply opens (start) or closes ep's window at the current time.
func (in *Injector) apply(ep Episode, start bool) {
	now := in.sched.Now()
	i := ep.Target
	scale := 1.0 // the end of a window restores the nominal value
	if start {
		scale = ep.Scale
	}
	switch ep.Class {
	case ClassBlackout:
		window(start, now, &in.downSince[i], &in.downOpen[i], &in.stats.Blackouts, &in.stats.BlackoutTime)
		in.el.Links[i].SetDown(start)
	case ClassLoss:
		rate := 0.0
		if start {
			rate = ep.Scale
		}
		in.el.Links[i].SetLoss(rate, ep.Seed)
	case ClassRate:
		rate := int64(float64(in.nomRate[i]) * scale)
		if rate < 1 {
			rate = 1
		}
		in.el.Links[i].SetRate(rate)
	case ClassDelay:
		in.el.Links[i].SetDelay(in.nomDelay[i].Scale(scale))
	case ClassBuffer:
		buf := int(float64(in.nomBuf[i]) * scale)
		if buf < 1 {
			buf = 1
		}
		in.el.Ports[i].SetBufferBytes(buf)
		in.el.Ports[i].SetMarkThreshold(int(float64(in.nomThresh[i]) * scale))
		in.stats.EventsFired++ // the buffer and the threshold are two changes
	case ClassStall:
		window(start, now, &in.stallSince[i], &in.stallOpen[i], &in.stats.Stalls, &in.stats.StallTime)
		if start {
			in.el.Hosts[i].Uplink().Pause()
		} else {
			in.el.Hosts[i].Uplink().Resume()
		}
	default:
		panic(fmt.Sprintf("fault: unknown class %d", int(ep.Class)))
	}
	in.stats.EventsFired++
}

// window opens (start) or closes one element's blackout or stall window at
// now; closing an open window adds it to count and total. Opening an open
// window or closing a closed one changes nothing.
func window(start bool, now sim.Time, since *sim.Time, open *bool, count *int64, total *sim.Duration) {
	switch {
	case start && !*open:
		*open, *since = true, now
	case !start && *open:
		*open = false
		*count++
		*total += now.Sub(*since)
	}
}

// Finish closes any still-open blackout/stall windows at the current
// simulation time and totals the fault-induced drops from the links. Call
// once after the run drains; further calls return the same stats.
func (in *Injector) Finish() Stats {
	if in.finished {
		return in.stats
	}
	in.finished = true
	now := in.sched.Now()
	for i := range in.downOpen {
		window(false, now, &in.downSince[i], &in.downOpen[i], &in.stats.Blackouts, &in.stats.BlackoutTime)
	}
	for i := range in.stallOpen {
		window(false, now, &in.stallSince[i], &in.stallOpen[i], &in.stats.Stalls, &in.stats.StallTime)
	}
	for _, l := range in.el.Links {
		in.stats.InducedDropPkts += l.Lost() + l.Blackholed()
		in.stats.InducedDropBytes += l.LostBytes() + l.BlackholedBytes()
	}
	return in.stats
}
