package fault

import (
	"fmt"

	"dctcpplus/internal/sim"
)

// Stats totals what a plan actually did to a run. Window totals are closed
// out by Finish; until then, open blackout/stall windows are not counted.
type Stats struct {
	EventsFired int64 // events applied (each Op counts once)

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

// Injector binds a Plan to the elements of a built topology and applies
// each event from a scheduler callback at its time. All application
// happens on the simulation thread; the injector holds no locks and spawns
// no goroutines, preserving the byte-identical determinism contract.
type Injector struct {
	sched *sim.Scheduler
	el    Elements

	// Nominal values recorded at Install time; Scale in events is relative
	// to these, so Scale 1 restores exactly.
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

// Install validates the plan against the bound elements and schedules one
// callback per event. Events at or before the current simulation time are
// rejected — a plan must be installed before it starts. Install allocates
// (one closure per event); it runs once at setup, never on the per-packet
// hot path.
func (in *Injector) Install(plan Plan) {
	for _, ev := range plan.sorted() {
		in.validate(ev)
		if ev.At < in.sched.Now() {
			panic(fmt.Sprintf("fault: event %s at %v is in the past (now %v)", ev.Op, ev.At, in.sched.Now()))
		}
		ev := ev
		in.sched.At(ev.At, func() { in.apply(ev) })
	}
}

// validate panics on events that reference missing elements or carry
// out-of-range parameters — configuration errors, caught at install time.
func (in *Injector) validate(ev Event) {
	switch ev.Op {
	case OpLinkDown, OpLinkUp:
		in.checkIndex(ev, len(in.el.Links), "link")
	case OpLinkRate, OpLinkDelay:
		in.checkIndex(ev, len(in.el.Links), "link")
		if ev.Scale <= 0 {
			panic(fmt.Sprintf("fault: %s scale must be positive, got %v", ev.Op, ev.Scale))
		}
	case OpLinkLoss:
		in.checkIndex(ev, len(in.el.Links), "link")
		if ev.Loss < 0 || ev.Loss > 1 {
			panic(fmt.Sprintf("fault: loss rate %v out of [0,1]", ev.Loss))
		}
	case OpPortBuffer, OpPortThreshold:
		in.checkIndex(ev, len(in.el.Ports), "port")
		if ev.Scale <= 0 {
			panic(fmt.Sprintf("fault: %s scale must be positive, got %v", ev.Op, ev.Scale))
		}
	case OpHostStall, OpHostResume:
		in.checkIndex(ev, len(in.el.Hosts), "host")
	default:
		panic(fmt.Sprintf("fault: unknown op %d", int(ev.Op)))
	}
}

func (in *Injector) checkIndex(ev Event, n int, kind string) {
	if ev.Index < 0 || ev.Index >= n {
		panic(fmt.Sprintf("fault: %s index %d out of range (have %d %ss)", ev.Op, ev.Index, n, kind))
	}
}

// apply executes one event at its scheduled time.
func (in *Injector) apply(ev Event) {
	now := in.sched.Now()
	switch ev.Op {
	case OpLinkDown:
		if !in.downOpen[ev.Index] {
			in.downOpen[ev.Index] = true
			in.downSince[ev.Index] = now
		}
		in.el.Links[ev.Index].SetDown(true)
	case OpLinkUp:
		if in.downOpen[ev.Index] {
			in.downOpen[ev.Index] = false
			in.stats.Blackouts++
			in.stats.BlackoutTime += now.Sub(in.downSince[ev.Index])
		}
		in.el.Links[ev.Index].SetDown(false)
	case OpLinkRate:
		rate := int64(float64(in.nomRate[ev.Index]) * ev.Scale)
		if rate < 1 {
			rate = 1
		}
		in.el.Links[ev.Index].SetRate(rate)
	case OpLinkDelay:
		in.el.Links[ev.Index].SetDelay(in.nomDelay[ev.Index].Scale(ev.Scale))
	case OpLinkLoss:
		in.el.Links[ev.Index].SetLoss(ev.Loss, ev.Seed)
	case OpPortBuffer:
		buf := int(float64(in.nomBuf[ev.Index]) * ev.Scale)
		if buf < 1 {
			buf = 1
		}
		in.el.Ports[ev.Index].SetBufferBytes(buf)
	case OpPortThreshold:
		in.el.Ports[ev.Index].SetMarkThreshold(int(float64(in.nomThresh[ev.Index]) * ev.Scale))
	case OpHostStall:
		if !in.stallOpen[ev.Index] {
			in.stallOpen[ev.Index] = true
			in.stallSince[ev.Index] = now
		}
		in.el.Hosts[ev.Index].Uplink().Pause()
	case OpHostResume:
		if in.stallOpen[ev.Index] {
			in.stallOpen[ev.Index] = false
			in.stats.Stalls++
			in.stats.StallTime += now.Sub(in.stallSince[ev.Index])
		}
		in.el.Hosts[ev.Index].Uplink().Resume()
	default:
		panic(fmt.Sprintf("fault: unknown op %d", int(ev.Op)))
	}
	in.stats.EventsFired++
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
		if in.downOpen[i] {
			in.downOpen[i] = false
			in.stats.Blackouts++
			in.stats.BlackoutTime += now.Sub(in.downSince[i])
		}
	}
	for i := range in.stallOpen {
		if in.stallOpen[i] {
			in.stallOpen[i] = false
			in.stats.Stalls++
			in.stats.StallTime += now.Sub(in.stallSince[i])
		}
	}
	for _, l := range in.el.Links {
		in.stats.InducedDropPkts += l.Lost() + l.Blackholed()
		in.stats.InducedDropBytes += l.LostBytes() + l.BlackholedBytes()
	}
	return in.stats
}
