package fault

import (
	"dctcpplus/internal/sim"
)

// GenConfig parameterizes Generate: a seeded distribution over fault
// episodes. Every random choice — target element, start time, duration,
// loss-stream seed — is drawn from one splitmix64 stream seeded with Seed,
// in a fixed order, so the resulting plan is a pure function of the config
// and the element counts.
type GenConfig struct {
	// Seed drives all generation randomness (and the per-link loss
	// streams, which are seeded from it).
	Seed uint64

	// Classes selects which fault families to generate, applied in the
	// given order. Nil/empty means every class.
	Classes []Class

	// Episodes is the number of fault episodes generated per class.
	Episodes int

	// Start is the earliest episode start; episodes begin uniformly in
	// [Start, Start+Window). Leave Start past the warmup rounds so the
	// perturbation hits a converged system.
	Start  sim.Time
	Window sim.Duration

	// Dur is the nominal episode length; each episode lasts
	// Dur/2 + uniform[0, Dur) — bounded jitter around Dur.
	Dur sim.Duration

	// LossRate is the drop probability during ClassLoss episodes.
	LossRate float64
}

// The severities of the scaled classes, as multipliers of the element's
// nominal value.
const (
	rateScale   = 0.1  // ClassRate: the link falls to 10% of its rate
	delayScale  = 8    // ClassDelay: propagation delay grows 8x
	bufferScale = 0.25 // ClassBuffer: buffer and ECN threshold K fall to a quarter
)

// DefaultGenConfig returns a moderate fault mix: two 10ms-scale episodes
// per class spread over [20ms, 220ms) — deep enough into a standard run to
// hit a converged system, severe enough (5% loss, 10x rate drop, 8x delay,
// quarter buffers) that an unprotected transport visibly degrades.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{
		Seed:     seed,
		Episodes: 2,
		Start:    sim.Time(20 * sim.Millisecond),
		Window:   200 * sim.Millisecond,
		Dur:      10 * sim.Millisecond,
		LossRate: 0.05,
	}
}

// withDefaults fills zero-valued knobs from DefaultGenConfig (Seed and
// Classes are taken as given).
func (c GenConfig) withDefaults() GenConfig {
	d := DefaultGenConfig(c.Seed)
	if c.Episodes <= 0 {
		c.Episodes = d.Episodes
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Dur <= 0 {
		c.Dur = d.Dur
	}
	if c.LossRate <= 0 {
		c.LossRate = d.LossRate
	}
	return c
}

// Generate draws a plan — one episode per window, class by class in
// cfg.Classes order — for a topology with the given element counts (see
// Elements). Each window draws its start, its length, then its target and,
// for loss, the loss-stream seed; a class whose target family is empty
// (e.g. ClassStall with no hosts) draws the window but generates nothing.
// The plan is deterministic: same config + same counts => identical
// episodes.
func Generate(cfg GenConfig, nLinks, nPorts, nHosts int) []Episode {
	cfg = cfg.withDefaults()
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = AllClasses()
	}
	rng := sim.NewRNG(cfg.Seed ^ 0xfa17)
	var plan []Episode
	for _, class := range classes {
		n := class.family(nLinks, nPorts, nHosts)
		for i := 0; i < cfg.Episodes; i++ {
			from := cfg.Start.Add(rng.Duration(cfg.Window))
			dur := cfg.Dur/2 + rng.Duration(cfg.Dur)
			if n == 0 {
				continue
			}
			ep := Episode{Class: class, Target: rng.Intn(n), From: from, Dur: dur}
			switch class {
			case ClassLoss:
				ep.Scale, ep.Seed = cfg.LossRate, rng.Uint64()
			case ClassRate:
				ep.Scale = rateScale
			case ClassDelay:
				ep.Scale = delayScale
			case ClassBuffer:
				ep.Scale = bufferScale
			case ClassBlackout, ClassStall:
			default:
				panic("fault: unknown class")
			}
			plan = append(plan, ep)
		}
	}
	return plan
}
