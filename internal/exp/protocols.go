// Package exp is the experiment harness: it maps every table and figure of
// the paper's evaluation (§VI) to a typed, runnable experiment over the
// simulated testbed, emitting the same rows/series the paper reports. See
// DESIGN.md for the experiment index.
package exp

import (
	"fmt"

	"dctcpplus/internal/core"
	"dctcpplus/internal/d2tcp"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
	"dctcpplus/internal/workload"
)

// Protocol selects a transport variant under evaluation.
type Protocol int

const (
	// ProtoTCP is plain TCP NewReno without ECN — the paper's "TCP".
	ProtoTCP Protocol = iota
	// ProtoDCTCP is DCTCP with the standard 2-MSS window floor.
	ProtoDCTCP
	// ProtoDCTCPMin1 is DCTCP with the floor lowered to 1 MSS — the
	// footnote-3 control showing the floor change alone does not help.
	ProtoDCTCPMin1
	// ProtoDCTCPPlus is the full DCTCP+ (randomized slow_time, floor 1).
	ProtoDCTCPPlus
	// ProtoDCTCPPlusPartial is DCTCP+ with desynchronization disabled
	// (deterministic backoff) — the Fig. 6 ablation.
	ProtoDCTCPPlusPartial
	// ProtoRenoPlus is Reno with RFC 3168 ECN plus the enhancement
	// mechanism — the §VII extension showing the mechanism composes with
	// other protocols.
	ProtoRenoPlus
	// ProtoD2TCP is Deadline-Aware DCTCP (Vamanan et al.), with per-flow
	// deadline factors cycling {0.5, 1, 2} across the workload.
	ProtoD2TCP
	// ProtoD2TCPPlus is D2TCP wrapped with the enhancement mechanism —
	// the other §VII composition.
	ProtoD2TCPPlus
)

// Protocols lists every variant, in display order.
var Protocols = []Protocol{
	ProtoTCP, ProtoDCTCP, ProtoDCTCPMin1,
	ProtoDCTCPPlus, ProtoDCTCPPlusPartial, ProtoRenoPlus,
	ProtoD2TCP, ProtoD2TCPPlus,
}

func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoDCTCP:
		return "dctcp"
	case ProtoDCTCPMin1:
		return "dctcp-min1"
	case ProtoDCTCPPlus:
		return "dctcp+"
	case ProtoDCTCPPlusPartial:
		return "dctcp+partial"
	case ProtoRenoPlus:
		return "reno+"
	case ProtoD2TCP:
		return "d2tcp"
	case ProtoD2TCPPlus:
		return "d2tcp+"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol maps a name (as produced by String) back to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown protocol %q", s)
}

// seedStride decorrelates per-flow seeds.
const seedStride = 0x9e3779b97f4a7c15

// deadlineCycle assigns urgency factors to D2TCP flows round-robin,
// modeling a mix of near-, on-, and far-deadline responders.
var deadlineCycle = []float64{0.5, 1, 2}

// DCTCPPlusFactory builds DCTCP+ endpoints with a custom enhancement
// configuration — the hook the ablation benches use to sweep
// backoff_time_unit, divisor_factor and the desynchronization switch
// (§V-D parameter guidance). A retiring DCTCP+ module is recycled.
func DCTCPPlusFactory(rtoMin sim.Duration, seedBase uint64, ecfg core.Config) workload.FlowFactory {
	return func(i int, old tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
		cfg := core.SenderConfig()
		cfg.RTOMin = rtoMin
		cfg.Seed = seedBase + uint64(i+1)*seedStride
		return cfg, core.Recycle(old, dctcp.Recycle(core.Unwrap(old), dctcp.DefaultGain), ecfg)
	}
}

// Factory returns a workload.FlowFactory building this protocol's
// endpoints. rtoMin sets both the minimum and initial RTO (the connections
// are persistent, so the estimator takes over after the first sample).
// seedBase parameterizes the per-flow random streams. A retiring module of
// the kind the protocol builds is recycled (re-parameterised in place), so
// a reopened workload allocates no congestion control.
func (p Protocol) Factory(rtoMin sim.Duration, seedBase uint64) workload.FlowFactory {
	return func(i int, old tcp.CongestionControl) (tcp.Config, tcp.CongestionControl) {
		var cfg tcp.Config
		var cc tcp.CongestionControl
		inner := core.Unwrap(old) // the module an enhancer wraps, recycled under a new wrap
		switch p {
		case ProtoTCP:
			cfg = tcp.DefaultConfig()
			cc = tcp.NewReno{}
		case ProtoDCTCP:
			cfg = dctcp.Config()
			cc = dctcp.Recycle(old, dctcp.DefaultGain)
		case ProtoDCTCPMin1:
			cfg = dctcp.Config()
			cfg.MinCwnd = 1
			cc = dctcp.Recycle(old, dctcp.DefaultGain)
		case ProtoDCTCPPlus:
			cfg = core.SenderConfig()
			cc = core.Recycle(old, dctcp.Recycle(inner, dctcp.DefaultGain), core.DefaultConfig())
		case ProtoDCTCPPlusPartial:
			cfg = core.SenderConfig()
			ecfg := core.DefaultConfig()
			ecfg.Randomize = false
			cc = core.Recycle(old, dctcp.Recycle(inner, dctcp.DefaultGain), ecfg)
		case ProtoRenoPlus:
			cfg = tcp.DefaultConfig()
			cfg.ECN = tcp.ECNClassic
			cfg.MinCwnd = 1
			cfg.DelAckCount = 1
			cc = core.Recycle(old, tcp.NewReno{}, core.DefaultConfig())
		case ProtoD2TCP:
			cfg = d2tcp.Config()
			cc = d2tcp.Recycle(old, dctcp.DefaultGain, deadlineCycle[i%len(deadlineCycle)])
		case ProtoD2TCPPlus:
			cfg = d2tcp.Config()
			cfg.MinCwnd = 1
			cc = core.Recycle(old, d2tcp.Recycle(inner, dctcp.DefaultGain,
				deadlineCycle[i%len(deadlineCycle)]), core.DefaultConfig())
		default:
			panic(fmt.Sprintf("exp: unknown protocol %d", int(p)))
		}
		cfg.RTOMin = rtoMin
		cfg.Seed = seedBase + uint64(i+1)*seedStride
		return cfg, cc
	}
}
