// Package fault is the deterministic fault-injection layer of the testbed:
// a schedulable plan of fault episodes that perturb the netsim substrate
// mid-run — link blackouts and flaps, rate and propagation-delay changes,
// switch buffer and ECN-threshold resizing, seeded random loss, and host
// stall windows (GC-pause-style sender freezes).
//
// The paper's claim is robustness under pathology, but the clean testbed
// only exercises perfect links and static buffers. "Disentangling Flaws in
// Linux DCTCP" (PAPERS.md) shows real deployments break in exactly the
// messy conditions a clean testbed never models: loss not caused by
// marking, asymmetric paths, parameter drift. This package opens that
// scenario space without giving up the determinism contract from the
// simulation core: every fault is applied from a sim.Scheduler callback on
// the single simulation thread, and every random choice (in Generate and
// in the injected loss streams) is drawn from seeded sim.RNG streams — so
// a run remains a pure function of its configuration, seed and plan.
package fault

import (
	"fmt"
	"strings"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
)

// Class names a family of faults, the unit of the resilience sweeps: each
// class answers "how does the protocol degrade under this pathology?".
type Class int

const (
	// ClassBlackout takes links fully down for a window (down/up flaps).
	ClassBlackout Class = iota
	// ClassLoss adds independent seeded random packet loss on links —
	// loss the marking loop did not cause and cannot explain.
	ClassLoss
	// ClassRate degrades link rates mid-run (auto-negotiation fallback,
	// oversubscribed trunks).
	ClassRate
	// ClassDelay inflates propagation delays mid-run (reroutes, path
	// asymmetry).
	ClassDelay
	// ClassBuffer resizes switch buffers and ECN thresholds mid-run
	// (shared-buffer carving, AQM parameter drift).
	ClassBuffer
	// ClassStall freezes sender hosts for a window (GC pauses, hypervisor
	// preemption).
	ClassStall

	numClasses // sentinel for iteration; keep last
)

// String returns the flag-friendly name of the class.
func (c Class) String() string {
	switch c {
	case ClassBlackout:
		return "blackout"
	case ClassLoss:
		return "loss"
	case ClassRate:
		return "rate"
	case ClassDelay:
		return "delay"
	case ClassBuffer:
		return "buffer"
	case ClassStall:
		return "stall"
	default:
		panic(fmt.Sprintf("fault: unknown class %d", int(c)))
	}
}

// AllClasses returns every fault class in declaration order.
func AllClasses() []Class {
	all := make([]Class, 0, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		all = append(all, c)
	}
	return all
}

// ParseClass resolves a flag-friendly class name.
func ParseClass(s string) (Class, error) {
	for c := Class(0); c < numClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q (want one of %s, or \"all\")", s, classNames())
}

// ParseClasses resolves a comma-separated class list; "all" (or "") selects
// every class.
func ParseClasses(s string) ([]Class, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllClasses(), nil
	}
	var out []Class
	for _, part := range strings.Split(s, ",") {
		c, err := ParseClass(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ClassesLabel names a class selection for telemetry labels and table
// rows: the class names joined by "+", or "all" when the selection is
// nil/empty (which Generate treats as every class).
func ClassesLabel(cs []Class) string {
	if len(cs) == 0 {
		return "all"
	}
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.String()
	}
	return strings.Join(names, "+")
}

func classNames() string {
	names := make([]string, 0, int(numClasses))
	for c := Class(0); c < numClasses; c++ {
		names = append(names, c.String())
	}
	return strings.Join(names, "/")
}

// Episode is one fault window: Class applied to element Target of the
// class's family (Elements.Links for blackout, loss, rate and delay,
// Elements.Ports for buffer, Elements.Hosts for stall) from From until
// From+Dur, then undone.
type Episode struct {
	Class  Class
	Target int
	From   sim.Time
	Dur    sim.Duration

	// Scale is the multiplier of the element's nominal value recorded by
	// the Injector (rate, delay, buffer) or the drop probability in [0,1]
	// (loss); blackout and stall ignore it. Scaling against the nominal
	// keeps plans topology-agnostic.
	Scale float64
	Seed  uint64 // loss: seed of the link's loss stream
}

// family returns how many elements of c's target family a topology with
// the given element counts has.
func (c Class) family(nLinks, nPorts, nHosts int) int {
	switch c {
	case ClassBlackout, ClassLoss, ClassRate, ClassDelay:
		return nLinks
	case ClassBuffer:
		return nPorts
	case ClassStall:
		return nHosts
	default:
		panic(fmt.Sprintf("fault: unknown class %d", int(c)))
	}
}

// Elements enumerates the mutable topology elements a plan's indices refer
// to. The enumeration must be deterministic: plans address elements by
// position, so two builds of the same topology must list elements in the
// same order.
type Elements struct {
	Links []*netsim.Link
	Ports []*netsim.Port
	Hosts []*netsim.Host
}

// TwoTierElements enumerates the fault targets of a TwoTier topology in a
// fixed, documented order:
//
//   - Links: each worker's uplink link (worker order), then the root
//     switch's port links (attachment order: aggregator first, then the
//     trunks), then each leaf's port links.
//   - Ports: the switch ports in the same order (root then leaves) — the
//     ports with the paper's 128KB/K=32KB configuration.
//   - Hosts: the workers (stall targets are senders; stalling the
//     aggregator would freeze the request loop itself).
func TwoTierElements(tt *netsim.TwoTier) Elements {
	var el Elements
	for _, w := range tt.Workers {
		el.Links = append(el.Links, w.Uplink().Link())
		el.Hosts = append(el.Hosts, w)
	}
	for _, p := range tt.Root.Ports() {
		el.Links = append(el.Links, p.Link())
		el.Ports = append(el.Ports, p)
	}
	for _, leaf := range tt.Leaves {
		for _, p := range leaf.Ports() {
			el.Links = append(el.Links, p.Link())
			el.Ports = append(el.Ports, p)
		}
	}
	return el
}
