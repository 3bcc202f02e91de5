package sweep

import (
	"fmt"
	"io"

	"dctcpplus/internal/stats"
)

// Group aggregates the replicates (seed × fault-seed variations) of one
// experiment point. Metrics accumulate through stats.Welford, so a sweep
// with thousands of replicates per point holds a handful of floats, never
// the sample sets. They fold in job-index order — the runner guarantees
// delivery order — so group means are byte-stable across worker counts and
// cache states.
type Group struct {
	// Point is the first member's point, seeds zeroed — the group's
	// human-facing coordinates.
	Point Point

	// Jobs counts members folded in.
	Jobs int

	// Goodput accumulates the per-replicate mean goodput (Mbps); FCT the
	// per-replicate mean flow-completion time, FCTp95 and FCTp99 the
	// per-replicate P95 and P99 (ms).
	Goodput stats.Welford
	FCT     stats.Welford
	FCTp95  stats.Welford
	FCTp99  stats.Welford

	// Timeouts totals RTO events across replicates.
	Timeouts int64

	// TimeoutRoundFrac accumulates the per-replicate timeout-round fraction
	// (Table I's headline column).
	TimeoutRoundFrac stats.Welford
}

// aggregator folds results into groups keyed by seed-normalized point,
// preserving first-seen order. Single-goroutine: only the runner's
// aggregation loop touches it.
type aggregator struct {
	byKey map[string]*Group
	order []*Group
}

func newAggregator() *aggregator {
	return &aggregator{byKey: make(map[string]*Group)}
}

func (a *aggregator) add(r Result) {
	key := r.Point.GroupKey()
	g, ok := a.byKey[key]
	if !ok {
		pt := r.Point
		pt.Seed = 0
		pt.FaultSeed = 0
		g = &Group{Point: pt}
		a.byKey[key] = g
		a.order = append(a.order, g)
	}
	g.Jobs++
	g.Goodput.Add(r.GoodputMbps.Mean)
	g.FCT.Add(r.FCTms.Mean)
	g.FCTp95.Add(r.FCTms.P95)
	g.FCTp99.Add(r.FCTms.P99)
	g.TimeoutRoundFrac.Add(r.TimeoutRoundFrac)
	g.Timeouts += r.Timeouts
}

func (a *aggregator) groups() []*Group { return a.order }

// Label renders the group's coordinates compactly: the fields that vary
// across typical grids, suppressing defaults.
func (g *Group) Label() string {
	s := fmt.Sprintf("%s N=%d", g.Point.Proto, g.Point.Flows)
	if g.Point.Topo != TopoDefault && g.Point.Topo != "" {
		s += " topo=" + g.Point.Topo
	}
	s += fmt.Sprintf(" rtomin=%v", g.Point.RTOMin)
	if g.Point.Faults != "" {
		s += " faults=" + g.Point.Faults
	}
	return s
}

// WriteGroups renders the cross-seed aggregate table. The format is fixed
// and excludes every nondeterministic quantity (wall time, hit counts), so
// two runs of the same spec against the same build produce byte-identical
// tables — the property `make sweep-smoke` asserts.
func WriteGroups(w io.Writer, groups []*Group) error {
	if _, err := fmt.Fprintf(w, "%-44s %5s %12s %10s %10s %10s %8s %9s\n",
		"point", "runs", "goodput", "fct_ms", "fct_p95", "fct_p99", "to_frac", "timeouts"); err != nil {
		return err
	}
	for _, g := range groups {
		if _, err := fmt.Fprintf(w, "%-44s %5d %12.2f %10.3f %10.3f %10.3f %8.4f %9d\n",
			g.Label(), g.Jobs, g.Goodput.Mean(), g.FCT.Mean(), g.FCTp95.Mean(), g.FCTp99.Mean(),
			g.TimeoutRoundFrac.Mean(), g.Timeouts); err != nil {
			return err
		}
	}
	return nil
}
