package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// judge compares one metric's old and new sample sets against its bound.
// worse is the new median's change as a share of the old, signed so that
// positive is worse. A row whose run-to-run spread exceeds the bound cannot
// be called unchanged: it is unresolved, unless every new run reads better
// than every old run.
func judge(old, cur sampleSet, better string, bound float64) (worse, noise float64, verdict string) {
	worse = ratio(cur.Median-old.Median, old.Median)
	allBetter := cur.Max < old.Min
	if better == "higher" {
		worse = -worse
		allBetter = cur.Min > old.Max
	}
	noise = spreadOf(old)
	if s := spreadOf(cur); s > noise {
		noise = s
	}
	switch {
	case allBetter:
		verdict = verdictBetter
	case noise > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegression
	default:
		verdict = verdictOK
	}
	return worse, noise, verdict
}

// spreadOf is a sample set's run-to-run spread as a share of its median:
// the interquartile distance with four or more runs, the full range with
// fewer (quartiles of two or three values say little).
func spreadOf(s sampleSet) float64 {
	if s.N >= 4 {
		return spread(s.Values)
	}
	return ratio(s.Max-s.Min, s.Median)
}

// compareFiles prints one row per workload × end-to-end metric and every
// sim_digest change, and returns the exit status: 1 on any regression.
// Digest changes are listed, not failed: a protocol fix legitimately
// changes what is simulated, and then host-time rows compare different
// work, which the reader must know.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) (int, error) {
	var bench benchmarkFile
	if err := readJSON(benchPath, &bench); err != nil {
		return 0, err
	}
	var old, cur report
	if err := readJSON(oldPath, &old); err != nil {
		return 0, err
	}
	if err := readJSON(newPath, &cur); err != nil {
		return 0, err
	}
	for _, r := range []report{old, cur} {
		if r.Schema != reportSchema {
			return 0, fmt.Errorf("report schema %q, want %q", r.Schema, reportSchema)
		}
	}
	if old.Seed != cur.Seed || old.Div != cur.Div {
		fmt.Fprintf(w, "note: reports differ in inputs: seed %d vs %d, div %d vs %d\n", old.Seed, cur.Seed, old.Div, cur.Div)
	}

	byName := map[string]workloadReport{}
	for _, wr := range old.Workloads {
		byName[wr.Name] = wr
	}
	regressions, unresolved := 0, 0
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse", "noise", "bound", "verdict")
	for _, nw := range cur.Workloads {
		ow, ok := byName[nw.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s only in %s\n", nw.Name, newPath)
			continue
		}
		if ow.Digest != nw.Digest {
			fmt.Fprintf(w, "%-16s sim_digest changed: %.16s -> %.16s (the two reports simulated different things)\n", nw.Name, ow.Digest, nw.Digest)
		}
		if nw.Failed > ow.Failed {
			fmt.Fprintf(w, "%-16s failed operations rose: %d -> %d of %d\n", nw.Name, ow.Failed, nw.Failed, nw.Attempted)
			regressions++
		}
		for _, m := range bench.EndToEnd {
			prev, oOK := ow.EndToEnd[m.Name]
			next, nOK := nw.EndToEnd[m.Name]
			if !oOK || !nOK || prev.N == 0 || next.N == 0 {
				continue
			}
			worse, noise, verdict := judge(prev, next, m.Better, m.Bound)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-16s %-12s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				nw.Name, m.Name, prev.Median, next.Median, worse*100, noise*100, m.Bound*100, verdict)
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1, nil
	}
	return 0, nil
}
