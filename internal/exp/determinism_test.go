package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"dctcpplus/internal/telemetry"
)

// instrumentedIncast performs one fully instrumented incast run and returns
// the registry snapshot's JSON serialization plus a finished manifest.
func instrumentedIncast(t *testing.T, p Protocol, flows int) ([]byte, *telemetry.Manifest) {
	t.Helper()
	reg := telemetry.NewRegistry()
	o := fastIncastOpts(p, flows)
	o.Telemetry = reg
	RunIncast(o)

	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.NewManifest("determinism-regression", o.Testbed.Seed)
	if err != nil {
		t.Fatal(err)
	}
	m.Finish(reg, 0)
	return data, m
}

// TestSeededRunsAreByteIdentical is the determinism regression harness: the
// same seeded experiment run twice must produce byte-identical metric
// snapshots — every counter and histogram across every hot layer —
// for both the baseline and the enhanced protocol. Wall-clock manifest
// fields (CreatedAt, WallNs) are excluded by construction; everything else
// must match to the byte.
func TestSeededRunsAreByteIdentical(t *testing.T) {
	for _, p := range []Protocol{ProtoDCTCP, ProtoDCTCPPlus} {
		t.Run(p.String(), func(t *testing.T) {
			snapA, manA := instrumentedIncast(t, p, 24)
			snapB, manB := instrumentedIncast(t, p, 24)

			if !bytes.Equal(snapA, snapB) {
				t.Errorf("registry snapshots differ between identically seeded runs\nA: %s\nB: %s", snapA, snapB)
			}

			// The manifest adds run metadata on top of the snapshot; after
			// normalizing the wall-clock stamp the two must serialize
			// identically as well.
			sameManifests(t, manA, manB)
		})
	}
}

// sameManifests fails the test unless the two manifests serialize
// identically once their wall-clock creation stamps are cleared.
func sameManifests(t *testing.T, a, b *telemetry.Manifest) {
	t.Helper()
	a.CreatedAt, b.CreatedAt = "", ""
	jsonA, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jsonB, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonA, jsonB) {
		t.Errorf("manifests differ between identically seeded runs\nA: %s\nB: %s", jsonA, jsonB)
	}
}

// TestSnapshotsSeeProtocolChange guards the harness itself: snapshots that
// must be byte-equal across reruns must differ across a real behavioural
// change, or a comparison that always matched would pass the tests above
// vacuously. Every instrument is labeled with its protocol, so the check
// compares totals by name, over the instruments both runs record.
func TestSnapshotsSeeProtocolChange(t *testing.T) {
	_, dctcp := instrumentedIncast(t, ProtoDCTCP, 24)
	_, plus := instrumentedIncast(t, ProtoDCTCPPlus, 24)
	a := telemetry.Snapshot{Instruments: dctcp.Metrics}
	b := telemetry.Snapshot{Instruments: plus.Metrics}
	for _, is := range a.Instruments {
		if b.Total(is.Name) != 0 && a.Total(is.Name) != b.Total(is.Name) {
			return
		}
	}
	t.Error("the DCTCP and DCTCP+ runs' shared instruments have equal totals")
}
