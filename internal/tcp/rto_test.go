package tcp

import (
	"testing"
	"testing/quick"

	"dctcpplus/internal/sim"
)

func TestRTTEstimatorFirstSample(t *testing.T) {
	e := rttEstimator{rtoMin: 1 * sim.Millisecond}
	if e.HasSample() {
		t.Error("fresh estimator claims a sample")
	}
	if e.RTO() != 1*sim.Millisecond {
		t.Errorf("initial RTO = %v, want RTOMin", e.RTO())
	}
	e.Sample(100 * sim.Microsecond)
	if !e.HasSample() {
		t.Error("sample not recorded")
	}
	if e.SRTT() != 100*sim.Microsecond {
		t.Errorf("SRTT = %v", e.SRTT())
	}
	// RFC 6298: after first sample RTO = srtt + 4*rttvar = 100 + 4*50 = 300us,
	// clamped up to RTOMin = 1ms.
	if e.RTO() != 1*sim.Millisecond {
		t.Errorf("RTO = %v, want clamped to 1ms", e.RTO())
	}
}

func TestRTTEstimatorConvergesToSteadyRTT(t *testing.T) {
	e := rttEstimator{rtoMin: 1}
	for i := 0; i < 100; i++ {
		e.Sample(200 * sim.Microsecond)
	}
	if got := e.SRTT(); got < 190*sim.Microsecond || got > 210*sim.Microsecond {
		t.Errorf("SRTT = %v, want ~200us", got)
	}
	// Variance decays toward zero, so RTO approaches SRTT (plus clamp floor).
	if got := e.RTO(); got > 300*sim.Microsecond {
		t.Errorf("RTO = %v, want near SRTT after steady samples", got)
	}
}

func TestRTTEstimatorTracksIncrease(t *testing.T) {
	e := rttEstimator{rtoMin: 1}
	e.Sample(100 * sim.Microsecond)
	for i := 0; i < 50; i++ {
		e.Sample(1 * sim.Millisecond)
	}
	if got := e.SRTT(); got < 900*sim.Microsecond {
		t.Errorf("SRTT = %v did not track increase", got)
	}
}

func TestRTOClampMax(t *testing.T) {
	e := rttEstimator{rtoMin: 1 * sim.Millisecond}
	e.Sample(2 * RTOMax)
	if got := e.RTO(); got != RTOMax {
		t.Errorf("RTO = %v, want clamped to RTOMax", got)
	}
}

func TestSampleNonPositiveClamped(t *testing.T) {
	e := rttEstimator{rtoMin: 1}
	e.Sample(0)
	e.Sample(-5)
	if e.SRTT() <= 0 {
		t.Errorf("SRTT = %v after degenerate samples", e.SRTT())
	}
}

// Property: RTO is always within [RTOMin, RTOMax] no matter the samples.
func TestRTOBoundsProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		e := rttEstimator{rtoMin: 10 * sim.Millisecond}
		for _, s := range samples {
			e.Sample(sim.Duration(s))
			rto := e.RTO()
			if rto < e.rtoMin || rto > RTOMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SRTT always lies within the envelope of observed samples.
func TestSRTTEnvelopeProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		e := rttEstimator{rtoMin: 1}
		lo, hi := sim.Duration(1<<62), sim.Duration(0)
		for _, s := range samples {
			d := sim.Duration(s%1_000_000) + 1
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			e.Sample(d)
		}
		return e.SRTT() >= lo && e.SRTT() <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
