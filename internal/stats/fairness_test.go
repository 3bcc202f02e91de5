package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJainIndexEqualShares(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almost(got, 1, 1e-12) {
		t.Errorf("equal shares J = %v", got)
	}
}

func TestJainIndexMonopoly(t *testing.T) {
	if got := JainIndex([]float64{10, 0, 0, 0}); !almost(got, 0.25, 1e-12) {
		t.Errorf("monopoly J = %v, want 1/n", got)
	}
}

func TestJainIndexKnownValue(t *testing.T) {
	// x = {1, 3}: (4)^2 / (2 * 10) = 0.8
	if got := JainIndex([]float64{1, 3}); !almost(got, 0.8, 1e-12) {
		t.Errorf("J = %v, want 0.8", got)
	}
}

func TestJainIndexEdge(t *testing.T) {
	if JainIndex(nil) != 0 {
		t.Error("empty J != 0")
	}
	if JainIndex([]float64{0, 0}) != 1 {
		t.Error("all-zero J != 1")
	}
	// Negative allocations clamp to zero rather than poisoning the index.
	if got := JainIndex([]float64{-5, 10}); !almost(got, 0.5, 1e-12) {
		t.Errorf("negative-clamped J = %v", got)
	}
}

// Property: J is always in [1/n, 1] for non-degenerate inputs.
func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			x[i] = float64(v)
			sum += x[i]
		}
		j := JainIndex(x)
		if sum == 0 {
			return j == 1
		}
		n := float64(len(x))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: J is scale-invariant.
func TestJainIndexScaleInvariance(t *testing.T) {
	f := func(raw []uint8, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		scale := float64(scaleRaw%100) + 1
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
			b[i] = float64(v) * scale
		}
		return math.Abs(JainIndex(a)-JainIndex(b)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
