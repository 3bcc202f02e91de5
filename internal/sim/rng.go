package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (splitmix64 core). Every stochastic decision in the simulator — the
// randomized slow_time backoff in DCTCP+, workload inter-arrival times,
// flow-size sampling — draws from an RNG seeded from the experiment config,
// so runs are exactly reproducible.
//
// splitmix64 passes BigCrush, has a full 2^64 period per stream, and is
// allocation-free. We deliberately avoid math/rand so that the generator's
// sequence is pinned by this repository rather than by the Go release.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams; seed 0 is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Reseed restarts the generator, in place, on the stream NewRNG(seed) would
// produce: how a recycled owner (a reopened tcp.Conn) gets a fresh stream
// without a fresh object.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: RNG.Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform Duration in [0, d). A non-positive d yields 0.
// This is the primitive behind the paper's random(backoff_time_unit):
// "we randomize the sending time by making time unit backoff_time_unit
// evenly distributed for slow_time" (Algorithm 1).
func (r *RNG) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(r.Int63n(int64(d)))
}

// Exp returns an exponentially distributed duration with the given mean,
// used for Poisson inter-arrival processes in the benchmark workload.
func (r *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return Duration(-float64(mean) * math.Log(u))
}

// Pareto returns a bounded Pareto sample in [lo, hi] with shape alpha,
// the standard heavy-tailed model for data-center flow sizes.
func (r *RNG) Pareto(lo, hi float64, alpha float64) float64 {
	if lo <= 0 || hi <= lo {
		return lo
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(float64(u*ha)-float64(u*la)-ha)/(ha*la), -1/alpha)
}
