package main

// Machine-speed calibration.
//
// The benchmark runs on shared two-core VMs where the whole machine slows
// by 20–40 % for minutes at a time (every workload at once; nothing the
// guest can see — no steal time, no load). A bound on raw seconds would
// have to be wider than that. So each child times a fixed piece of work
// that depends on nothing in this repository immediately before and after
// the timed call, and wall_s and setup_s are reported scaled to the speed
// the machine showed around them. The raw seconds and the index stay in
// the report beside them.

const (
	// calibOps is the work in one calibration burst, ~50 ms.
	calibOps = 600_000
	// calibBursts is how many bursts one full-size reading takes the median
	// of, so a scheduling hiccup inside one burst does not move the reading.
	calibBursts = 10
	// calibRefSeconds is one burst's duration on the reference machine
	// (2-vCPU Xeon @ 2.10 GHz, go1.24) when it is quiet. It only fixes the
	// scale: with it, scaled seconds equal raw seconds on a quiet reference
	// machine. Changing it rescales every report, so it never changes.
	calibRefSeconds = 0.0478
)

// speedIndex returns how fast the machine is running right now relative to
// the quiet reference machine: 1 on it, below 1 when slower. It is the
// median of n bursts.
func speedIndex(n int) float64 {
	bursts := make([]float64, n)
	for i := range bursts {
		bursts[i] = calibrate(calibOps)
	}
	return calibRefSeconds / median(bursts)
}

// calibrate runs ops hold-model operations — remove the minimum of a
// 4096-slot binary heap, re-insert it a pseudo-random distance later: the
// same branchy, dependent-load character as the simulator's event loop,
// sharing no code with it — and returns the host seconds taken.
func calibrate(ops int) float64 {
	const depth = 4096
	var heap [depth]uint64
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= depth {
				return
			}
			m := l
			if r := l + 1; r < depth && heap[r] < heap[l] {
				m = r
			}
			if heap[i] <= heap[m] {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := range heap {
		heap[i] = next() >> 44
	}
	for i := depth/2 - 1; i >= 0; i-- {
		down(i)
	}
	start := now()
	for n := 0; n < ops; n++ {
		heap[0] += 1 + next()>>44
		down(0)
	}
	elapsed := since(start)
	if heap[0] == 0 {
		panic("perf: unreachable; keeps the heap live")
	}
	return elapsed
}
