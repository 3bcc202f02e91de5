package sim

import "testing"

func BenchmarkSchedulerChurn(b *testing.B) {
	// Steady-state event churn: each fired event schedules a successor,
	// with a 64-event backlog — the simulator's hot loop.
	s := NewScheduler()
	var fn func()
	fn = func() { s.After(10, fn) }
	for i := 0; i < 64; i++ {
		s.After(Duration(i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedulerIncastMix is the queue composition measured on a massive
// incast (DESIGN.md, "Event queue"): 2,000 RTO timers parked 200 ms out, 300
// pacing/service gates 64 us-8 ms out, and 16 packet-hop events 0.5-16.5 us
// out that make up nine fires in ten; every 12th hop disarms and re-arms one
// timer, as a flow's last ACK and next request do. Delays are seeded and
// irregular on purpose: a fixed-delay churn behind the same timers sifts
// along one perfectly predicted path and hides most of the cost.
func BenchmarkSchedulerIncastMix(b *testing.B) {
	s := NewScheduler()
	r := NewRNG(1)
	rto := func() Duration { return 200*Millisecond + r.Duration(Millisecond) }
	timers := make([]*Timer, 2000)
	for i := range timers {
		i := i
		timers[i] = NewTimer(s, func() { timers[i].Reset(rto()) })
		timers[i].Reset(rto())
	}
	var gate, hop func()
	gate = func() { s.After(64*Microsecond+r.Duration(8*Millisecond-64*Microsecond), gate) }
	hops := 0
	hop = func() {
		if hops++; hops%12 == 0 {
			tm := timers[r.Intn(len(timers))]
			tm.Stop()
			tm.Reset(rto())
		}
		s.After(500*Nanosecond+r.Duration(16*Microsecond), hop)
	}
	for i := 0; i < 300; i++ {
		gate()
	}
	for i := 0; i < 16; i++ {
		hop()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedulerHopTrain is the packet path's own pattern, the one the
// near run is built for: 16 links, each re-delivering at now +
// serialization + 10 us propagation, half with a data packet's 12 us
// serialization and half with an ACK's 0.5 us. A data link's push appends;
// an ACK link's lands before the data deliveries already queued.
func BenchmarkSchedulerHopTrain(b *testing.B) {
	s := NewScheduler()
	type link struct{ ser Duration }
	var deliver func(any)
	deliver = func(arg any) {
		l := arg.(*link)
		s.AfterArg(l.ser+10*Microsecond, deliver, l)
	}
	for i := 0; i < 16; i++ {
		l := &link{ser: 12 * Microsecond}
		if i%2 == 1 {
			l.ser = 500 * Nanosecond
		}
		s.AfterArg(Duration(i)*Microsecond, deliver, l)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSchedulerFarChurn is the path the near run does nothing for:
// every delay is at or past the horizon, so all 64 events live in the far
// heap and the split costs one comparison per operation.
func BenchmarkSchedulerFarChurn(b *testing.B) {
	s := NewScheduler()
	r := NewRNG(1)
	var fn func()
	fn = func() { s.After(nearHorizon+r.Duration(Millisecond), fn) }
	for i := 0; i < 64; i++ {
		fn()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	evs := make([]*event, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(evs) == cap(evs) {
			for _, e := range evs {
				s.cancel(e)
			}
			evs = evs[:0]
		}
		evs = append(evs, nextEvent(s))
		s.At(s.Now()+Time(i%1000)+1, func() {})
	}
}

func BenchmarkTimerReset(b *testing.B) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Duration(100 + i%10))
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGDuration(b *testing.B) {
	r := NewRNG(1)
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += r.Duration(100 * Microsecond)
	}
	_ = sink
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += r.Exp(Millisecond)
	}
	_ = sink
}

// TestSchedulerAllocBudget pins the engine's steady-state budget at zero:
// once the event freelist is primed, churn (fire + reschedule) on either
// side of the queue or between them, timer rearming — across the horizon
// too — and cancellation all recycle event objects instead of minting new
// ones, and the near run's out-of-order pushes, middle cancels and slides
// reuse its backing array.
func TestSchedulerAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		delays [2]Duration
	}{
		{"near", [2]Duration{10, 10}},
		{"far", [2]Duration{nearHorizon, 2 * nearHorizon}},
		{"mixed near/far", [2]Duration{10, nearHorizon + 10}},
	} {
		s := NewScheduler()
		n := 0
		var fn func()
		fn = func() { n++; s.After(c.delays[n%2], fn) }
		for i := 0; i < 64; i++ {
			s.After(Duration(i), fn)
		}
		for i := 0; i < 1024; i++ {
			s.Step()
		}
		if got := testing.AllocsPerRun(500, func() { s.Step() }); got != 0 {
			t.Fatalf("%s churn: Step allocates %.1f times per event, want 0", c.name, got)
		}
	}

	s := NewScheduler()
	tm := NewTimer(s, func() {})
	tm.Reset(Second)
	if got := testing.AllocsPerRun(500, func() { tm.Reset(Second) }); got != 0 {
		t.Fatalf("Timer.Reset allocates %.1f times per rearm, want 0", got)
	}
	across := [2]Duration{nearHorizon - 1, Second}
	n := 0
	rearm := func() { n++; tm.Reset(across[n%2]) }
	rearm()
	rearm()
	if got := testing.AllocsPerRun(500, rearm); got != 0 {
		t.Fatalf("Timer.Reset across the horizon allocates %.1f times per rearm, want 0", got)
	}

	noop := func() {}
	cycle := func(d Duration) func() { return func() { e := nextEvent(s); s.After(d, noop); s.cancel(e) } }
	cycle(Second)() // prime the one extra freelist slot
	if got := testing.AllocsPerRun(500, cycle(Second)); got != 0 {
		t.Fatalf("schedule+cancel allocates %.1f times per cycle, want 0", got)
	}

	// The near run's slower paths: a push that lands before the tail, a
	// cancel from the middle, and the slide to the front of a full slice.
	s = NewScheduler()
	n = 0
	var hop func()
	hop = func() { n++; s.After([2]Duration{20, 5}[n%2], hop) }
	for i := 0; i < 64; i++ {
		s.After(Duration(i), hop)
	}
	for i := 0; i < 1024; i++ {
		s.Step()
	}
	if got := testing.AllocsPerRun(500, func() { s.Step() }); got != 0 {
		t.Fatalf("out-of-order near churn: Step allocates %.1f times per event, want 0", got)
	}

	s = NewScheduler()
	s.After(10, noop)
	s.After(30, noop)
	cycle(20)()
	if got := testing.AllocsPerRun(500, cycle(20)); got != 0 {
		t.Fatalf("near insert+cancel in the middle allocates %.1f times per cycle, want 0", got)
	}

	// 64 events live in a slice of 128: every 64 pops, a push finds the
	// slice full and slides the run to the front instead of growing it.
	s = NewScheduler()
	var fifo func()
	fifo = func() { s.After(64, fifo) }
	for i := 0; i < 64; i++ {
		s.After(Duration(i), fifo)
	}
	for i := 0; i < 1024; i++ {
		s.Step()
	}
	c := cap(s.near.q)
	if got := testing.AllocsPerRun(500, func() { s.Step() }); got != 0 || cap(s.near.q) != c {
		t.Fatalf("near slide to front: Step allocates %.1f times per event and cap %d -> %d, want 0 and unchanged",
			got, c, cap(s.near.q))
	}
}
