package sim

import "testing"

// Model-based test of the scheduler: one op stream drives the real
// Scheduler and a reference queue — a slice kept sorted by when, FIFO among
// equals (i.e. by (when, seq)), with linear insert and remove — and every
// observable (fire sequence, Now, Pending, Fired, Timer.Armed/Deadline, live
// events' due time and queued flag) is compared after every op. An AtSorted stream is
// that many successive entries in the reference, and one pending event in
// the scheduler while any of them is left. The op stream is a byte string,
// so the seeded test and FuzzSchedulerModel share one body.

// modelDelays is the delay menu, dense on both sides of the near/far split.
// 200 ms is a multiple of 1 ms and the horizon±1 entries differ by the 1 ns
// entry, so exact ties between events scheduled at different instants — and
// therefore queued on different sides — are common.
var modelDelays = [...]Duration{
	0, Nanosecond, nearHorizon - 1, nearHorizon, nearHorizon + 1,
	Millisecond, 200 * Millisecond,
}

// modelHorizons are the splits every op stream is replayed under: the
// constant, everything in the far heap, everything in the near run.
var modelHorizons = [...]Duration{nearHorizon, 0, Duration(Infinity)}

// modelMaxLive caps the plain events outstanding, which bounds the per-op
// cost of check(); at the cap a schedule op turns into a cancel.
const modelMaxLive = 192

const modelTimers = 6

// refEvent is one entry of the reference queue.
type refEvent struct {
	when Time
	id   int
}

// modelEvent pairs a live scheduler event with its reference entry. The
// scheduler hands out no handle: the model takes the event from the
// freelist's head (nextEvent) and cancels it through the unexported cancel.
type modelEvent struct {
	ev  *event
	ref *refEvent
	arg bool // scheduled through AtArg/AfterArg, with the modelEvent as arg
}

// modelTimer pairs a Timer with its reference entry (nil while disarmed).
type modelTimer struct {
	tm  *Timer
	ref *refEvent
}

// modelStream is one AtSorted call's reference entries still to fire, in
// order.
type modelStream struct {
	refs []*refEvent
}

// modelMaxStream is the longest stream an op starts.
const modelMaxStream = 8

type schedModel struct {
	t   *testing.T
	s   *Scheduler
	ops []byte
	pos int

	// Reference state.
	now    Time
	fired  uint64
	queue  []*refEvent // sorted by when, FIFO among equals
	halted bool        // Halt was called during the current run

	// running is set while Run/RunUntil/RunFor executes; deadline bounds
	// what that call may fire.
	running  bool
	deadline Time

	live   []*modelEvent
	timers []*modelTimer
	nextID int
	argFn  func(any) // once-bound AtArg/AfterArg callback
	steps  int       // op counter, for failure messages

	// streams counts the streams with instants left, streamRefs those
	// instants: the scheduler queues streams events where the reference
	// holds streamRefs entries.
	streams, streamRefs int
}

func newSchedModel(t *testing.T, s *Scheduler, ops []byte) *schedModel {
	m := &schedModel{t: t, s: s, ops: ops}
	m.argFn = func(a any) { m.onFire(a.(*modelEvent)) }
	for i := 0; i < modelTimers; i++ {
		mt := &modelTimer{}
		mt.tm = NewTimer(s, func() { m.onTimer(mt) })
		m.timers = append(m.timers, mt)
	}
	return m
}

// next returns the next op byte; the stream reads as zeros once exhausted
// and done() turns true.
func (m *schedModel) next() byte {
	if m.pos >= len(m.ops) {
		return 0
	}
	b := m.ops[m.pos]
	m.pos++
	return b
}

func (m *schedModel) done() bool { return m.pos >= len(m.ops) }

func (m *schedModel) delay() Duration { return modelDelays[int(m.next())%len(modelDelays)] }

func (m *schedModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("op %d (byte %d): "+format, append([]any{m.steps, m.pos}, args...)...)
}

// refInsert adds an entry after every entry due at or before when: the
// reference's (when, seq) order.
func (m *schedModel) refInsert(when Time) *refEvent {
	r := &refEvent{when: when, id: m.nextID}
	m.nextID++
	i := len(m.queue)
	for i > 0 && m.queue[i-1].when > when {
		i--
	}
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = r
	return r
}

func (m *schedModel) refRemove(r *refEvent) {
	for i, q := range m.queue {
		if q == r {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
	m.fatalf("reference lost event %d", r.id)
}

// refPop is the reference's half of a fire: called first thing in every
// callback, it advances the reference clock to its earliest entry and
// checks that this is the event the scheduler chose and was allowed to run.
func (m *schedModel) refPop(got *refEvent) {
	if len(m.queue) == 0 {
		m.fatalf("event %d fired with the reference queue empty", got.id)
	}
	want := m.queue[0]
	m.queue = m.queue[1:]
	m.now = want.when
	m.fired++
	if got != want {
		m.fatalf("fired event %d (due %v), reference says %d (due %v)", got.id, got.when, want.id, want.when)
	}
	if m.running && m.halted {
		m.fatalf("event %d fired after Halt", got.id)
	}
	if m.running && want.when > m.deadline {
		m.fatalf("event %d due %v fired past the deadline %v", got.id, want.when, m.deadline)
	}
}

// check compares every observable of the scheduler with the reference.
func (m *schedModel) check() {
	m.t.Helper()
	s := m.s
	pending := len(m.queue) - m.streamRefs + m.streams
	if s.Now() != m.now || s.Pending() != pending || s.Fired() != m.fired {
		m.fatalf("now/pending/fired = %d/%d/%d, reference %d/%d/%d",
			s.Now(), s.Pending(), s.Fired(), m.now, pending, m.fired)
	}
	for i, mt := range m.timers {
		wantDeadline := Infinity
		if mt.ref != nil {
			wantDeadline = mt.ref.when
		}
		if mt.tm.Armed() != (mt.ref != nil) || mt.tm.Deadline() != wantDeadline {
			m.fatalf("timer %d armed=%v deadline=%v, reference armed=%v deadline=%v",
				i, mt.tm.Armed(), mt.tm.Deadline(), mt.ref != nil, wantDeadline)
		}
	}
	for _, le := range m.live {
		if le.ev.idx < 0 || le.ev.when != le.ref.when {
			m.fatalf("live event %d idx=%d when=%v, reference due %v",
				le.ref.id, le.ev.idx, le.ev.when, le.ref.when)
		}
	}
}

// dropLive forgets a handle that fired or was cancelled.
func (m *schedModel) dropLive(le *modelEvent) {
	for i, l := range m.live {
		if l == le {
			m.live[i] = m.live[len(m.live)-1]
			m.live = m.live[:len(m.live)-1]
			return
		}
	}
	m.fatalf("event %d not among the live handles", le.ref.id)
}

func (m *schedModel) pickLive() *modelEvent {
	if len(m.live) == 0 {
		return nil
	}
	return m.live[int(m.next())%len(m.live)]
}

func (m *schedModel) pickTimer() *modelTimer {
	return m.timers[int(m.next())%len(m.timers)]
}

// schedule mints one plain event through the API variant kind selects.
func (m *schedModel) schedule(kind byte) {
	if len(m.live) >= modelMaxLive {
		m.cancel(false)
		return
	}
	le := &modelEvent{ev: nextEvent(m.s), arg: kind%5 == 2 || kind%5 == 3}
	fn := func() { m.onFire(le) }
	d := m.delay()
	switch kind % 5 {
	case 0:
		m.s.At(m.now.Add(d), fn)
	case 1:
		m.s.After(d, fn)
	case 2:
		m.s.AtArg(m.now.Add(d), m.argFn, le)
	case 3:
		m.s.AfterArg(d, m.argFn, le)
	case 4:
		// The exact instant of an event already queued (scheduled earlier,
		// possibly much earlier): a same-instant tie by construction.
		d = 0
		if peer := m.pickLive(); peer != nil {
			d = peer.ref.when.Sub(m.now)
		}
		m.s.At(m.now.Add(d), fn)
	}
	le.ref = m.refInsert(m.now.Add(d))
	m.live = append(m.live, le)
}

// stream starts an AtSorted stream of 1 to modelMaxStream instants, each
// the previous one plus a delay off the menu (0 and 1 ns make ties inside
// the run common). The first is now plus a delay, or, when kind's low bit is
// set, the instant of an event already queued.
func (m *schedModel) stream(kind byte) {
	n := 1 + int(m.next())%modelMaxStream
	at := m.now.Add(m.delay())
	if peer := m.pickLive(); kind&1 != 0 && peer != nil {
		at = peer.ref.when
	}
	ms := &modelStream{}
	times := make([]Time, n)
	for i := range times {
		if i > 0 {
			at = at.Add(m.delay())
		}
		times[i] = at
		ms.refs = append(ms.refs, m.refInsert(at))
	}
	m.s.AtSorted(times, func() { m.onStream(ms) })
	m.streams++
	m.streamRefs += n
}

// cancel cancels a live event; with twice, a second time straight away
// (released, nothing scheduled since: a no-op) and nil too.
func (m *schedModel) cancel(twice bool) {
	le := m.pickLive()
	if le == nil {
		m.s.cancel(nil)
		return
	}
	m.s.cancel(le.ev)
	if le.ev.idx >= 0 {
		m.fatalf("event %d still queued after cancel", le.ref.id)
	}
	if twice {
		m.s.cancel(le.ev)
		m.s.cancel(nil)
	}
	m.refRemove(le.ref)
	m.dropLive(le)
}

func (m *schedModel) timerOp(kind byte) {
	mt := m.pickTimer()
	if mt.ref != nil {
		m.refRemove(mt.ref)
		mt.ref = nil
	}
	switch kind % 3 {
	case 0:
		d := m.delay()
		mt.tm.Reset(d)
		mt.ref = m.refInsert(m.now.Add(d))
	case 1:
		at := m.now.Add(m.delay())
		mt.tm.ResetAt(at)
		mt.ref = m.refInsert(at)
	case 2:
		mt.tm.Stop()
	}
}

// onFire is every plain event's callback.
func (m *schedModel) onFire(le *modelEvent) {
	m.refPop(le.ref)
	m.dropLive(le)
	b := m.next()
	if b&1 != 0 {
		// Cancel of a fired event before anything could reuse it.
		m.s.cancel(le.ev)
	}
	m.check()
	m.inCallback(b >> 1)
}

// onTimer is every timer's callback.
func (m *schedModel) onTimer(mt *modelTimer) {
	m.refPop(mt.ref)
	mt.ref = nil
	m.check()
	m.inCallback(m.next())
}

// onStream is every stream's callback: the stream's own next reference
// entry must be the one due.
func (m *schedModel) onStream(ms *modelStream) {
	r := ms.refs[0]
	ms.refs = ms.refs[1:]
	m.streamRefs--
	if len(ms.refs) == 0 {
		m.streams--
	}
	m.refPop(r)
	m.check()
	m.inCallback(m.next())
}

// inCallback runs up to two ops from inside a firing event.
func (m *schedModel) inCallback(b byte) {
	for n := int(b % 3); n > 0 && !m.done(); n-- {
		switch op := m.next(); op % 8 {
		case 0, 1:
			m.schedule(op / 8)
		case 2:
			m.stream(op / 8)
		case 3:
			m.cancel(op&8 != 0)
		case 4, 5, 6:
			m.timerOp(op / 8)
		case 7:
			m.s.Halt()
			m.halted = true
		}
		m.check()
	}
}

// run wraps a Run/RunUntil/RunFor call: everything due at or before
// deadline must fire unless a callback halts the run, and nothing else.
func (m *schedModel) run(deadline Time, call func()) {
	m.running, m.halted, m.deadline = true, false, deadline
	call()
	m.running = false
	if !m.halted && len(m.queue) > 0 && m.queue[0].when <= deadline {
		m.fatalf("run to %v returned with event %d (due %v) still queued",
			deadline, m.queue[0].id, m.queue[0].when)
	}
}

// step runs one op from outside any callback.
func (m *schedModel) step() {
	m.steps++
	switch op := m.next(); op % 16 {
	case 0, 1, 2, 3, 4, 5:
		m.schedule(op / 16)
	case 6:
		m.stream(op / 16)
	case 7:
		m.cancel(op&16 != 0)
	case 8, 9, 10:
		m.timerOp(op / 16)
	case 11, 12, 13:
		want := len(m.queue) > 0
		if got := m.s.Step(); got != want {
			m.fatalf("Step() = %v with %d events in the reference", got, len(m.queue))
		}
	case 14:
		d := m.delay()
		deadline := m.now.Add(d)
		if op&16 != 0 {
			m.run(deadline, func() { m.s.RunFor(d) })
		} else {
			m.run(deadline, func() { m.s.RunUntil(deadline) })
		}
	case 15:
		if op>>4 == 15 {
			m.reset()
			break
		}
		// Halt outside a run is forgotten by the next Run/RunUntil and
		// ignored by Step.
		m.s.Halt()
	}
	m.check()
}

// reset replays a rig's close-before-reset order: every timer is disarmed,
// then Scheduler.Reset releases what is still pending, streams included,
// handing discard the argument of each arg-carrying one — exactly the live
// AtArg/AfterArg events' modelEvents, beside the streams'. The reference
// restarts as an empty sorted slice at clock 0 (and seq 0: the next event
// is ordered as if it were the first ever scheduled). Each event that was
// pending is now released, and cancelling it before anything is scheduled
// again is a no-op; fired and cancelled events already on the freelist are
// reused by what follows. A stream's unfired instants are gone: the drain
// would catch any that fired.
func (m *schedModel) reset() {
	for _, mt := range m.timers {
		mt.tm.Stop()
		mt.ref = nil
	}
	discarded := map[*modelEvent]bool{}
	m.s.Reset(func(arg any) {
		if le, ok := arg.(*modelEvent); ok {
			discarded[le] = true
		}
	})
	want := 0
	for _, le := range m.live {
		if le.ev.idx >= 0 {
			m.fatalf("event %d still queued after Reset", le.ref.id)
		}
		if le.arg {
			want++
		}
		if le.arg != discarded[le] {
			m.fatalf("event %d (arg-carrying %v) discarded %v at Reset", le.ref.id, le.arg, discarded[le])
		}
		m.s.cancel(le.ev)
	}
	if len(discarded) != want {
		m.fatalf("Reset discarded %d modelEvents, want the %d live arg-carrying ones", len(discarded), want)
	}
	m.live = m.live[:0]
	m.queue = m.queue[:0]
	m.now, m.fired = 0, 0
	m.streams, m.streamRefs = 0, 0
	if m.s.Pending() != 0 || m.s.Step() {
		m.fatalf("Reset left %d events pending", m.s.Pending())
	}
}

// runSchedulerModel replays ops against a scheduler split at horizon and
// the reference, then drains what is left with Run (re-entered after every
// Halt).
func runSchedulerModel(t *testing.T, horizon Duration, ops []byte) {
	s := NewScheduler()
	s.horizon = horizon
	m := newSchedModel(t, s, ops)
	for !m.done() {
		m.step()
	}
	for len(m.queue) > 0 {
		m.steps++
		before := m.fired
		m.run(Infinity, m.s.Run)
		m.check()
		if m.fired == before {
			m.fatalf("Run made no progress with %d events queued", len(m.queue))
		}
	}
	if m.s.Step() {
		m.fatalf("Step fired with the reference drained")
	}
}

// modelOps expands a seed into an op stream.
func modelOps(seed uint64, n int) []byte {
	r := NewRNG(seed)
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(r.Uint64() >> 32)
	}
	return ops
}

func TestSchedulerModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		ops := modelOps(seed, 30000)
		for _, horizon := range modelHorizons {
			runSchedulerModel(t, horizon, ops)
		}
	}
}

func FuzzSchedulerModel(f *testing.F) {
	f.Add([]byte{})
	f.Add(modelOps(1, 64))
	f.Add(modelOps(2, 512))
	// At(horizon+1) -> far; twice At(+1 ns) and Step, so now = 2 ns;
	// At(horizon-1) -> near, the same instant as the first event; two Steps
	// must fire them in scheduling order.
	f.Add([]byte{0, 4, 0, 1, 11, 0, 0, 1, 11, 0, 0, 2, 11, 0, 11, 0})
	// At(+1 ms) and timer 0 armed 1 ns out, then Reset with both pending;
	// At(+1 ns) on the reset clock and two Steps.
	f.Add([]byte{0, 5, 8, 0, 1, 0xff, 0, 1, 11, 11})
	// At(+1 ms), then a stream of eight instants at that same instant (a tie
	// with the queued event and seven inside the run); the drain must fire
	// the plain event first.
	f.Add([]byte{0, 5, 0x16, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// A stream at +200 ms, +1 ns, +1 ms; one Step fires its first instant,
	// then Reset with two pending and At(+1 ns): only that event may fire.
	f.Add([]byte{6, 2, 6, 1, 5, 11, 0, 0xff, 0, 1})
	// Out-of-order near pushes, as an ACK's short hop lands before a queued
	// data packet's long one: At(+horizon-1) twice (a tie), At(+1 ns) into
	// the middle of the run, At(+0) at its head, then four Steps.
	f.Add([]byte{0, 2, 0, 2, 0, 1, 0, 0, 11, 11, 11, 11})
	// The same run with cancels: the 1 ns event from the middle, then two
	// more picked from what is live, with Steps between.
	f.Add([]byte{0, 2, 0, 1, 0, 2, 0, 0, 7, 1, 11, 7, 1, 7, 0, 11, 11})
	// At(+1 ns) = E; a stream of two instants at E's instant; E's callback
	// schedules F at that instant too. The stream's second instant re-arms
	// under a seq reserved before F's and must fire before F, although F is
	// already at the tail of the near run.
	f.Add([]byte{0, 1, 0x16, 1, 0, 0, 0, 11, 2, 0, 0, 11, 0, 11, 0, 11, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, horizon := range modelHorizons {
			runSchedulerModel(t, horizon, ops)
		}
	})
}
