package sim

import "fmt"

// event is one scheduled callback. The scheduler hands out no handle to it:
// At/After and the Arg variants schedule a callback that cannot be
// cancelled, and the one cancellable event is a Timer's, which the Timer
// owns and checks (see Timer). Once an event fires or is cancelled the
// scheduler recycles the object for a future one.
//
// An event is one 64-byte object — idx and far share a word — so the
// freelist recycles a single allocator size class (TestEventSize).
type event struct {
	when Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	fn   func()
	afn  func(any) // arg-carrying callback (exactly one of fn/afn is set)
	arg  any
	idx  int32  // -1 once removed; a far event's slot in its heap, 0 for a queued near one
	far  bool   // which queue: the far heap, else the near run
	next *event // freelist link while recycled
}

// before reports whether e fires before o: the scheduler's total order.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// Scheduler is the discrete-event core: a virtual clock plus a priority
// queue of pending events. It is single-threaded by design — the entire
// simulation advances by popping the earliest event and running its
// callback, which may schedule further events.
//
// The event queue is split by scheduling delay, and each side is ordered by
// (when, seq). An event due less than horizon after the instant it is
// scheduled — a link's packet delivery, a port's wake-up: three events in
// four or more — goes into near; everything else — the RTO timer every flow
// keeps parked 200 ms out, pacing gates, an arrival stream's next instant —
// into far. With thousands of flows far is thousands deep and near holds the
// dozen packets in flight, so the per-packet schedule/fire cycle never meets
// a parked timer.
//
// The two sides are built for their traffic. far is a binary heap: timers
// are re-armed and cancelled at random. near is a sorted run (nearRun):
// packet hops are scheduled close to the order they fire and almost never
// cancelled, so a push appends or lands a few slots before the tail, and a
// pop advances the run's head — no sifting either way.
//
// The split is a speed heuristic and cannot affect order: each side is
// exact, Step fires the smaller of the two minima under the same (when, seq)
// comparison, and the smaller of two exact minima is the exact minimum. An
// event on the "wrong" side (a long link delay queued far, a timer's last
// microseconds spent there) costs queue work, never position.
//
// Fired or cancelled events are recycled through a freelist, so the
// steady-state schedule/fire cycle — the per-packet inner loop of every
// experiment — allocates nothing.
type Scheduler struct {
	now     Time
	near    nearRun
	far     eventHeap
	horizon Duration // nearHorizon, except in tests that force one side
	nextSeq uint64
	fired   uint64
	halted  bool
	free    *event // recycled events
}

// nearHorizon is the scheduling delay below which an event is queued in the
// near run: above every per-hop delay in the tree (serialization 0.5-12 us,
// propagation 10 us), three orders of magnitude below RTOmin. It is not a
// tuning knob: anywhere between those two groups gives the same split
// (20 us measures the same; at 1 ms the sub-millisecond pacing gates join
// the near run, out of order and often cancelled, and give the gain back).
const nearHorizon = 64 * Microsecond

// NewScheduler returns an empty scheduler positioned at the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{horizon: nearHorizon}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events currently queued.
func (s *Scheduler) Pending() int { return s.near.len() + len(s.far) }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// eventSlab is how many events alloc mints at once when the freelist is dry.
const eventSlab = 64

// alloc takes an event from the freelist, minting a slab of them only when
// the pool is dry — after warm-up the live set reaches its high-water mark
// and every schedule reuses a fired event.
func (s *Scheduler) alloc() *event {
	if s.free == nil {
		// One slab per dry freelist: a run's thousands of parked timers and
		// pacing gates cost an allocation per 64 events instead of one each.
		slab := make([]event, eventSlab)
		for i := range slab {
			slab[i].next = s.free
			s.free = &slab[i]
		}
	}
	e := s.free
	s.free = e.next
	e.next = nil
	return e
}

// release recycles a fired or cancelled event. Callback and argument are
// cleared so the freelist does not pin dead objects.
func (s *Scheduler) release(e *event) {
	e.fn = nil
	e.afn = nil
	e.arg = nil
	e.idx = -1
	e.next = s.free
	s.free = e
}

// schedule inserts a prepared event into the queue its delay selects.
func (s *Scheduler) schedule(e *event, t Time) *event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e.when = t
	e.seq = s.nextSeq
	s.nextSeq++
	e.far = t.Sub(s.now) >= s.horizon
	if e.far {
		s.far.push(e)
	} else {
		s.near.push(e)
	}
	return e
}

// At schedules fn to run at time t. Scheduling in the past panics: it
// always indicates a model bug. The event cannot be cancelled; a callback
// that may need to be is a Timer.
func (s *Scheduler) At(t Time, fn func()) {
	e := s.alloc()
	e.fn = fn
	s.schedule(e, t)
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// AtArg schedules fn(arg) to run at time t. Binding the argument in the
// event instead of a closure lets per-packet callers (the link's packet
// delivery, the port's wake-up for its next packet) schedule with
// a callback constructed once at wiring time: passing a pointer through
// arg does not allocate, while capturing it in a fresh closure would.
//
// arg passes to fn with its ownership: a pooled packet scheduled for
// delivery is fn's to free once the event is queued, and Reset's discard
// function's if the event is still pending at a reset.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) { s.atArg(t, fn, arg) }

// AfterArg schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterArg(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.atArg(s.now.Add(d), fn, arg)
}

// atArg is AtArg returning the queued event, for the Timer that owns it.
func (s *Scheduler) atArg(t Time, fn func(any), arg any) *event {
	e := s.alloc()
	e.afn = fn
	e.arg = arg
	return s.schedule(e, t)
}

// AtSorted schedules fn to run at each instant of times, which must be
// non-decreasing and start no earlier than now. The run fires exactly as
// len(times) successive At calls would — same order among ties, same Fired
// count — but keeps only one event queued: the sequence numbers are all
// reserved here, and the stream's event re-arms itself at the next instant
// under the next one. A workload's pre-drawn arrivals thus cost one queue
// entry instead of one each. There is no handle: a stream cannot be
// cancelled, and it dies with Reset. Pending counts it once while instants
// remain. times is read as the stream advances and must not be changed.
func (s *Scheduler) AtSorted(times []Time, fn func()) {
	if len(times) == 0 {
		return
	}
	if times[0] < s.now {
		panic(fmt.Sprintf("sim: stream starting at %v before now %v", times[0], s.now))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			panic(fmt.Sprintf("sim: stream instant %d at %v precedes instant %d at %v", i, times[i], i-1, times[i-1]))
		}
	}
	st := &stream{s: s, times: times, seq: s.nextSeq, fn: fn}
	s.nextSeq += uint64(len(times))
	st.arm()
}

// stream is one AtSorted call in flight: the instants still to fire and the
// sequence number reserved for the first of them.
type stream struct {
	s     *Scheduler
	times []Time
	seq   uint64
	fn    func()
}

// arm queues the stream's next instant under its reserved sequence number.
// schedule numbers an event from nextSeq, so the stream lends it that
// number for the one call; At and AtArg pay nothing for streams.
func (st *stream) arm() {
	s := st.s
	e := s.alloc()
	e.afn = fireStream
	e.arg = st
	next := s.nextSeq
	s.nextSeq = st.seq
	s.schedule(e, st.times[0])
	s.nextSeq = next
}

// fireStream is every stream's event callback; arg is the *stream. The
// successor is queued before fn runs, so Pending sees the stream while it
// has instants left; fn's own events take later sequence numbers, so they
// cannot overtake it.
func fireStream(arg any) {
	st := arg.(*stream)
	st.times, st.seq = st.times[1:], st.seq+1
	if len(st.times) > 0 {
		st.arm()
	}
	st.fn()
}

// cancel removes a pending event so it never fires. Cancelling nil or an
// event that has already fired or been cancelled, before anything reuses
// it, is a no-op; Timer, the one caller, checks that its event is still
// its own first.
func (s *Scheduler) cancel(e *event) {
	if e == nil || e.idx < 0 {
		return
	}
	if e.far {
		s.far.remove(int(e.idx))
	} else {
		s.near.remove(e)
	}
	s.release(e)
}

// earliest returns the next event to fire, nil when nothing is pending.
func (s *Scheduler) earliest() *event {
	n := s.near.min()
	if len(s.far) == 0 {
		return n
	}
	if f := s.far[0]; n == nil || f.before(n) {
		return f
	}
	return n
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	e := s.earliest()
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// fire dequeues e, which earliest chose, and runs it.
func (s *Scheduler) fire(e *event) {
	if e.far {
		s.far.remove(0)
	} else {
		s.near.pop()
	}
	// Monotone-clock invariant, asserted inline because internal/check
	// imports this package: At() rejects past scheduling at insertion, and
	// this guards the pop side against queue corruption.
	if e.when < s.now {
		panic(fmt.Sprintf("sim: clock would move backwards: %v -> %v", s.now, e.when))
	}
	s.now = e.when
	s.fired++
	// Recycle before running: the callback commonly schedules a successor,
	// which then reuses this very event object.
	fn, afn, arg := e.fn, e.afn, e.arg
	s.release(e)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// Run executes events until the queue drains or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// RunUntil executes events with timestamps at or before deadline. The clock
// finishes at min(deadline, time of last event) — it does not jump forward
// past the final event.
func (s *Scheduler) RunUntil(deadline Time) {
	s.halted = false
	for !s.halted {
		e := s.earliest()
		if e == nil || e.when > deadline {
			return
		}
		s.fire(e)
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Halt stops Run/RunUntil after the currently executing event returns.
// Pending events remain queued.
func (s *Scheduler) Halt() { s.halted = true }

// Reset returns the scheduler to its as-built state — clock, sequence and
// fired counter at zero, nothing pending, not halted — so the next run on it
// is indistinguishable from one on a NewScheduler. Pending events are
// released to the freelist, whose events and the queues' backing arrays are
// kept. A pending event may be the only reference to what its argument
// owns (a packet riding a link at the halt), so discard, unless nil,
// receives the argument of every released event that carries one, after
// the event is released; it must not schedule. Every Timer and AtSorted
// stream of the old run dies with it: owners stop their timers before the
// reset (a rig closes every connection first), and a timer left armed
// across it panics at its next Reset or Stop. Reset is called between runs,
// never from inside a callback.
func (s *Scheduler) Reset(discard func(arg any)) {
	for _, e := range s.near.q[s.near.head:] {
		s.drop(e, discard)
	}
	s.near.q, s.near.head = s.near.q[:0], 0
	for i, e := range s.far {
		s.far[i] = nil
		s.drop(e, discard)
	}
	s.far = s.far[:0]
	s.now, s.nextSeq, s.fired, s.halted = 0, 0, 0, false
}

// drop releases a pending event at Reset and hands its argument to discard.
func (s *Scheduler) drop(e *event, discard func(any)) {
	arg := e.arg
	s.release(e)
	if discard != nil && arg != nil {
		discard(arg)
	}
}

// nearRun is the near side of the queue: the pending events in q[head:],
// ascending in (when, seq). Slots before head held events already popped.
// A near event's idx is only the queued flag (0, and -1 once removed): its
// slot is found again by binary search on its unique (when, seq).
//
// Packet hops arrive close to firing order — every delivery is due at its
// start plus serialization plus the link delay, every wake-up at its start
// plus serialization — so pop is head++ and a push is an append, or, when
// it overtakes events already queued (a wake-up or an ACK's short hop
// landing before data deliveries in flight: about three pushes in five), a
// binary search of the run and a copy of the few slots after its place
// (three to five on average at the depths packet traffic reaches, 9-15). A
// cancel copies the slots after the event down one; packet traffic
// cancels almost nothing near.
type nearRun struct {
	q    []*event
	head int
}

// len returns the number of queued events.
func (r *nearRun) len() int { return len(r.q) - r.head }

// min returns the earliest queued event, nil when the run is empty.
func (r *nearRun) min() *event {
	if r.head == len(r.q) {
		return nil
	}
	return r.q[r.head]
}

// push inserts e in (when, seq) order. A full slice whose popped prefix is
// at least half its length slides the run to the front instead of growing,
// so the backing array stays at about twice the high-water depth and each
// slide is paid for by as many pops as it moves.
func (r *nearRun) push(e *event) {
	e.idx = 0
	n := len(r.q)
	if n == cap(r.q) && r.head > 0 && 2*r.head >= n {
		n = copy(r.q, r.q[r.head:])
		r.q, r.head = r.q[:n], 0
	}
	r.q = append(r.q, e)
	if n > r.head && !r.q[n-1].before(e) {
		i := r.search(e)
		copy(r.q[i+1:], r.q[i:n])
		r.q[i] = e
	}
}

// search returns the first slot in q[head:] whose event does not fire
// before e: e's own slot if e is queued, else where it belongs. e itself
// may sit at the tail, as push leaves it.
func (r *nearRun) search(e *event) int {
	lo, hi := r.head, len(r.q)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.q[m].before(e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pop removes the earliest event. It leaves the event's idx alone: release
// marks it removed. An emptied run restarts at the front of its slice.
func (r *nearRun) pop() {
	// head <= len(q): pop runs only on a non-empty run (Step and Cancel
	// reach it through a queued event), and the drain and the slide return
	// head to 0.
	r.head++
	if r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
}

// remove takes queued event e out of the run.
func (r *nearRun) remove(e *event) {
	i := r.search(e)
	if i == r.head {
		r.pop()
		return
	}
	copy(r.q[i:], r.q[i+1:])
	r.q = r.q[:len(r.q)-1]
}

// eventHeap is a binary min-heap of events ordered by (when, seq); each
// event records its slot in idx.
type eventHeap []*event

// push adds e.
func (h *eventHeap) push(e *event) {
	i := len(*h)
	e.idx = int32(i)
	// Amortized: the backing array reaches the event backlog's high-water
	// mark and is then reused.
	*h = append(*h, e)
	h.up(i)
}

// remove takes the event in slot i out of the heap. It leaves the event's
// idx alone: release marks it removed.
func (h *eventHeap) remove(i int) {
	q := *h
	last := len(q) - 1
	if i != last {
		q[i] = q[last]
		q[i].idx = int32(i)
	}
	q[last] = nil
	*h = q[:last]
	if i != last {
		if !h.up(i) {
			h.down(i)
		}
	}
}

// less orders the heap by (when, seq).
func (h eventHeap) less(i, j int) bool { return h[i].before(h[j]) }

// swap exchanges two heap slots, maintaining the events' indices.
func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

// up sifts the element at i toward the root; it reports whether it moved.
func (h eventHeap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts the element at i toward the leaves.
func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// Timer is a restartable one-shot timer bound to a scheduler, in the style
// of kernel timers: Reset re-arms it (replacing any pending expiry), Stop
// disarms it. It is the only way to cancel a scheduled callback. The
// callback is fixed at construction; expiry goes through the one static
// expire callback with the Timer itself as the event's argument, so neither
// binding nor re-arming (the per-ACK RTO reset) allocates.
//
// A Timer owns its event, and checks that it still does, in every build:
// every method but Init panics with staleTimer if the event the timer holds
// is no longer queued or no longer carries this timer. Holding one is
// always a bug — expire failing to clear the field before a callback
// re-arms, or a timer left armed across Scheduler.Reset, which released
// its event to be re-issued to any later schedule — and acting on it would
// silently cancel someone else's event, or read a timer as armed that
// never fires.
type Timer struct {
	s  *Scheduler
	fn func()
	ev *event
}

// staleTimer is the panic of a Timer that holds an event it does not own.
const staleTimer = "sim: stale timer: it holds an event it no longer owns (left armed across Scheduler.Reset, or re-armed from its expiry before the event was cleared)"

// NewTimer creates a disarmed timer that will invoke fn on expiry.
func NewTimer(s *Scheduler, fn func()) *Timer {
	t := &Timer{}
	t.Init(s, fn)
	return t
}

// Init binds a zero Timer, in place, to its scheduler and expiry callback,
// for owners that embed the Timer by value instead of paying NewTimer's
// separate allocation (a tcp.Conn holds both of its timers this way). It is
// called once: the binding then lasts for the life of the value.
func (t *Timer) Init(s *Scheduler, fn func()) {
	if t.s != nil {
		panic("sim: Timer.Init on a timer that is already bound")
	}
	t.s, t.fn = s, fn
}

// expire is every timer's event callback; arg is the *Timer. The event is
// released once it fires, so it is cleared before fn can re-arm.
func expire(arg any) {
	arg.(*Timer).ev = nil
	arg.(*Timer).fn()
}

// pending returns the timer's queued event, nil when it is disarmed, and
// panics if the event it holds is not its own (see Timer).
func (t *Timer) pending() *event {
	e := t.ev
	if e != nil && (e.idx < 0 || e.arg != any(t)) {
		panic(staleTimer)
	}
	return e
}

// Reset (re-)arms the timer to fire d from now.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.s.now.Add(d))
}

// ResetAt (re-)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.s.cancel(t.pending())
	t.ev = t.s.atArg(at, expire, t)
}

// Stop disarms the timer if it is pending.
func (t *Timer) Stop() {
	t.s.cancel(t.pending())
	t.ev = nil
}

// Armed reports whether the timer currently has a pending expiry.
func (t *Timer) Armed() bool { return t.pending() != nil }

// Deadline returns the pending expiry time, or Infinity if disarmed.
func (t *Timer) Deadline() Time {
	if e := t.pending(); e != nil {
		return e.when
	}
	return Infinity
}
