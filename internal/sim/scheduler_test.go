package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"dctcpplus/internal/resetcheck"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*Time(Microsecond), func() { got = append(got, 3) })
	s.At(10*Time(Microsecond), func() { got = append(got, 1) })
	s.At(20*Time(Microsecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(Microsecond) {
		t.Errorf("Now = %v, want 30us", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerAfterAndClockAdvance(t *testing.T) {
	s := NewScheduler()
	var at1, at2 Time
	s.After(100, func() {
		at1 = s.Now()
		s.After(50, func() { at2 = s.Now() })
	})
	s.Run()
	if at1 != 100 || at2 != 150 {
		t.Errorf("fired at %d,%d want 100,150", at1, at2)
	}
}

// nextEvent returns the event the next At/After/AtArg/AfterArg call will
// queue — the freelist's head, after minting a slab if it is dry — for
// tests that cancel it: the scheduler hands out no handle, and they cancel
// through the unexported cancel that Timer uses.
func nextEvent(s *Scheduler) *event {
	e := s.alloc()
	s.release(e)
	return e
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := nextEvent(s)
	s.At(10, func() { fired = true })
	s.cancel(e)
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.idx >= 0 {
		t.Error("event not marked cancelled")
	}
	// Double cancel and cancel-nil must be harmless.
	s.cancel(e)
	s.cancel(nil)
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var got []int
	var evs []*event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, nextEvent(s))
		s.At(Time(i), func() { got = append(got, i) })
	}
	// Cancel all odd events.
	for i := 1; i < 20; i += 2 {
		s.cancel(evs[i])
	}
	s.Run()
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
	for _, v := range got {
		if v%2 != 0 {
			t.Errorf("odd (cancelled) event %d fired", v)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*Time(Millisecond), func() { count++ })
	}
	s.RunUntil(Time(5) * Time(Millisecond))
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d, want 5", s.Pending())
	}
	s.Run()
	if count != 10 {
		t.Errorf("count after Run = %d, want 10", count)
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 1; i <= 4; i++ {
		s.At(Time(i)*10, func() { count++ })
	}
	s.RunFor(20) // events at 10, 20
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestSchedulerHalt(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 after Halt", count)
	}
	if s.Pending() != 7 {
		t.Errorf("pending = %d, want 7", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		s.After(-5, func() {
			if s.Now() != 100 {
				t.Errorf("negative After fired at %v, want 100", s.Now())
			}
		})
	})
	s.Run()
}

func TestTimerResetStop(t *testing.T) {
	s := NewScheduler()
	fires := 0
	tm := NewTimer(s, func() { fires++ })
	if tm.Armed() {
		t.Error("new timer armed")
	}
	tm.Reset(100)
	if !tm.Armed() || tm.Deadline() != 100 {
		t.Errorf("deadline = %v, want 100", tm.Deadline())
	}
	tm.Reset(200) // replaces the first arm
	s.Run()
	if fires != 1 {
		t.Errorf("fires = %d, want 1 (Reset must replace)", fires)
	}
	if tm.Armed() {
		t.Error("timer still armed after fire")
	}

	tm.Reset(50)
	tm.Stop()
	s.Run()
	if fires != 1 {
		t.Error("stopped timer fired")
	}
	if tm.Deadline() != Infinity {
		t.Error("disarmed deadline should be Infinity")
	}
}

func TestTimerResetAt(t *testing.T) {
	s := NewScheduler()
	var firedAt Time = -1
	tm := NewTimer(s, func() { firedAt = s.Now() })
	tm.ResetAt(77)
	s.Run()
	if firedAt != 77 {
		t.Errorf("fired at %v, want 77", firedAt)
	}
}

func TestTimerRearmFromCallback(t *testing.T) {
	s := NewScheduler()
	fires := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		fires++
		if fires < 3 {
			tm.Reset(10)
		}
	})
	tm.Reset(10)
	s.Run()
	if fires != 3 {
		t.Errorf("fires = %d, want 3", fires)
	}
	if s.Now() != 30 {
		t.Errorf("now = %v, want 30", s.Now())
	}
}

// TestTimerStaleEventPanics: Timer's run-time ownership check. A timer
// holding an event that is no longer its own — released by a
// Scheduler.Reset the timer was left armed across, or since re-issued to
// another timer — panics with staleTimer at its next Stop, Reset, ResetAt,
// Armed or Deadline instead of cancelling an event it does not own or
// reading as armed; the other timer's expiry still fires.
func TestTimerStaleEventPanics(t *testing.T) {
	cases := []struct {
		name  string
		stale func(s *Scheduler, tm *Timer) (others int)
	}{
		{"left armed across Scheduler.Reset", func(s *Scheduler, tm *Timer) int {
			tm.Reset(Second)
			s.Reset(nil)
			return 0
		}},
		{"event re-issued to another timer", func(s *Scheduler, tm *Timer) int {
			tm.Reset(Second)
			s.Reset(nil)
			NewTimer(s, func() {}).Reset(Millisecond) // takes tm's released event
			return 1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewScheduler()
			tm := NewTimer(s, func() { t.Error("the stale timer fired") })
			others := c.stale(s, tm)
			for name, op := range map[string]func(){
				"Stop":     tm.Stop,
				"Reset":    func() { tm.Reset(Millisecond) },
				"ResetAt":  func() { tm.ResetAt(Time(Millisecond)) },
				"Armed":    func() { tm.Armed() },
				"Deadline": func() { tm.Deadline() },
			} {
				func() {
					defer func() {
						if r := recover(); r != staleTimer {
							t.Errorf("%s on a stale timer: recovered %v, want the staleTimer panic", name, r)
						}
					}()
					op()
				}()
			}
			if s.Pending() != others {
				t.Errorf("%d events pending after the panics, want the %d other timers' untouched", s.Pending(), others)
			}
			s.Run()
			if s.Fired() != uint64(others) {
				t.Errorf("%d events fired, want %d", s.Fired(), others)
			}
		})
	}
}

// Property: for any batch of event delays, the scheduler fires them in
// non-decreasing time order and ends with the clock at the max.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		var max Time
		for _, d := range delays {
			tt := Time(d)
			if tt > max {
				max = tt
			}
			s.At(tt, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", s.Fired())
	}
}

// TestSchedulerResetEqualsFresh: a scheduler that has run — events pending
// in both queues, some fired, one cancelled, a timer armed and then stopped
// (close-before-reset), halted — and is then Reset must equal NewScheduler
// outside its keep-list: the two queues' backing arrays and the freelist.
func TestSchedulerResetEqualsFresh(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	for i := 0; i < 100; i++ {
		s.After(Duration(i)*Microsecond, func() {})
	}
	e := nextEvent(s)
	s.After(Second, func() {})
	s.cancel(e)
	tm.Reset(200 * Millisecond)
	s.At(Time(30*Microsecond), s.Halt)
	s.Run()
	if s.near.len() == 0 || len(s.far) == 0 || !s.halted || s.nextSeq == 0 {
		t.Fatalf("first life too quiet: near=%d far=%d halted=%v seq=%d", s.near.len(), len(s.far), s.halted, s.nextSeq)
	}
	tm.Stop()
	nearCap, farCap := cap(s.near.q), cap(s.far)
	s.Reset(nil)
	resetcheck.Diff(t, s, NewScheduler(), "near", "far", "free")
	if len(s.near.q) != 0 || s.near.head != 0 || len(s.far) != 0 || cap(s.near.q) != nearCap || cap(s.far) != farCap {
		t.Errorf("queues after Reset: near %d/%d from %d, far %d/%d (len/cap), want empty with capacity %d/%d kept",
			len(s.near.q), cap(s.near.q), s.near.head, len(s.far), cap(s.far), nearCap, farCap)
	}
	// The second life: the released events serve new schedules without a
	// new slab, and fire in order on the reset clock.
	var got []int
	for i := 3; i > 0; i-- {
		i := i
		s.After(Duration(i), func() { got = append(got, i) })
	}
	if allocs := testing.AllocsPerRun(1, func() { e := nextEvent(s); s.After(1, func() {}); s.cancel(e) }); allocs != 0 {
		t.Errorf("schedule after Reset allocated %.0f times, want 0 (the freelist is kept)", allocs)
	}
	s.Run()
	if !slices.Equal(got, []int{1, 2, 3}) || s.Now() != 3 || s.Fired() != 3 {
		t.Errorf("second life fired %v, now %v, fired %d; want [1 2 3] at 3 with 3 fired", got, s.Now(), s.Fired())
	}
}

// AtSorted checks its instants when called: a descending slice or a first
// instant in the past panics there, with nothing scheduled and no sequence
// number taken.
func TestAtSortedRejectsAtTheCall(t *testing.T) {
	cases := []struct {
		name  string
		times []Time
	}{
		{"descending", []Time{200, 300, 300, 250}},
		{"past first instant", []Time{99, 150}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewScheduler()
			s.At(100, func() {})
			s.Run()
			seq := s.nextSeq
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				s.AtSorted(c.times, func() { t.Error("a rejected stream fired") })
				return ""
			}()
			if !strings.HasPrefix(msg, "sim: stream") {
				t.Errorf("AtSorted(%v) at now 100 panicked with %q, want a sim: stream error", c.times, msg)
			}
			if s.Pending() != 0 || s.nextSeq != seq {
				t.Errorf("rejected stream left %d pending, seq %d -> %d", s.Pending(), seq, s.nextSeq)
			}
			s.Run()
		})
	}
}

// A stream fires like successive At calls — ties with events queued before
// it and after it in sequence order — while one event stands for it.
func TestAtSortedFiresLikeSuccessiveAt(t *testing.T) {
	s := NewScheduler()
	var got []string
	add := func(name string) func() { return func() { got = append(got, name) } }
	s.At(20, add("a"))
	s.AtSorted([]Time{10, 20, 20, 30}, add("s"))
	s.At(20, add("b"))
	if s.Pending() != 3 {
		t.Errorf("Pending = %d, want 3 (the stream counts once)", s.Pending())
	}
	s.At(10, func() {
		got = append(got, "c")
		s.At(10, add("d")) // scheduled while the stream's 10 is due: after it
	})
	s.Run()
	if want := []string{"s", "c", "d", "a", "s", "s", "b", "s"}; !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
	if s.Fired() != 8 || s.Pending() != 0 {
		t.Errorf("Fired/Pending = %d/%d, want 8/0", s.Fired(), s.Pending())
	}
	s.AtSorted(nil, add("never"))
	if s.Pending() != 0 {
		t.Errorf("an empty stream queued %d events", s.Pending())
	}
}

// The freelist's size class: an event must stay one 64-byte object.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 64", got)
	}
}

// Two events due at the same instant fire in scheduling order even when the
// first was queued far and the second, scheduled later with a shorter
// delay, near. (There is no mirror case: of two events due at one instant
// the far one has the longer delay, so it was scheduled first.)
func TestSchedulerSameInstantFIFOAcrossHeaps(t *testing.T) {
	s := NewScheduler()
	at := Time(100 * Microsecond)
	var got []string
	s.At(at, func() { got = append(got, "A") })
	s.At(Time(90*Microsecond), func() {
		s.At(at, func() { got = append(got, "B") })
	})
	s.RunUntil(Time(90 * Microsecond))
	if len(s.far) != 1 || s.near.len() != 1 {
		t.Fatalf("far/near hold %d/%d events, want 1/1", len(s.far), s.near.len())
	}
	s.Run()
	if !slices.Equal(got, []string{"A", "B"}) {
		t.Errorf("fired %v, want [A B]", got)
	}
}

// cancel takes an event out of the queue it is in and leaves the other queue
// alone; Pending counts both.
func TestSchedulerCancelAcrossHeaps(t *testing.T) {
	s := NewScheduler()
	var fired []int
	add := func(id int, d Duration) *event {
		e := nextEvent(s)
		s.After(d, func() { fired = append(fired, id) })
		return e
	}
	near := []*event{add(0, 3), add(1, 1), add(2, 2)}
	far := []*event{add(3, 3*Millisecond), add(4, Millisecond), add(5, 2*Millisecond)}
	if s.near.len() != 3 || len(s.far) != 3 || s.Pending() != 6 {
		t.Fatalf("near/far/Pending = %d/%d/%d, want 3/3/6", s.near.len(), len(s.far), s.Pending())
	}
	farBefore := append([]*event(nil), s.far...)
	s.cancel(near[1])
	if s.near.len() != 2 || s.Pending() != 5 {
		t.Errorf("after near cancel: near/Pending = %d/%d, want 2/5", s.near.len(), s.Pending())
	}
	for i, e := range s.far {
		if e != farBefore[i] {
			t.Errorf("near cancel moved far[%d]", i)
		}
	}
	nearBefore := append([]*event(nil), s.near.q[s.near.head:]...)
	s.cancel(far[1])
	if len(s.far) != 2 || s.Pending() != 4 {
		t.Errorf("after far cancel: far/Pending = %d/%d, want 2/4", len(s.far), s.Pending())
	}
	for i, e := range s.near.q[s.near.head:] {
		if e != nearBefore[i] {
			t.Errorf("far cancel moved near[%d]", i)
		}
	}
	s.Run()
	if want := []int{2, 0, 5, 3}; !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

// RunUntil stops on the smaller of the two roots, whichever queue holds it,
// and leaves the clock at the last event fired.
func TestSchedulerRunUntilAcrossHeaps(t *testing.T) {
	s := NewScheduler()
	count := 0
	tick := func() { count++ }
	s.At(Time(70*Microsecond), tick) // far
	s.At(Time(80*Microsecond), tick) // far
	s.At(Time(10*Microsecond), func() {
		count++
		s.At(Time(73*Microsecond), tick) // near, between the two far events
	})
	s.RunUntil(Time(75 * Microsecond))
	if count != 3 || s.Pending() != 1 {
		t.Errorf("fired %d with %d pending, want 3 and 1", count, s.Pending())
	}
	if s.Now() != Time(73*Microsecond) {
		t.Errorf("Now = %v, want 73us (the last event fired, not the deadline)", s.Now())
	}
	// The far root is past the deadline while a near event is not, and the
	// other way round.
	s.At(Time(74*Microsecond), tick) // near
	s.RunUntil(Time(79 * Microsecond))
	if count != 4 || s.Now() != Time(74*Microsecond) || len(s.far) != 1 {
		t.Errorf("count/now/far = %d/%v/%d, want 4/74us/1", count, s.Now(), len(s.far))
	}
	s.At(Time(90*Microsecond), tick) // near
	s.RunUntil(Time(85 * Microsecond))
	if count != 5 || s.Now() != Time(80*Microsecond) || s.near.len() != 1 {
		t.Errorf("count/now/near = %d/%v/%d, want 5/80us/1", count, s.Now(), s.near.len())
	}
}
