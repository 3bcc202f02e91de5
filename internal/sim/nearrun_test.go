package sim

import (
	"slices"
	"testing"
)

// nearRunHarness drives a scheduler whose events all land in the near run
// and keeps a reference list of the events it must hold, in firing order.
type nearRunHarness struct {
	t    *testing.T
	s    *Scheduler
	want []*event // reference: pending events in (when, seq) order
}

func newNearRunHarness(t *testing.T) *nearRunHarness {
	s := NewScheduler()
	s.horizon = Duration(Infinity)
	return &nearRunHarness{t: t, s: s}
}

// check asserts the run's invariants after an op: q[head:] is strictly
// ascending under before and holds exactly the reference's events, and
// Pending counts them.
func (h *nearRunHarness) check(op string) {
	h.t.Helper()
	r := &h.s.near
	if r.head < 0 || r.head > len(r.q) {
		h.t.Fatalf("%s: head %d outside [0, %d]", op, r.head, len(r.q))
	}
	live := r.q[r.head:]
	for i := 1; i < len(live); i++ {
		if !live[i-1].before(live[i]) {
			h.t.Fatalf("%s: run not ascending at %d: (%d ns, seq %d) then (%d ns, seq %d)",
				op, i, live[i-1].when, live[i-1].seq, live[i].when, live[i].seq)
		}
	}
	if !slices.Equal(live, h.want) {
		h.t.Fatalf("%s: run holds %d events, reference %d, or in another order", op, len(live), len(h.want))
	}
	if got := h.s.Pending(); got != len(h.want) {
		h.t.Fatalf("%s: Pending() = %d, want %d", op, got, len(h.want))
	}
}

// at schedules a no-op at t and files it in the reference after every
// event due at or before t.
func (h *nearRunHarness) at(t Time, op string) *event {
	h.t.Helper()
	e := nextEvent(h.s)
	h.s.At(t, func() {})
	i := len(h.want)
	for i > 0 && h.want[i-1].when > t {
		i--
	}
	h.want = slices.Insert(h.want, i, e)
	h.check(op)
	return e
}

func (h *nearRunHarness) cancel(e *event, op string) {
	h.t.Helper()
	h.s.cancel(e)
	h.want = slices.DeleteFunc(h.want, func(w *event) bool { return w == e })
	h.check(op)
}

func (h *nearRunHarness) step(op string) {
	h.t.Helper()
	want := h.want[0]
	h.want = h.want[1:]
	if !h.s.Step() || h.s.Now() != want.when {
		h.t.Fatalf("%s: Step fired at %v, want the event due %v", op, h.s.Now(), want.when)
	}
	h.check(op)
}

// TestNearRunInvariants walks the sorted near run through every path of
// push, pop and remove — head, middle and tail inserts, same-instant ties,
// cancels at head, middle and tail, the slide to the front of a full slice
// and the growth of one that is mostly live — and Reset, checking the run
// against a reference after every op.
func TestNearRunInvariants(t *testing.T) {
	h := newNearRunHarness(t)
	h.at(20, "first push")
	h.at(30, "tail append")
	h.at(10, "head insert")
	h.at(25, "middle insert")
	h.at(20, "tie after the queued 20")
	h.at(40, "tail append")
	h.at(25, "tie inserted mid-run, after the queued 25")
	h.at(10, "tie at the head, after the queued 10")

	// Run: 10 10 20 20 25 25 30 40.
	h.cancel(h.want[0], "cancel at the head")
	h.cancel(h.want[3], "cancel in the middle")
	h.cancel(h.want[len(h.want)-1], "cancel at the tail")
	h.cancel(h.want[len(h.want)-1], "cancel at the tail")
	for len(h.want) > 0 {
		h.step("drain")
	}
	if h.s.near.head != 0 || len(h.s.near.q) != 0 {
		t.Fatalf("drained run kept head %d, len %d; want it restarted at the front", h.s.near.head, len(h.s.near.q))
	}

	// Slide: fill the slice to capacity, pop half of it, push one more.
	for len(h.s.near.q) < 8 || len(h.s.near.q) < cap(h.s.near.q) {
		h.at(h.s.Now()+Time(100+len(h.want)), "fill")
	}
	c := cap(h.s.near.q)
	for h.s.near.head < c/2 {
		h.step("pop to half")
	}
	h.at(h.s.Now()+1, "push into a full slice, out of order: slides")
	if h.s.near.head != 0 || cap(h.s.near.q) != c {
		t.Fatalf("slide left head %d, cap %d; want 0 and the capacity %d kept", h.s.near.head, cap(h.s.near.q), c)
	}

	// Growth: a full slice with fewer than half its slots popped grows.
	for len(h.s.near.q) < cap(h.s.near.q) {
		h.at(h.s.Now()+Time(1000+len(h.want)), "refill")
	}
	h.step("pop one")
	h.at(h.s.Now()+5000, "push into a full, mostly live slice: grows")
	if cap(h.s.near.q) <= c || h.s.near.head != 1 {
		t.Fatalf("growth left cap %d, head %d; want more than %d and head 1", cap(h.s.near.q), h.s.near.head, c)
	}
	h.cancel(h.want[1], "cancel in the middle after growth")

	h.s.Reset(nil)
	h.want = nil
	h.check("Reset")
	if h.s.near.head != 0 || len(h.s.near.q) != 0 {
		t.Fatalf("Reset left head %d, len %d", h.s.near.head, len(h.s.near.q))
	}
	h.at(3, "push after Reset")
	h.at(1, "head insert after Reset")
	h.step("step after Reset")
}
