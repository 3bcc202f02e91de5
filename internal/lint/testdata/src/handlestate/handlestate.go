// Package handlestate exercises typestate's handle rules: Cancel on a
// possibly-dead handle, reads of dead handles, //state: move transition
// misuse, overwriting an armed handle, the clear-field-first rule for
// re-arming callbacks, killing a borrowed handle and malformed //state:
// directives; the control-flow walker's hard shapes; and the clean uses of
// the real scheduler handle and timer.
package handlestate

import "dctcpplus/internal/sim"

// H is an Event-shaped handle: armed at mint, dead after fire/cancel,
// recycled afterwards.
//
// state: handle armed -> dead
type H struct{ id int }

// Sched arms and cancels H handles.
type Sched struct{ free *H }

// Arm mints an armed handle for fn.
//
// state: mint
func (s *Sched) Arm(fn func()) *H {
	_ = fn
	return &H{}
}

// Cancel kills a handle.
//
// state: kill h
func (s *Sched) Cancel(h *H) { _ = h }

// CancelDead cancels a handle that already died.
func CancelDead(s *Sched) {
	h := s.Arm(func() {})
	s.Cancel(h)
	s.Cancel(h)
}

// UseDead reads a handle after it was cancelled.
func UseDead(s *Sched) int {
	h := s.Arm(func() {})
	s.Cancel(h)
	return h.id
}

// T is a Timer-shaped handle: disarmed at mint, re-armable.
//
// state: handle disarmed -> armed
type T struct{ on bool }

// NewT mints a disarmed timer.
//
// state: mint
func NewT() *T { return &T{} }

// Start arms: legal only from disarmed.
//
// state: move t disarmed -> armed
func (t *T) Start() {}

// Halt disarms: legal from either state.
//
// state: move t disarmed,armed -> disarmed
func (t *T) Halt() {}

// DoubleStart arms twice without an intervening Halt.
func DoubleStart() {
	t := NewT()
	t.Start()
	t.Start()
}

// HaltFresh is clean: Halt accepts both source states.
func HaltFresh() {
	t := NewT()
	t.Halt()
	t.Start()
}

// OverwriteArmed loses an armed timer by overwriting its variable.
func OverwriteArmed() {
	t := NewT()
	t.Start()
	t = NewT()
	t.Halt()
}

// Owner re-arms a handle field from its callback.
type Owner struct {
	s  *Sched
	ev *H
}

func (o *Owner) tick() {}

// BadRearm arms the field with a callback that does not clear it first.
func (o *Owner) BadRearm() {
	o.ev = o.s.Arm(func() {
		o.tick()
	})
}

// GoodRearm is clean: the callback clears the field as its first
// statement, per the handle contract.
func (o *Owner) GoodRearm() {
	o.ev = o.s.Arm(func() {
		o.ev = nil
		o.tick()
	})
}

// CancelBorrowed kills a handle it only borrows: the signature needs a
// //state: kill so callers know the handle dies.
func CancelBorrowed(s *Sched, h *H) {
	s.Cancel(h)
}

// Buf declares a protocol kind the grammar does not have.
//
// state: linear owned -> freed
type Buf struct{}

// BadVerb carries an unknown //state: verb.
//
// state: summon h
func BadVerb(h *H) { _ = h }

// BadParam kills a parameter that does not exist.
//
// state: kill zz
func BadParam(h *H) { _ = h }

// BadMove names a state the protocol does not declare.
//
// state: move t nowhere -> armed
func BadMove(t *T) { _ = t }

// MergeDeadUse cancels on one branch only, then reads the handle: the use
// is a may-finding from the branch join.
func MergeDeadUse(s *Sched, cond bool) int {
	h := s.Arm(func() {})
	if cond {
		s.Cancel(h)
	}
	return h.id // use after join
}

// CancelEachPath is clean: every path cancels exactly once and nothing
// reads the handle afterwards.
func CancelEachPath(s *Sched, cond bool) {
	h := s.Arm(func() {})
	if cond {
		s.Cancel(h)
	} else {
		s.Cancel(h) // clean cancel
	}
}

// LoopRestart mints and arms a fresh timer every iteration: from the
// second pass of the loop fixpoint the assignment overwrites a possibly
// armed timer.
func LoopRestart(n int) {
	var t *T
	for i := 0; i < n; i++ {
		t = NewT() // second-pass overwrite
		t.Start()
	}
	t.Halt()
}

// The functions below pin the control-flow walker (flow.go): break inside
// a switch leaves the switch, not the enclosing loop; fallthrough carries
// the clause's state into the next clause; a labeled break leaves the loop
// that carries the label.

// SwitchBreakDoubleCancel cancels in a clause that breaks out of the
// switch, then cancels again after it: the break targets the switch, so
// the second Cancel is reached with h already dead.
func SwitchBreakDoubleCancel(s *Sched, k int) {
	for {
		h := s.Arm(func() {})
		switch k {
		case 1:
			s.Cancel(h)
			break
		default:
		}
		s.Cancel(h)
	}
}

// SwitchBreakClean is clean: the bare break only leaves the switch, so
// every iteration cancels once.
func SwitchBreakClean(s *Sched, k int) {
	for {
		h := s.Arm(func() {})
		switch k {
		case 1:
			break
		default:
		}
		s.Cancel(h)
	}
}

// FallthroughDoubleCancel cancels in one clause and falls through into a
// clause that cancels again.
func FallthroughDoubleCancel(s *Sched, k int) {
	h := s.Arm(func() {})
	switch k {
	case 1:
		s.Cancel(h)
		fallthrough
	case 2:
		s.Cancel(h)
	default:
		s.Cancel(h)
	}
}

// LabeledBreakDeadUse cancels and leaves both loops from the inner one, so
// the read after them sees a dead handle. Were the break to leave only the
// inner loop, the re-arm below it would run first and the outer loop
// would never exit.
func LabeledBreakDeadUse(s *Sched, c bool) int {
	h := s.Arm(func() {})
outer:
	for {
		for {
			if c {
				s.Cancel(h)
				break outer
			}
		}
		h = s.Arm(func() {})
	}
	return h.id
}

// RealHandles uses the scheduler's handle and timer exactly as their
// contracts document: cancel once, reset/stop in declared states.
func RealHandles(s *sim.Scheduler) {
	e := s.After(3, func() {})
	s.Cancel(e)
	t := sim.NewTimer(s, func() {})
	t.Reset(5)
	t.Stop()
}
