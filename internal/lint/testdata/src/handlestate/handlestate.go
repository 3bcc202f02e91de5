// Package handlestate exercises typestate's handle rules: Cancel on a
// possibly-dead handle, reads of dead handles, //state: move transition
// misuse, overwriting an armed handle, and the clear-field-first rule for
// re-arming callbacks.
package handlestate

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
