// Package clean exercises the idioms and documented exceptions simlint
// accepts without a diagnostic.
package clean

// Fresh reports whether the accumulator was ever touched; comparison
// against exact zero is exempt.
func Fresh(acc float64) bool { return acc == 0 }

// Exact documents why exact equality is sound here.
func Exact(a, b float64) bool {
	//lint:allow floateq both operands are copies of the same stored sample
	return a == b
}

// Slot is a reusable record in the style of the simulator's pooled packets.
type Slot struct {
	seq  int
	used bool
}

// Ring is a fixed-capacity structure whose hot operations recycle storage.
type Ring struct {
	slots []Slot
	head  int
}

// Take hands out the next slot without allocating: field writes on pooled
// memory, integer arithmetic, and a static call — the whole hot budget.
//
//hot:path
func (r *Ring) Take(seq int) *Slot {
	s := &r.slots[r.head]
	r.head = (r.head + 1) % len(r.slots)
	reset(s)
	s.seq = seq
	return s
}

// reset is hot by reachability and stays allocation-free.
func reset(s *Slot) {
	s.used = false
}
