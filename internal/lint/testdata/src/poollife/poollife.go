// Package poollife exercises typestate's pooled rules: use-after-free,
// double-free, leak-on-path, discarded and overwritten mint results,
// unsanctioned escapes, and the clean shapes (release on every path,
// sanctioned sink escape, ownership transfer).
package poollife

// Buf is a pooled object with an exactly-once release obligation.
//
// state: pooled owned -> freed
type Buf struct {
	n    int
	next *Buf
}

// BufPool mints and frees Bufs.
type BufPool struct{ free *Buf }

// Get mints a caller-owned Buf.
//
// state: mint
func (p *BufPool) Get() *Buf {
	if p.free != nil {
		b := p.free
		p.free = b.next
		return b
	}
	return &Buf{}
}

// Put frees a Buf.
//
// state: kill b
func (p *BufPool) Put(b *Buf) {
	b.next = p.free
	p.free = b
}

// Store is a long-lived holder of parked Bufs.
type Store struct{ slot *Buf }

// Park is the sanctioned escape point: the slot takes ownership.
//
// state: xfer b
// state: sink
func (s *Store) Park(b *Buf) { s.slot = b }

// Borrow reads a Buf without taking ownership.
func (s *Store) Borrow(b *Buf) int { return b.n }

// UseAfterFree reads a Buf on a path where it was already freed.
func UseAfterFree(p *BufPool) int {
	b := p.Get()
	p.Put(b)
	return b.n
}

// DoubleFree releases the same Buf twice.
func DoubleFree(p *BufPool) {
	b := p.Get()
	p.Put(b)
	p.Put(b)
}

// LeakOnBranch releases on only one of two paths.
func LeakOnBranch(p *BufPool, cond bool) {
	b := p.Get()
	if cond {
		p.Put(b)
	}
}

// Discard drops a minted Buf on the floor.
func Discard(p *BufPool) {
	p.Get()
}

// EscapeUnsanctioned parks into a field outside a //state: sink function.
func (s *Store) EscapeUnsanctioned(p *BufPool) {
	s.slot = p.Get()
}

// LoopOverwrite re-mints every iteration; from the second pass of the
// loop fixpoint the assignment overwrites a still-owned Buf.
func LoopOverwrite(p *BufPool, n int) {
	var b *Buf
	for i := 0; i < n; i++ {
		b = p.Get()
	}
	p.Put(b)
}

// MergeFreedUse joins a freed path into a live one and then reads: the
// use is a may-finding from the branch join.
func MergeFreedUse(p *BufPool, cond bool) {
	b := p.Get()
	if cond {
		p.Put(b)
	}
	n := b.n
	_ = n
	p.Put(b)
}

// TempToBorrow passes an owned temporary to a borrowing callee: nothing
// can ever free it.
func TempToBorrow(s *Store, p *BufPool) {
	s.Borrow(p.Get())
}

// BothFree is clean: every path releases exactly once (free on one arm,
// sanctioned ownership transfer on the other).
func BothFree(p *BufPool, s *Store, cond bool) {
	b := p.Get()
	if cond {
		p.Put(b)
	} else {
		s.Park(b)
	}
}

// The functions below pin the control-flow walker (flow.go): break inside
// a switch leaves the switch, not the enclosing loop; fallthrough carries
// the clause's state into the next clause; a labeled break leaves the loop
// that carries the label.

// SwitchBreakDoubleFree frees in a clause that breaks out of the switch,
// then frees again after it: the break targets the switch, so the second
// Put is reached with b already freed.
func SwitchBreakDoubleFree(p *BufPool, k int) {
	for {
		b := p.Get()
		switch k {
		case 1:
			p.Put(b)
			break
		default:
		}
		p.Put(b)
	}
}

// SwitchBreakClean is clean: the bare break only leaves the switch, so
// every iteration still reaches the release.
func SwitchBreakClean(p *BufPool, k int) {
	for {
		b := p.Get()
		switch k {
		case 1:
			break
		default:
		}
		p.Put(b)
	}
}

// FallthroughDoubleFree frees in one clause and falls through into a
// clause that frees again.
func FallthroughDoubleFree(p *BufPool, k int) {
	b := p.Get()
	switch k {
	case 1:
		p.Put(b)
		fallthrough
	case 2:
		p.Put(b)
	default:
		p.Put(b)
	}
}

// LabeledBreakLeak leaves both loops from the inner one, skipping the
// release that follows the inner loop.
func LabeledBreakLeak(p *BufPool, c bool) {
outer:
	for {
		b := p.Get()
		for {
			if c {
				break outer
			}
		}
		p.Put(b)
	}
}
