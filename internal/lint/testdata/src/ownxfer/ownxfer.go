// Package ownxfer exercises typestate's ownership rules: consuming a borrowed
// parameter, returning a pooled object without a //state: mint contract,
// malformed //state: directives, and interface-contract disagreement.
package ownxfer

// Buf is a pooled object.
//
// state: pooled owned -> freed
type Buf struct{ n int }

// Pool mints and frees Bufs.
type Pool struct{}

// Get mints a caller-owned Buf.
//
// state: mint
func (p *Pool) Get() *Buf { return &Buf{} }

// Put frees a Buf.
//
// state: kill b
func (p *Pool) Put(b *Buf) { _ = b }

// FreeBorrowed consumes a parameter it only borrows: the signature needs
// a //state: xfer (or kill) so callers know ownership moves.
func FreeBorrowed(p *Pool, b *Buf) {
	p.Put(b)
}

// ReturnOwned returns a caller-owned pooled Buf without declaring a mint
// contract.
func ReturnOwned(p *Pool) *Buf {
	b := p.Get()
	return b
}

// BadVerb carries an unknown //state: verb.
//
// state: summon b
func BadVerb(b *Buf) { _ = b }

// BadParam kills a parameter that does not exist.
//
// state: kill zz
func BadParam(b *Buf) { _ = b }

// BadMove names a state the protocol does not declare.
//
// state: move b nowhere -> freed
func BadMove(b *Buf) { _ = b }

// Taker declares an ownership-transferring method.
type Taker interface {
	// Take consumes the buffer.
	//
	//state: xfer b
	Take(b *Buf)
}

// BadTaker implements Taker but its Take declares no disposition, so
// callers through the interface and callers of the concrete type would
// see different ownership contracts.
type BadTaker struct{}

// Take ignores the interface's xfer contract.
func (BadTaker) Take(b *Buf) { _ = b }

// GoodTaker matches the interface contract.
type GoodTaker struct{ slot *Buf }

// Take stores the buffer it now owns.
//
// state: xfer b
// state: sink
func (g *GoodTaker) Take(b *Buf) { g.slot = b }
