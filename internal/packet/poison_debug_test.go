//go:build checkdebug

package packet

import (
	"strings"
	"testing"

	"dctcpplus/internal/check"
)

// TestPoisonArmAndClear pins the debug freelist poison: a recycled packet
// carries the sentinel sequence number and the freeing flow while parked,
// and Get restores the documented zeroed state before reuse.
func TestPoisonArmAndClear(t *testing.T) {
	if !check.Debug {
		t.Fatal("checkdebug build must set check.Debug")
	}
	p := &Pool{}
	pkt := p.Get()
	pkt.Flow = 42
	pkt.Seq = 1000
	p.Put(pkt)
	if pkt.Seq != poisonSeq {
		t.Errorf("parked packet Seq = %d, want poison sentinel %d", pkt.Seq, poisonSeq)
	}
	if pkt.Flow != 42 {
		t.Errorf("parked packet Flow = %d, want the freeing flow 42 preserved for diagnostics", pkt.Flow)
	}
	got := p.Get()
	if got != pkt {
		t.Fatal("pool did not recycle the freed packet")
	}
	if got.Seq != 0 || got.Flow != 0 {
		t.Errorf("recycled packet not un-poisoned: Seq=%d Flow=%d, want zeroed", got.Seq, got.Flow)
	}
}

// TestPoisonDoubleFreePanics pins the runtime backstop that mirrors the
// static typestate double-free rule: a second Put of the same packet must
// panic naming the offending flow.
func TestPoisonDoubleFreePanics(t *testing.T) {
	p := &Pool{}
	pkt := p.Get()
	pkt.Flow = 7
	p.Put(pkt)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Put did not panic under checkdebug")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "double free") || !strings.Contains(msg, "flow 7") {
			t.Errorf("double-free panic %q does not name the offense and the flow", msg)
		}
	}()
	p.Put(pkt)
}
