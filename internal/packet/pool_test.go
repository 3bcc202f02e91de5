package packet

import (
	"strings"
	"testing"
)

// TestPoisonArmAndClear pins the freelist poison: a recycled packet
// carries the sentinel sequence number and the freeing flow while parked,
// and Get hands it back exactly as zeroed as a fresh one — the poison
// leaves no trace on reuse.
func TestPoisonArmAndClear(t *testing.T) {
	p := &Pool{}
	pkt := p.Get()
	pkt.Flow = 42
	pkt.Seq = 1000
	pkt.Payload = MSS
	pkt.Flags = FlagACK
	p.Put(pkt)
	if pkt.Seq != poisonSeq {
		t.Errorf("parked packet Seq = %d, want poison sentinel %d", pkt.Seq, poisonSeq)
	}
	if pkt.Flow != 42 {
		t.Errorf("parked packet Flow = %d, want the freeing flow 42 preserved for diagnostics", pkt.Flow)
	}
	if got := p.FreeLen(); got != 1 {
		t.Errorf("FreeLen = %d after one Put, want 1", got)
	}
	got := p.Get()
	if got != pkt {
		t.Fatal("pool did not recycle the freed packet")
	}
	if *got != (Packet{}) {
		t.Errorf("recycled packet not zeroed: %+v", *got)
	}
	if p.FreeLen() != 0 || p.Minted() != 1 || p.Recycled() != 1 {
		t.Errorf("FreeLen/Minted/Recycled = %d/%d/%d, want 0/1/1", p.FreeLen(), p.Minted(), p.Recycled())
	}
}

// TestPoisonDoubleFreePanics pins the run-time double-free check: a
// second Put of the same packet must panic naming the offending flow.
func TestPoisonDoubleFreePanics(t *testing.T) {
	p := &Pool{}
	pkt := p.Get()
	pkt.Flow = 7
	p.Put(pkt)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Put did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %T, want an error", r)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "check: invariant violated: ") || !strings.Contains(msg, "packet double free: flow 7") {
			t.Errorf("double-free panic %q does not name the offense and the flow", msg)
		}
	}()
	p.Put(pkt)
}
