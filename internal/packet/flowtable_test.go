package packet

import "testing"

// flowTableID draws an id from a palette built to collide: a small base k,
// k plus one of the array lengths 8…64 (same home slot as k in an array of
// that length), a negative id, or one at or above 900 000 (the mix's long
// flows) with its own length-8 twin.
func flowTableID(a, b byte) FlowID {
	k := FlowID(a & 15)
	switch b % 5 {
	case 1:
		return k + FlowID(minFlowSlots)<<(b/5%4)
	case 2:
		return -k - 1
	case 3:
		return 900_000 + k
	case 4:
		return 900_000 + k + minFlowSlots
	}
	return k
}

// FuzzFlowTable runs random Insert/Delete/Get sequences against a Go map.
// Each op is three bytes: the operation, then the two bytes flowTableID
// turns into an id. After every op, every id the sequence has touched must
// read back as the map has it, which catches an entry lost by growth or
// stranded behind a hole a delete left unshifted.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{})
	// Colliding inserts (k, k+8, k+16) build one probe run; deleting its
	// head needs the shift.
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 6, 0, 2, 0, 0, 3, 0, 1, 1, 0, 2, 1, 1, 2, 1, 6})
	// Growth past 8 and 16 slots, then deletes and re-inserts.
	seq := []byte{}
	for k := byte(0); k < 16; k++ {
		seq = append(seq, 0, k, k%5)
	}
	for k := byte(0); k < 16; k += 2 {
		seq = append(seq, 1, k, k%5, 2, k+1, (k+1)%5)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab FlowTable[int]
		model := map[FlowID]int{}
		var touched []FlowID
		for n := 0; n+3 <= len(ops); n += 3 {
			id := flowTableID(ops[n+1], ops[n+2])
			touched = append(touched, id)
			switch ops[n] % 3 {
			case 0:
				_, had := model[id]
				if ok := tab.Insert(id, n); ok == had {
					t.Fatalf("op %d: Insert(%d) = %v with the id already present: %v", n/3, id, ok, had)
				}
				if !had {
					model[id] = n
				}
			case 1:
				tab.Delete(id)
				delete(model, id)
			}
			for _, id := range touched {
				want, wok := model[id]
				if got, ok := tab.Get(id); ok != wok || got != want {
					t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", n/3, id, got, ok, want, wok)
				}
			}
			if tab.n != len(model) {
				t.Fatalf("op %d: %d entries, want %d", n/3, tab.n, len(model))
			}
			if 8*tab.n > 7*len(tab.slots) {
				t.Fatalf("op %d: %d entries in %d slots, past seven-eighths load", n/3, tab.n, len(tab.slots))
			}
		}
		// Clear empties the table and keeps its array.
		slots := len(tab.slots)
		tab.Clear()
		for _, id := range touched {
			if _, ok := tab.Get(id); ok {
				t.Fatalf("Get(%d) after Clear found an entry", id)
			}
		}
		if len(tab.slots) != slots || tab.n != 0 {
			t.Fatalf("Clear left %d entries and %d slots, want 0 and %d", tab.n, len(tab.slots), slots)
		}
	})
}

// TestFlowTableGetAllocFree: a lookup, hit or miss, in the first array or
// a grown one, allocates nothing.
func TestFlowTableGetAllocFree(t *testing.T) {
	var tab FlowTable[*Packet]
	p := &Packet{}
	tab.Insert(1, p)
	for _, stage := range []string{"first array", "grown array"} {
		if got := testing.AllocsPerRun(100, func() {
			if v, ok := tab.Get(1); !ok || v != p {
				t.Fatal("Get(1) lost its entry")
			}
			if _, ok := tab.Get(9); ok {
				t.Fatal("Get(9) found an entry")
			}
		}); got != 0 {
			t.Errorf("%s: Get allocates %.1f times, want 0", stage, got)
		}
		for id := FlowID(2); id <= minFlowSlots; id++ {
			tab.Insert(id, p)
		}
	}
}
