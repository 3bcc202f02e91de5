package packet

// FlowTable maps flow ids to values without hashing. It is the per-host
// demux of internal/netsim and the conformance oracle's per-flow state
// lookup, both consulted once per delivered packet.
//
// The entries live in an open-addressed array whose length is a power of
// two: an id's home slot is its low bits, uint32(id) & mask, and a
// collision probes the following slots. Flow ids need no scrambling: the
// incast numbers its flows 1…N and deals them over the workers, so the ids
// one host holds differ in their low bits and almost every lookup hits its
// home slot; the query mix's ids run up from 10 000 as flows open and
// close, so the live ids one host holds scatter like random keys. The array
// doubles before it passes seven-eighths load, as Go's own maps do, and
// Delete shifts later entries of a probe run back into the hole instead of
// leaving a tombstone, so every lookup ends at the first empty slot.
//
// The zero FlowTable is empty and ready to use. Get allocates nothing;
// Insert allocates only when the array is created or grows; Clear keeps
// the array.
type FlowTable[V any] struct {
	slots []flowSlot[V] // the open-addressed array; nil until the first Insert
	n     int           // entries stored
}

type flowSlot[V any] struct {
	id   FlowID
	used bool
	v    V
}

// minFlowSlots is the array's first length: room for the three entries of
// a worker host with a connection or two, at seven-eighths load.
const minFlowSlots = 4

// Get returns the value stored under id, and whether there is one.
func (t *FlowTable[V]) Get(id FlowID) (V, bool) {
	if i := t.find(id); i >= 0 {
		return t.slots[i].v, true
	}
	var zero V
	return zero, false
}

// find returns the array index of id's entry, or -1.
func (t *FlowTable[V]) find(id FlowID) int {
	if t.slots == nil {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := uint32(id) & mask; t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].id == id {
			return int(i)
		}
	}
	return -1
}

// Insert stores v under id and reports true, or reports false and leaves
// the table unchanged when id already has an entry.
func (t *FlowTable[V]) Insert(id FlowID, v V) bool {
	if t.find(id) >= 0 {
		return false
	}
	if 8*(t.n+1) > 7*len(t.slots) {
		t.grow()
	}
	t.place(flowSlot[V]{id: id, used: true, v: v})
	t.n++
	return true
}

// grow moves every entry into an array twice as long (minFlowSlots the
// first time).
func (t *FlowTable[V]) grow() {
	old := t.slots
	t.slots = make([]flowSlot[V], max(minFlowSlots, 2*len(old)))
	for _, s := range old {
		if s.used {
			t.place(s)
		}
	}
}

// place puts s into the first free slot of its probe run.
func (t *FlowTable[V]) place(s flowSlot[V]) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(s.id) & mask
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// Delete removes id's entry, if it has one.
func (t *FlowTable[V]) Delete(id FlowID) {
	h := t.find(id)
	if h < 0 {
		return
	}
	t.n--
	// Backward shift: walk the rest of the probe run and move back into the
	// hole each entry whose home slot does not lie after the hole, i.e. one
	// at least as far from its home as the hole is from it. Without the
	// shift, a lookup for such an entry would stop at the hole and miss it.
	mask := uint32(len(t.slots) - 1)
	hole := uint32(h)
	for i := (hole + 1) & mask; t.slots[i].used; i = (i + 1) & mask {
		if home := uint32(t.slots[i].id) & mask; (i-home)&mask >= (i-hole)&mask {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = flowSlot[V]{}
}

// Clear removes every entry and keeps the array, if there is one, for the
// next run.
func (t *FlowTable[V]) Clear() {
	clear(t.slots)
	t.n = 0
}
