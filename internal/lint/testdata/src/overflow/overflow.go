// Package overflow exercises the overflow analyzer: unbounded narrow
// accumulation on a hot path, and a bounded accumulation excused by a
// //lint:allow naming its guard.
package overflow

// Tally accumulates per-packet counters.
type Tally struct {
	// hits is narrow and unbounded: flagged.
	hits int32
	// credits stays in [0, 4]: the guard on its only increment caps it,
	// and the directive beside that increment says so.
	credits int32
}

// bump is the per-packet path.
//
//hot:path
func (t *Tally) bump() {
	t.hits++
	if t.credits < 4 {
		//lint:allow overflow credits <= 4: the guard around this increment caps it
		t.credits++
	}
}
