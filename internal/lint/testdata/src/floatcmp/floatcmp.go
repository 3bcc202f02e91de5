// Package floatcmp compares floating-point values exactly.
package floatcmp

// Same reports exact equality of two measurements.
func Same(a, b float64) bool { return a == b }

// Window is a stored congestion window, in segments.
type Window struct{ Cwnd float64 }

// Deflated reports a partial-ACK deflation mismatch the way a checker
// would: it recomputes the window and compares it with the stored one
// exactly. That holds only while both sides round in the same order; the
// first reordering or contraction on either side turns a one-ulp
// difference into a false mismatch, and no test sees it.
func Deflated(prev, cur Window, acked int64) bool {
	want := prev.Cwnd - float64(acked)/1448 + 1
	return cur.Cwnd != want
}
