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
