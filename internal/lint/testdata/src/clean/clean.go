// Package clean exercises the idioms the pass accepts without a
// diagnostic.
package clean

// Fresh reports whether the accumulator was ever touched; comparison
// against exact zero is exempt.
func Fresh(acc float64) bool { return acc == 0 }
