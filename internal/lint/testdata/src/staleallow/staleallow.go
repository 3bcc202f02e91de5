// Package staleallow carries a well-formed, justified //lint:allow that
// no longer suppresses anything — the shape the allowlist audit exists to
// catch.
package staleallow

// Answer is benign; the directive beside it has outlived whatever finding
// once justified it.
//
//lint:allow floateq the comparison this excused was rewritten long ago
func Answer() int { return 42 }
