// Package a is the one package of a throwaway module whose only finding
// is a rotted allow directive: linting the module ("./...") or just this
// package must report it (see lint.Run).
package a

// Answer is benign; the directive beside it has outlived whatever finding
// once justified it.
//
//lint:allow floateq the comparison this excused was rewritten long ago
func Answer() int { return 42 }
