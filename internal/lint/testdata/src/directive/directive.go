// Package directive exercises the directive grammar: a reason-less allow
// directive (the allowlist policy requires every exception to document why
// it exists), one naming an analyzer outside the suite, and a marker
// written behind a space, which binds nothing.
package directive

//lint:allow floateq
func helper() int { return 0 }

//lint:allow nosuchanalyzer the suite has no analyzer of this name, so this could never suppress anything
func other() int { return 1 }

// Spaced carries "// lint:allow" with a space after the slashes. That is
// prose, not a directive: it excuses nothing, so the comparison below is
// reported.
//
// lint:allow floateq a spaced marker binds nothing
func Spaced(a, b float64) bool { return a == b }
