// Package directive exercises the directive grammar: a reason-less allow
// directive (the allowlist policy requires every exception to document why
// it exists), one naming an analyzer outside the suite, and a marker
// written behind a space, which binds nothing.
package directive

//lint:allow floateq
func helper() int { return 0 }

//lint:allow nosuchanalyzer the suite has no analyzer of this name, so this could never suppress anything
func other() int { return 1 }

// Spaced carries "// hot:path" with a space after the slashes. That is
// prose, not a directive: it declares no root, so the make below is not
// reported.
//
// hot:path
func Spaced(n int) []int { return make([]int, n) }
