// Package directive carries a reason-less allow directive: the allowlist
// policy requires every exception to document why it exists.
package directive

//lint:allow floateq
func helper() int { return 0 }

//lint:allow nosuchanalyzer the suite has no analyzer of this name, so this could never suppress anything
func other() int { return 1 }
