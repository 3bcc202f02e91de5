// Package badinv carries //inv: contracts the collector must reject: the
// parser is the only gate on the annotation's syntax, and a contract that
// does not bind is reported where it is declared instead of being silently
// trusted.
package badinv

// Limits is the sibling struct symbolic bounds resolve through.
type Limits struct {
	Max  int
	Name string
}

// Gauge declares one well-formed contract and six broken ones.
type Gauge struct {
	lim Limits

	// ok binds: a numeric floor and a symbolic ceiling.
	//inv: 0 <= ok && ok <= lim.Max
	ok int

	// The comparison lacks its right operand.
	//inv: v <
	v int

	// Two names share one declaration.
	//inv: a >= 0
	a, b int

	// Not a numeric field.
	//inv: label >= 0
	label string

	// The bound names no sibling field.
	//inv: w <= cap.Max
	w int

	// The bound resolves, but not to a number.
	//inv: x <= lim.Name
	x int

	// The subject must be the field itself.
	//inv: ok >= 1
	y int
}
