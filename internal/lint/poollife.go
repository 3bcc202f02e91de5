package lint

// Poollife proves the pooled-packet lifecycle: every path from an alloc
// site (a //state: mint function such as packet.Pool.Get or
// netsim.Host.AllocPacket) must reach exactly one release — a //state:
// kill call (Pool.Put), an ownership transfer into a //state: xfer
// parameter (Host.Send, Port.Enqueue, Link.transmit), or a sanctioned
// escape inside a //state: sink function (the Port ring slots). On top of
// the shared typestate interpreter (typestate.go) it reports:
//
//   - use-after-free: reading a pooled variable on a path where it was
//     already killed or handed off,
//   - double-free: a kill/xfer of a value that is possibly already gone,
//   - leak-on-path: a function exit reachable while an owned pooled value
//     is still live, a mint result discarded or overwritten, or an owned
//     temporary passed to a parameter that only borrows it,
//   - unsanctioned escape: storing an owned pooled value into a field or
//     container outside a //state: sink function.
//
// The ownership-signature side of the same contract (borrowed parameters
// that consume, returns without a mint contract, malformed //state:
// directives) is reported by Ownxfer, and the handle protocols by
// HandleState.
func Poollife() *Analyzer {
	return &Analyzer{
		Name: "poollife",
		Doc:  "pooled-object lifecycle: use-after-free, double-free and leak-on-path for //state: pooled protocols",
		Run: func(p *Package) []Diagnostic {
			return typestateFindings(p, "poollife")
		},
	}
}
