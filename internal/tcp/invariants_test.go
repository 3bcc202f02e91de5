package tcp

import (
	"fmt"
	"strings"
	"testing"

	"dctcpplus/internal/packet"
)

// TestRuntimeTwinsFire shows each field's always-on check.* assertion is
// live — among them the ones that bound ltCredit, rtoBackoff and
// pendingSegs: corrupt each asserted field past its documented range and the next pass through its assertion must panic
// with the invariant prefix and the assertion's label. The uncorrupted connection is the
// control — the same drives must not panic.
func TestRuntimeTwinsFire(t *testing.T) {
	ackPath := func(c *Conn) { c.Sender.assertInvariants() }
	inOrderSegment := func(c *Conn) { c.Receiver.Deliver(&packet.Packet{Flow: 7, Payload: 100}) }
	control := newWire(t).conn(DefaultConfig(), NewReno{})
	ackPath(control)
	inOrderSegment(control)

	cases := []struct {
		label   string
		corrupt func(c *Conn)
		drive   func(c *Conn)
	}{
		{"tcp.cwnd (MSS)", func(c *Conn) { c.Sender.cwnd = 0.5 }, ackPath},
		{"tcp.ssthresh (MSS)", func(c *Conn) { c.Sender.ssthresh = 0.5 }, ackPath},
		{"tcp.limited-transmit credit", func(c *Conn) { c.Sender.ltCredit = 3 }, ackPath},
		{"tcp.rto backoff exponent", func(c *Conn) { c.Sender.rtoBackoff = 17 }, ackPath},
		{"tcp.receiver pending segments", func(c *Conn) { c.Receiver.pendingSegs = c.Receiver.cfg.DelAckCount }, inOrderSegment},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			c := newWire(t).conn(DefaultConfig(), NewReno{})
			tc.corrupt(c)
			msg := ""
			func() {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				tc.drive(c)
			}()
			if !strings.Contains(msg, "invariant violated: "+tc.label) {
				t.Fatalf("corrupted field: got panic %q, want \"check: invariant violated: %s ...\"", msg, tc.label)
			}
		})
	}
}
