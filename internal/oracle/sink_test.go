package oracle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dctcpplus/internal/core"
	"dctcpplus/internal/dctcp"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

// The tests in this file drive the rules through the real subscription
// path — a sender's and a receiver's sinks and the host taps, fed by the
// engine — rather than by calling a rule with hand-built events, so a rule
// that compares an event with itself instead of its predecessor, or a flow
// lookup that misses, fails here.

// jumpyEstimator is NewReno exposing a DCTCP-style alpha-fold counter that
// advances by two on every ACK: a cadence no estimator may have.
type jumpyEstimator struct {
	tcp.NewReno
	updates int64
}

func (j *jumpyEstimator) OnAck(*tcp.Sender, int64, bool) { j.updates += 2 }

func (j *jumpyEstimator) Updates() int64 { return j.updates }

// TestAlphaCadenceThroughSink: a real transfer whose estimator folds twice
// per ACK must be flagged from the probes the sender's sink delivers.
func TestAlphaCadenceThroughSink(t *testing.T) {
	ck := runTransfer(t, tcp.DefaultConfig(), &jumpyEstimator{}, 64*packet.MSS, 0, false)
	requireViolation(t, ck, "alpha-cadence", "jumped by 2")
}

// forgedRetransmission runs a DCTCP+ transfer on flow id flow over a
// marking bottleneck with loss, with the checker on both endpoints and
// both host taps, then one segment more that only RTOs repair, then has
// the sending host put on the wire a retransmission of bytes past
// everything the flow ever sent — no dupack threshold or RTO can have
// granted it. It returns the checker.
func forgedRetransmission(t *testing.T, flow packet.FlowID) *Checker {
	t.Helper()
	sched := sim.NewScheduler()
	star := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	star.EnablePacketPool()
	ck := NewChecker(sched)
	from, to := star.Hosts[0], star.Hosts[1]
	conn := tcp.NewConn(dctcp.Config(), core.New(dctcp.DefaultGain, core.DefaultConfig()), from, to, flow)
	ck.AttachConn(conn)
	ck.AttachHost(from)
	ck.AttachHost(to)
	from.Uplink().Link().SetLoss(0.02, 42)
	down := star.Switch.RouteTo(to.ID())
	down.Link().SetRate(100_000_000)
	down.SetMarkThreshold(10 * packet.MSS)
	const total = 256 * packet.MSS
	conn.Sender.OnComplete = func(int64) { sched.Halt() }
	conn.Sender.Send(total)
	sched.RunUntil(sim.Time(60 * sim.Second))
	if !conn.Sender.Done() {
		t.Fatal("transfer did not complete")
	}
	requireClean(t, ck)

	// One more segment into a link that loses everything: the sender's
	// timer fires, backs off and fires again, so the window ends in RTOs
	// and their go-back-N repairs.
	from.Uplink().Link().SetLoss(1, 42)
	conn.Sender.Send(packet.MSS)
	sched.RunFor(sim.Second)
	requireClean(t, ck)

	// The receiver stops listening, so the forged bytes reach the tap at
	// its host and go no further.
	to.Unregister(flow)
	from.Uplink().Link().SetLoss(0, 42)
	pkt := from.AllocPacket()
	pkt.Dst = to.ID()
	pkt.Flow = flow
	pkt.Seq = total + packet.MSS
	pkt.Payload = packet.MSS
	pkt.Retransmit = true
	pkt.ECN = packet.ECT
	from.Send(pkt)
	sched.RunFor(sim.Millisecond)
	return ck
}

// TestRetransLegalityAboveDenseFlowTable: a flow whose id lies above the
// checker's dense flow table (background long flows start at 900 000) is
// still found at the host tap, and its ungranted retransmission flagged.
func TestRetransLegalityAboveDenseFlowTable(t *testing.T) {
	ck := forgedRetransmission(t, 900_001)
	requireViolation(t, ck, "retrans-legality", "no dupack threshold or RTO")
}

// TestViolationWindowGolden pins the rendering of a violation's event
// window — every event kind a transfer produces, formatted — against
// testdata/window.golden, recorded before Event's fields were narrowed.
func TestViolationWindowGolden(t *testing.T) {
	ck := forgedRetransmission(t, 7)
	vs := ck.Violations()
	if len(vs) != 1 {
		t.Fatalf("want exactly the forged retransmission's violation, got %v", vs)
	}
	got := vs[0].String() + "\n" + strings.Join(vs[0].Window, "\n") + "\n"
	path := filepath.Join("testdata", "window.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("violation window moved from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
