package tcp

import (
	"slices"
	"testing"
	"testing/quick"

	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

func TestBasicTransferCompletes(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	var completedAt sim.Time = -1
	var total int64
	c.Sender.OnComplete = func(n int64) { completedAt, total = w.sched.Now(), n }

	const size = 100 << 10
	c.Sender.Send(size)
	w.sched.Run()

	if completedAt < 0 {
		t.Fatal("transfer never completed")
	}
	if total != size {
		t.Errorf("completed total = %d, want %d", total, size)
	}
	if got := c.Receiver.Stats().DeliveredByte; got != size {
		t.Errorf("delivered = %d, want %d", got, size)
	}
	if !c.Sender.Done() {
		t.Error("Done() false after completion")
	}
	st := c.Sender.Stats()
	if st.RetransPkts != 0 || st.Timeouts != 0 {
		t.Errorf("clean path saw retrans=%d timeouts=%d", st.RetransPkts, st.Timeouts)
	}
	// 100KB at 1Gbps minimum takes ~0.8ms + slow-start round trips.
	if completedAt > sim.Time(100*sim.Millisecond) {
		t.Errorf("transfer too slow: %v", completedAt)
	}
}

func TestTransferExactlyOneMSS(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(packet.MSS)
	w.sched.Run()
	if !done {
		t.Fatal("single-segment transfer did not complete")
	}
	if c.Sender.Stats().SentPkts != 1 {
		t.Errorf("sent %d packets for one MSS", c.Sender.Stats().SentPkts)
	}
}

func TestTransferSubMSSAndOddSizes(t *testing.T) {
	for _, size := range []int64{1, 100, packet.MSS - 1, packet.MSS + 1, 3*packet.MSS + 17} {
		w := newWire(t)
		c := w.conn(DefaultConfig(), NewReno{})
		done := false
		c.Sender.OnComplete = func(int64) { done = true }
		c.Sender.Send(size)
		w.sched.Run()
		if !done {
			t.Fatalf("size %d did not complete", size)
		}
		if got := c.Receiver.Stats().DeliveredByte; got != size {
			t.Errorf("size %d: delivered %d", size, got)
		}
	}
}

func TestMultipleRoundsOnPersistentConnection(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	var completions []int64
	c.Sender.OnComplete = func(n int64) {
		completions = append(completions, n)
		if len(completions) < 3 {
			c.Sender.Send(50 << 10)
		}
	}
	c.Sender.Send(50 << 10)
	w.sched.Run()
	if len(completions) != 3 {
		t.Fatalf("completions = %d, want 3", len(completions))
	}
	for i, n := range completions {
		if want := int64(50<<10) * int64(i+1); n != want {
			t.Errorf("completion %d total = %d, want %d", i, n, want)
		}
	}
	if got := c.Sender.Stats().Completions; got != 3 {
		t.Errorf("stats.Completions = %d", got)
	}
}

func TestSendValidation(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	defer func() {
		if recover() == nil {
			t.Error("Send(0) did not panic")
		}
	}()
	c.Sender.Send(0)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.InitialCwnd = 0.5 },
		func(c *Config) { c.MinCwnd = 0 },
		func(c *Config) { c.MaxCwnd = 1 },
		func(c *Config) { c.RTOMin = 0 },
		func(c *Config) { c.RTOMin = RTOMax + 1 },
		func(c *Config) { c.DelAckCount = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			cfg.validate()
		}()
	}
}

func TestNilCCPanics(t *testing.T) {
	w := newWire(t)
	defer func() {
		if recover() == nil {
			t.Error("nil cc did not panic")
		}
	}()
	NewSender(DefaultConfig(), nil, w.a, w.b.ID(), 9)
}

func TestSlowStartGrowth(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.MaxCwnd = 100
	c := w.conn(cfg, NewReno{})
	c.Sender.Send(1 << 20)
	w.sched.Run()
	// With no loss the window should have grown well past the initial 2.
	if got := c.Sender.CwndMSS(); got < 10 {
		t.Errorf("cwnd after clean 1MB = %.1f MSS, want >= 10", got)
	}
	if c.Sender.Stats().Timeouts != 0 {
		t.Error("unexpected timeouts")
	}
}

func TestCwndCappedAtMax(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.MaxCwnd = 8
	c := w.conn(cfg, NewReno{})
	c.Sender.Send(4 << 20)
	w.sched.Run()
	if got := c.Sender.CwndMSS(); got > 8 {
		t.Errorf("cwnd %.1f exceeds MaxCwnd 8", got)
	}
	if !c.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
}

func TestFastRetransmitSingleLoss(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 10 // enough outstanding data for 3 dupacks
	cfg.DelAckCount = 1  // every segment acked: crisp dupack stream
	c := w.conn(cfg, NewReno{})
	// Drop the 3rd segment (seq = 2*MSS) once.
	w.filter.drop = dropSeqOnce(2 * packet.MSS)
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(20 * packet.MSS)
	w.sched.Run()

	if !done {
		t.Fatal("did not complete")
	}
	st := c.Sender.Stats()
	if st.FastRecoveries != 1 {
		t.Errorf("fast recoveries = %d, want 1", st.FastRecoveries)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (loss should be repaired by fast rtx)", st.Timeouts)
	}
	if st.RetransPkts != 1 {
		t.Errorf("retransmissions = %d, want 1", st.RetransPkts)
	}
	if got := c.Receiver.Stats().DeliveredByte; got != 20*packet.MSS {
		t.Errorf("delivered %d", got)
	}
}

func TestNewRenoMultipleLossesOneWindow(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 12
	cfg.DelAckCount = 1
	c := w.conn(cfg, NewReno{})
	// Two holes in the same window: NewReno repairs them with partial ACKs
	// within a single recovery episode.
	w.filter.drop = dropSeqOnce(2*packet.MSS, 5*packet.MSS)
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(30 * packet.MSS)
	w.sched.Run()

	if !done {
		t.Fatal("did not complete")
	}
	st := c.Sender.Stats()
	if st.FastRecoveries != 1 {
		t.Errorf("fast recoveries = %d, want 1 (NewReno stays in one episode)", st.FastRecoveries)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0", st.Timeouts)
	}
	if st.RetransPkts != 2 {
		t.Errorf("retransmissions = %d, want 2", st.RetransPkts)
	}
}

func TestFullWindowLossIsFLossTimeout(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	// Drop every data packet for the first 5ms: the whole initial window
	// vanishes, no feedback returns -> FLoss-TO.
	w.filter.drop = func(p *packet.Packet) bool {
		return p.IsData() && w.sched.Now() < sim.Time(5*sim.Millisecond)
	}
	var kinds []TimeoutKind
	onTimeout(c.Sender, func(k TimeoutKind) { kinds = append(kinds, k) })
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(10 * packet.MSS)
	w.sched.Run()

	if !done {
		t.Fatal("did not complete")
	}
	st := c.Sender.Stats()
	if st.Timeouts == 0 || st.FLossTimeouts == 0 {
		t.Fatalf("expected FLoss timeouts, got %+v", st)
	}
	if kinds[0] != FLossTO {
		t.Errorf("first timeout kind = %v, want FLoss-TO", kinds[0])
	}
	if st.Timeouts != st.FLossTimeouts+st.LAckTimeouts {
		t.Error("taxonomy does not partition timeouts")
	}
}

func TestInsufficientDupAcksIsLAckTimeout(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 4
	cfg.DelAckCount = 1
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	// Send exactly 4 segments; drop the 2nd. Segments 3 and 4 produce only
	// two dupacks — below DupThresh — so only the RTO recovers: LAck-TO.
	w.filter.drop = dropSeqOnce(1 * packet.MSS)
	var kinds []TimeoutKind
	onTimeout(c.Sender, func(k TimeoutKind) { kinds = append(kinds, k) })
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(4 * packet.MSS)
	w.sched.Run()

	if !done {
		t.Fatal("did not complete")
	}
	st := c.Sender.Stats()
	if st.Timeouts != 1 || st.LAckTimeouts != 1 {
		t.Fatalf("want exactly one LAck-TO, got %+v", st)
	}
	if kinds[0] != LAckTO {
		t.Errorf("kind = %v, want LAck-TO", kinds[0])
	}
	if st.FastRecoveries != 0 {
		t.Error("fast recovery should not have triggered")
	}
}

func TestTimeoutCollapsesCwndToOne(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	w.filter.drop = func(p *packet.Packet) bool {
		return p.IsData() && w.sched.Now() < sim.Time(5*sim.Millisecond)
	}
	var cwndAtTO float64 = -1
	c.Sender.Send(10 * packet.MSS)
	// Step until the first timeout has been processed.
	for w.sched.Step() {
		if c.Sender.Stats().Timeouts > 0 {
			cwndAtTO = c.Sender.CwndMSS()
			break
		}
	}
	if cwndAtTO != 1 {
		t.Errorf("cwnd after RTO = %v, want 1 (the paper's timeout signature)", cwndAtTO)
	}
	if c.Sender.State() != StateLoss {
		t.Errorf("state = %v, want loss", c.Sender.State())
	}
	w.sched.Run()
	if !c.Sender.Done() {
		t.Error("did not complete after timeout recovery")
	}
}

func TestRTOExponentialBackoff(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	// Black-hole everything for 100ms: repeated RTOs must back off.
	w.filter.drop = func(p *packet.Packet) bool {
		return w.sched.Now() < sim.Time(100*sim.Millisecond)
	}
	var timeoutTimes []sim.Time
	onTimeout(c.Sender, func(TimeoutKind) {
		timeoutTimes = append(timeoutTimes, w.sched.Now())
	})
	done := false
	c.Sender.OnComplete = func(int64) { done = true }
	c.Sender.Send(5 * packet.MSS)
	w.sched.Run()

	if !done {
		t.Fatal("did not complete")
	}
	if len(timeoutTimes) < 3 {
		t.Fatalf("expected repeated timeouts, got %d", len(timeoutTimes))
	}
	gap1 := timeoutTimes[1].Sub(timeoutTimes[0])
	gap2 := timeoutTimes[2].Sub(timeoutTimes[1])
	if gap2 < gap1*3/2 {
		t.Errorf("backoff not growing: gaps %v then %v", gap1, gap2)
	}
}

func TestKarnNoRTTSampleFromRetransmit(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 10
	cfg.DelAckCount = 1
	c := w.conn(cfg, NewReno{})
	w.filter.drop = dropSeqOnce(0) // lose the very first (timed) segment
	c.Sender.Send(20 * packet.MSS)
	w.sched.Run()
	// SRTT must reflect the ~100us path, not a retransmission-skewed value.
	srtt := c.Sender.SRTT()
	if srtt <= 0 {
		t.Fatal("no RTT samples at all")
	}
	if srtt > 5*sim.Millisecond {
		t.Errorf("SRTT = %v: retransmitted segment appears to have been sampled", srtt)
	}
}

// TestRepairClippedAtMaxSent: a round's short tail segment is lost, an RTO
// rewinds the sender, and the next round's Send appends bytes before the
// go-back-N repair reaches the tail. The repair resends the tail as it was
// sent — its 500 bytes, not a full MSS re-cut against the grown stream —
// marked Retransmit, so the ACK that covers only the repair takes no RTT
// sample and leaves the RTO backoff in place (Karn).
func TestRepairClippedAtMaxSent(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 10
	cfg.DelAckCount = 1
	cfg.RTOMin = 10 * sim.Millisecond
	c := w.conn(cfg, NewReno{})
	const tail = 500
	tailSeq := int64(2 * packet.MSS)
	round := tailSeq + tail
	// Lose the head, so the middle segment raises a single dupack and only
	// the RTO recovers, and the short tail.
	w.filter.drop = dropSeqOnce(0, tailSeq)
	var repairs []packet.Packet
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && p.Seq == tailSeq && p.Retransmit {
			repairs = append(repairs, *p)
		}
	}
	backoffAtRound := -1
	onAck(c.Sender, func() {
		if c.Sender.SndUna() == round {
			backoffAtRound = int(c.Sender.RTOBackoff())
		}
	})
	c.Sender.Send(round)
	for w.sched.Step() && c.Sender.Stats().Timeouts == 0 {
	}
	// The RTO has resent the head with a 1-MSS window; the next round's
	// bytes arrive before its ACK opens the window for the tail's repair.
	c.Sender.Send(10 * packet.MSS)
	w.sched.Run()

	if !c.Sender.Done() {
		t.Fatal("transfer did not complete")
	}
	if len(repairs) != 1 {
		t.Fatalf("tail repaired %d times, want once", len(repairs))
	}
	if got := repairs[0].Payload; got != tail {
		t.Errorf("tail repair carries %d bytes, want the tail's %d: a repair ends at the highest byte sent", got, tail)
	}
	if backoffAtRound != 1 {
		t.Errorf("RTO backoff %d once the repair was acknowledged, want 1: an ACK of retransmitted data takes no RTT sample", backoffAtRound)
	}
	if c.Sender.RTOBackoff() != 0 {
		t.Errorf("backoff %d after fresh data was acknowledged, want 0", c.Sender.RTOBackoff())
	}
}

// TestStaleRepairFlagSendsNoDuplicate: a repair still pending once
// everything sent is acknowledged — a pacing gate held a partial ACK's
// repair until the full ACK arrived — repairs nothing. The bytes Send
// appends from maxSent on are new data and go out once, not first as a
// "repair" and then again as new.
func TestStaleRepairFlagSendsNoDuplicate(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	var seqs []int64
	w.a.Uplink().Sink.Subscribe(new(obs.Sub), func(_ obs.Record, p *packet.Packet) {
		if p.IsData() {
			seqs = append(seqs, p.Seq)
		}
	})
	c.Sender.Send(packet.MSS)
	w.sched.Run()
	c.Sender.rtxPending = true
	c.Sender.Send(packet.MSS)
	w.sched.Run()
	if want := []int64{0, packet.MSS}; !slices.Equal(seqs, want) {
		t.Errorf("segments sent at %v, want %v", seqs, want)
	}
}

func TestMinCwndFloorHolds(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.ECN = ECNClassic
	c := w.conn(cfg, NewReno{})
	// Mark every data packet CE: the sender is asked to halve every window
	// but must never go below MinCwnd except via RTO.
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && p.ECN == packet.ECT {
			p.ECN = packet.CE
		}
	}
	minSeen := 1e9
	onAck(c.Sender, func() {
		if s := c.Sender; s.State() != StateLoss && s.CwndMSS() < minSeen {
			minSeen = s.CwndMSS()
		}
	})
	c.Sender.Send(200 * packet.MSS)
	w.sched.Run()
	if !c.Sender.Done() {
		t.Fatal("did not complete")
	}
	if minSeen < cfg.MinCwnd {
		t.Errorf("cwnd dropped to %.2f below floor %v", minSeen, cfg.MinCwnd)
	}
	if st := c.Sender.Stats(); st.ECEAcks == 0 {
		t.Error("no ECE feedback observed — marking path broken")
	}
}

func TestECNReductionOncePerWindow(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.ECN = ECNClassic
	cfg.InitialCwnd = 16
	cfg.MaxCwnd = 16
	cfg.DelAckCount = 1
	c := w.conn(cfg, NewReno{})
	marked := false
	w.filter.mangle = func(p *packet.Packet) {
		// Mark exactly one packet in the first window.
		if p.IsData() && !marked && p.Seq == 0 {
			p.ECN = packet.CE
			marked = true
		}
	}
	c.Sender.Send(64 * packet.MSS)
	w.sched.Run()
	// One mark -> one halving: 16 -> 8, then growth resumes. If the sender
	// reacted to the ECE latch repeatedly it would be pinned at MinCwnd.
	if got := c.Sender.CwndMSS(); got < 8 {
		t.Errorf("cwnd = %.1f, want >= 8 (single reduction)", got)
	}
	if !c.Sender.Done() {
		t.Fatal("did not complete")
	}
}

func TestMinCwndECESendInstrumentation(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.ECN = ECNClassic
	c := w.conn(cfg, NewReno{})
	w.filter.mangle = func(p *packet.Packet) {
		if p.IsData() && p.ECN == packet.ECT {
			p.ECN = packet.CE
		}
	}
	c.Sender.Send(100 * packet.MSS)
	w.sched.Run()
	st := c.Sender.Stats()
	if st.MinCwndECESends == 0 {
		t.Error("expected Table-I condition (cwnd at floor, ECE set) to be observed")
	}
}

func TestCloseUnregisters(t *testing.T) {
	w := newWire(t)
	c := w.conn(DefaultConfig(), NewReno{})
	c.Sender.Send(packet.MSS)
	w.sched.Run()
	c.Close()
	delivered, acks := w.a.DeliveredPkts(), c.Sender.Stats().AcksIn
	// An ACK arriving after close must be discarded unclaimed, not crash.
	w.b.Send(&packet.Packet{Dst: w.a.ID(), Flow: 7, Flags: packet.FlagACK, AckNo: 1})
	w.sched.Run()
	if got := w.a.DeliveredPkts() - delivered; got != 1 || c.Sender.Stats().AcksIn != acks {
		t.Errorf("after Close: %d packet(s) reached the host, sender ACKs %d -> %d; want one, unclaimed",
			got, acks, c.Sender.Stats().AcksIn)
	}
}

// Property: under any random loss pattern up to 30%, the transfer always
// completes and delivers exactly the bytes sent — the retransmission
// machinery never deadlocks or corrupts the stream.
func TestLossyTransferAlwaysCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	f := func(seed uint64, lossPctRaw uint8) bool {
		lossPct := int(lossPctRaw % 31)
		w := newWire(nil)
		cfg := DefaultConfig()
		cfg.RTOMin = 10 * sim.Millisecond
		cfg.DelAckCount = 1
		c := w.conn(cfg, NewReno{})
		rng := sim.NewRNG(seed)
		w.filter.drop = func(p *packet.Packet) bool {
			return p.IsData() && rng.Intn(100) < lossPct
		}
		const size = 64 * packet.MSS
		c.Sender.Send(size)
		w.sched.RunUntil(sim.Time(200 * sim.Second))
		return c.Sender.Done() && c.Receiver.Stats().DeliveredByte == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSenderStateString(t *testing.T) {
	if StateOpen.String() != "open" || StateRecovery.String() != "recovery" ||
		StateLoss.String() != "loss" || SenderState(9).String() != "?" {
		t.Error("state strings wrong")
	}
	if FLossTO.String() != "FLoss-TO" || LAckTO.String() != "LAck-TO" {
		t.Error("timeout kind strings wrong")
	}
	if ECNOff.String() != "off" || ECNClassic.String() != "rfc3168" ||
		ECNPrecise.String() != "dctcp" || ECNMode(9).String() != "?" {
		t.Error("ECN mode strings wrong")
	}
}

func TestSenderAccessors(t *testing.T) {
	w := newWire(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	c := w.conn(cfg, NewReno{})
	s := c.Sender
	if s.Flow() != 7 || s.MinCwndMSS() != 2 || s.Config().Seed != 42 {
		t.Error("accessors wrong")
	}
	if s.RNG() == nil {
		t.Error("nil RNG")
	}
	if s.TotalBytes() != 0 || s.SndUna() != 0 || s.SndNxt() != 0 || s.InflightBytes() != 0 {
		t.Error("fresh sender bookkeeping not zero")
	}
	if s.Done() {
		t.Error("fresh sender reports done")
	}
	if s.SsthreshMSS() != cfg.MaxCwnd {
		t.Error("initial ssthresh should be MaxCwnd")
	}
}
