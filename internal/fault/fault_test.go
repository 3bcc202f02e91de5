package fault

import (
	"reflect"
	"strings"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
)

func TestClassStringParseRoundTrip(t *testing.T) {
	for _, c := range AllClasses() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass(bogus) succeeded")
	}
}

func TestParseClasses(t *testing.T) {
	for _, s := range []string{"", "all"} {
		got, err := ParseClasses(s)
		if err != nil || len(got) != int(numClasses) {
			t.Errorf("ParseClasses(%q) = %v, %v; want all classes", s, got, err)
		}
	}
	got, err := ParseClasses("loss, stall")
	if err != nil || !reflect.DeepEqual(got, []Class{ClassLoss, ClassStall}) {
		t.Errorf("ParseClasses(loss, stall) = %v, %v", got, err)
	}
	if _, err := ParseClasses("loss,nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("ParseClasses(loss,nope) err = %v, want mention of the bad name", err)
	}
}

// FuzzParseClasses: a class list never panics the parser, an accepted one
// names only known classes, and its ClassesLabel (classes joined by "+")
// parses back, with "+" read as ",", to the same classes.
func FuzzParseClasses(f *testing.F) {
	for _, seed := range []string{"", "all", " all ", "loss", "loss, stall", "loss,loss",
		"blackout+rate", "loss,nope", ",", " , ", "ALL", "delay,\x00", "\xff\xfe"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cs, err := ParseClasses(s)
		if err != nil {
			if cs != nil {
				t.Errorf("ParseClasses(%q) = %v with error %v", s, cs, err)
			}
			return
		}
		if len(cs) == 0 {
			t.Fatalf("ParseClasses(%q) accepted no classes", s)
		}
		for _, c := range cs {
			if c < 0 || c >= numClasses {
				t.Fatalf("ParseClasses(%q) returned unknown class %d", s, int(c))
			}
		}
		label := ClassesLabel(cs)
		again, err := ParseClasses(strings.ReplaceAll(label, "+", ","))
		if err != nil || !reflect.DeepEqual(again, cs) {
			t.Errorf("ParseClasses(%q) = %v, labelled %q, re-parses to %v, %v", s, cs, label, again, err)
		}
	})
}

// FuzzGenerate: over any seed, class list, episode count, window, episode
// length and element counts, Generate never panics, every episode targets
// an element that exists in its class's family, lasts Dur/2 + uniform[0,
// Dur) — a length in nanoseconds, like Dur — and falls inside the window
// the episodes are drawn from, stretched by the longest episode (Dur/2 +
// Dur). Zero and negative knobs exercise the defaults.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5}, int8(2), int64(200e6), int64(10e6), uint8(8), uint8(10), uint8(10))
	f.Add(uint64(7), []byte{}, int8(0), int64(0), int64(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(0), []byte{5, 5}, int8(-3), int64(-1), int64(1), uint8(1), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, classBytes []byte, episodes int8, window, dur int64, links, ports, hosts uint8) {
		cfg := DefaultGenConfig(seed)
		for _, b := range classBytes {
			cfg.Classes = append(cfg.Classes, Class(int(b)%int(numClasses)))
		}
		// Bounded so Start + Window + 1.5*Dur stays far from overflow.
		cfg.Episodes = int(episodes)
		cfg.Window = sim.Duration(window % (1 << 40))
		cfg.Dur = sim.Duration(dur % (1 << 40))
		plan := Generate(cfg, int(links), int(ports), int(hosts))
		checkEpisodes(t, plan, cfg.withDefaults(), int(links), int(ports), int(hosts))
	})
}

// checkEpisodes fails t unless every episode of plan targets an element of
// its class's family, lasts Dur/2 + uniform[0, Dur) of cfg and starts and
// ends inside [Start, Start+Window+Dur/2+Dur).
func checkEpisodes(t *testing.T, plan []Episode, cfg GenConfig, links, ports, hosts int) {
	t.Helper()
	lo, hi := cfg.Start, cfg.Start.Add(cfg.Window+cfg.Dur/2+cfg.Dur)
	for _, ep := range plan {
		if n := ep.Class.family(links, ports, hosts); ep.Target < 0 || ep.Target >= n {
			t.Fatalf("%v targets element %d of %d", ep.Class, ep.Target, n)
		}
		if ep.Dur < cfg.Dur/2 || ep.Dur >= cfg.Dur/2+cfg.Dur {
			t.Fatalf("%v lasts %v, outside [%v, %v)", ep.Class, ep.Dur, cfg.Dur/2, cfg.Dur/2+cfg.Dur)
		}
		if end := ep.From.Add(ep.Dur); ep.From < lo || end >= hi {
			t.Fatalf("%v window [%v, %v) outside [%v, %v)", ep.Class, ep.From, end, lo, hi)
		}
	}
}

// TestGenerateDeterministic pins that Generate is a pure function of its
// inputs, and that the seed actually matters.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(7)
	a := Generate(cfg, 12, 8, 9)
	b := Generate(cfg, 12, 8, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different plans")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c := Generate(cfg2, 12, 8, 9)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical plans")
	}
}

// TestGenerateRespectsWindowAndTargets: every class gets its episodes, each
// lasting Dur/2 + uniform[0, Dur), inside [Start, Start+Window+1.5*Dur)
// and on a valid element index.
func TestGenerateRespectsWindowAndTargets(t *testing.T) {
	cfg := DefaultGenConfig(3)
	cfg.Episodes = 5
	const nLinks, nPorts, nHosts = 4, 3, 2
	plan := Generate(cfg, nLinks, nPorts, nHosts)
	if got, want := len(plan), cfg.Episodes*int(numClasses); got != want {
		t.Fatalf("generated %d episodes, want %d", got, want)
	}
	checkEpisodes(t, plan, cfg, nLinks, nPorts, nHosts)
}

// TestGenerateSkipsEmptyFamilies: no hosts => no stall episodes, rather
// than a panic or an out-of-range index.
func TestGenerateSkipsEmptyFamilies(t *testing.T) {
	cfg := DefaultGenConfig(1)
	cfg.Classes = []Class{ClassStall}
	if plan := Generate(cfg, 4, 4, 0); len(plan) != 0 {
		t.Fatalf("generated %d stall episodes with no hosts", len(plan))
	}
}

// buildStar wires a pooled 2-host star and returns hand-rolled Elements
// over it: host0's uplink link, the switch's two port links, the switch
// ports, and both hosts.
func buildStar(t *testing.T) (*sim.Scheduler, *netsim.Star, Elements) {
	t.Helper()
	sched := sim.NewScheduler()
	st := netsim.NewStar(sched, 2, netsim.DefaultTopologyConfig())
	st.EnablePacketPool()
	el := Elements{Hosts: st.Hosts}
	for _, h := range st.Hosts {
		el.Links = append(el.Links, h.Uplink().Link())
	}
	for _, p := range st.Switch.Ports() {
		el.Links = append(el.Links, p.Link())
		el.Ports = append(el.Ports, p)
	}
	return sched, st, el
}

// sendBurst injects n data packets from src to dst through src's uplink.
func sendBurst(st *netsim.Star, src, dst int, n int, flow packet.FlowID) {
	h := st.Hosts[src]
	for i := 0; i < n; i++ {
		pkt := h.AllocPacket()
		pkt.Dst = st.Hosts[dst].ID()
		pkt.Flow = flow
		pkt.Seq = int64(i) * packet.MSS
		pkt.Payload = packet.MSS
		pkt.ECN = packet.ECT
		h.Send(pkt)
	}
}

// TestInjectorBlackoutWindow runs a blackout over live traffic and checks
// the window accounting and the induced-drop totals.
func TestInjectorBlackoutWindow(t *testing.T) {
	sched, st, el := buildStar(t)
	inj := NewInjector(sched, el)

	inj.Install([]Episode{{Class: ClassBlackout, From: sim.Time(1 * sim.Millisecond), Dur: 2 * sim.Millisecond}})

	// Traffic before, during and after the window.
	sched.After(0, func() { sendBurst(st, 0, 1, 3, 1) })
	sched.After(2*sim.Millisecond, func() { sendBurst(st, 0, 1, 4, 1) })
	sched.After(5*sim.Millisecond, func() { sendBurst(st, 0, 1, 2, 1) })
	sched.Run()

	stats := inj.Finish()
	if stats.EventsFired != 2 {
		t.Fatalf("EventsFired = %d, want 2", stats.EventsFired)
	}
	if stats.Blackouts != 1 || stats.BlackoutTime != 2*sim.Millisecond {
		t.Fatalf("blackout window = %d x %v, want 1 x 2ms", stats.Blackouts, stats.BlackoutTime)
	}
	if stats.InducedDropPkts != 4 {
		t.Fatalf("InducedDropPkts = %d, want the 4 mid-window packets", stats.InducedDropPkts)
	}
	if got := st.Hosts[1].DeliveredPkts(); got != 5 {
		t.Fatalf("delivered = %d, want 5 (3 before + 2 after)", got)
	}

	// Finish is idempotent.
	if again := inj.Finish(); again != stats {
		t.Fatal("second Finish changed the stats")
	}
}

// TestInjectorStallWindow freezes host0's uplink for a window and checks
// delivery timing plus the stall accounting.
func TestInjectorStallWindow(t *testing.T) {
	sched, st, el := buildStar(t)
	inj := NewInjector(sched, el)

	inj.Install([]Episode{{Class: ClassStall, From: sim.Time(100 * sim.Microsecond), Dur: 3 * sim.Millisecond}})

	sched.After(200*sim.Microsecond, func() { sendBurst(st, 0, 1, 2, 1) })
	sched.After(1*sim.Millisecond, func() {
		if got := st.Hosts[1].DeliveredPkts(); got != 0 {
			t.Errorf("delivered %d packets during the stall", got)
		}
	})
	sched.Run()

	stats := inj.Finish()
	if stats.Stalls != 1 || stats.StallTime != 3*sim.Millisecond {
		t.Fatalf("stall window = %d x %v, want 1 x 3ms", stats.Stalls, stats.StallTime)
	}
	if got := st.Hosts[1].DeliveredPkts(); got != 2 {
		t.Fatalf("delivered = %d after resume, want 2", got)
	}
}

// TestInjectorScaleRestore checks the end of a window restores the exact
// nominal rate/delay/buffer recorded by NewInjector.
func TestInjectorScaleRestore(t *testing.T) {
	sched, _, el := buildStar(t)
	inj := NewInjector(sched, el)

	link := el.Links[0]
	port := el.Ports[0]
	nomRate, nomDelay := link.RateBps, link.Delay
	nomBuf, nomK := port.Config().BufferBytes, port.Config().MarkThresholdBytes

	from := sim.Time(1 * sim.Millisecond)
	inj.Install([]Episode{
		{Class: ClassRate, From: from, Dur: sim.Millisecond, Scale: rateScale},
		{Class: ClassDelay, From: from, Dur: sim.Millisecond, Scale: delayScale},
		{Class: ClassBuffer, From: from, Dur: sim.Millisecond, Scale: bufferScale},
	})

	sched.After(1500*sim.Microsecond, func() {
		if link.RateBps != nomRate/10 {
			t.Errorf("mid-window rate = %d, want %d", link.RateBps, nomRate/10)
		}
		if link.Delay != nomDelay*8 {
			t.Errorf("mid-window delay = %v, want %v", link.Delay, nomDelay*8)
		}
		if got := port.Config().BufferBytes; got != nomBuf/4 {
			t.Errorf("mid-window buffer = %d, want %d", got, nomBuf/4)
		}
		if got := port.Config().MarkThresholdBytes; got != nomK/4 {
			t.Errorf("mid-window K = %d, want %d", got, nomK/4)
		}
	})
	sched.Run()

	if link.RateBps != nomRate || link.Delay != nomDelay {
		t.Fatalf("restore: rate=%d delay=%v, want %d/%v", link.RateBps, link.Delay, nomRate, nomDelay)
	}
	if port.Config().BufferBytes != nomBuf || port.Config().MarkThresholdBytes != nomK {
		t.Fatalf("restore: buffer=%d K=%d, want %d/%d",
			port.Config().BufferBytes, port.Config().MarkThresholdBytes, nomBuf, nomK)
	}
}

// TestGeneratedStallFreezesForItsDur: a generated stall episode freezes
// its host's uplink from From for exactly its Dur — nothing leaves before
// the window closes, the burst sent inside it delivers after — and
// Stats.StallTime reads that Dur.
func TestGeneratedStallFreezesForItsDur(t *testing.T) {
	sched, st, el := buildStar(t)
	inj := NewInjector(sched, el)
	cfg := DefaultGenConfig(5)
	cfg.Classes, cfg.Episodes = []Class{ClassStall}, 1
	plan := Generate(cfg, len(el.Links), len(el.Ports), len(el.Hosts))
	if len(plan) != 1 {
		t.Fatalf("generated %d stall episodes, want 1", len(plan))
	}
	ep := plan[0]
	checkEpisodes(t, plan, cfg, len(el.Links), len(el.Ports), len(el.Hosts))
	inj.Install(plan)

	src, dst := ep.Target, 1-ep.Target
	sched.At(ep.From.Add(sim.Microsecond), func() { sendBurst(st, src, dst, 2, 1) })
	sched.At(ep.From.Add(ep.Dur-1), func() {
		if got := st.Hosts[dst].DeliveredPkts(); got != 0 {
			t.Errorf("delivered %d packets before the stall ended", got)
		}
	})
	sched.Run()

	stats := inj.Finish()
	if stats.Stalls != 1 || stats.StallTime != ep.Dur {
		t.Fatalf("stall window = %d x %v, want 1 x %v", stats.Stalls, stats.StallTime, ep.Dur)
	}
	if got := st.Hosts[dst].DeliveredPkts(); got != 2 {
		t.Fatalf("delivered = %d after resume, want 2", got)
	}
}

// TestInjectorCoincidentEdgesApplyInPlanOrder: one rate episode ends at the
// instant the next on the same link starts, and the two edges apply in plan
// order — listed first to last, the link sits at the second episode's
// scale; listed the other way round, the first episode's end restores the
// nominal rate after the second's start.
func TestInjectorCoincidentEdgesApplyInPlanOrder(t *testing.T) {
	ms := sim.Time(sim.Millisecond)
	first := Episode{Class: ClassRate, From: ms, Dur: sim.Millisecond, Scale: 0.5}
	second := Episode{Class: ClassRate, From: 2 * ms, Dur: sim.Millisecond, Scale: 0.1}
	for _, tc := range []struct {
		plan []Episode
		div  int64 // mid-second-window rate = nominal / div
	}{
		{[]Episode{first, second}, 10},
		{[]Episode{second, first}, 1},
	} {
		sched, _, el := buildStar(t)
		inj := NewInjector(sched, el)
		nom := el.Links[0].RateBps
		inj.Install(tc.plan)
		var mid int64
		sched.At(2*ms+ms/2, func() { mid = el.Links[0].RateBps })
		sched.Run()
		if mid != nom/tc.div {
			t.Errorf("plan %v..%v: rate mid-window = %d, want %d", tc.plan[0].Scale, tc.plan[1].Scale, mid, nom/tc.div)
		}
		if got := inj.Finish().EventsFired; got != 4 {
			t.Errorf("EventsFired = %d, want 4", got)
		}
	}
}

// TestInjectorFinishClosesOpenWindows: a blackout still open when the run
// stops is closed out at Finish time.
func TestInjectorFinishClosesOpenWindows(t *testing.T) {
	sched, _, el := buildStar(t)
	inj := NewInjector(sched, el)
	inj.Install([]Episode{{Class: ClassBlackout, From: sim.Time(sim.Millisecond), Dur: 10 * sim.Millisecond}})
	sched.At(sim.Time(5*sim.Millisecond), func() {}) // pin the end-of-run clock
	sched.RunUntil(sim.Time(5 * sim.Millisecond))

	stats := inj.Finish()
	if stats.Blackouts != 1 || stats.BlackoutTime != 4*sim.Millisecond {
		t.Fatalf("open window closed as %d x %v, want 1 x 4ms", stats.Blackouts, stats.BlackoutTime)
	}
}

func TestInjectorValidation(t *testing.T) {
	cases := []struct {
		name string
		ep   Episode
	}{
		{"link index", Episode{Class: ClassBlackout, Target: 99}},
		{"negative index", Episode{Class: ClassStall, Target: -1}},
		{"zero scale", Episode{Class: ClassRate}},
		{"loss range", Episode{Class: ClassLoss, Scale: 1.5}},
		{"port index", Episode{Class: ClassBuffer, Target: 99, Scale: 1}},
		{"negative duration", Episode{Class: ClassBlackout, Dur: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, _, el := buildStar(t)
			inj := NewInjector(sched, el)
			defer func() {
				if recover() == nil {
					t.Errorf("Install accepted invalid episode %+v", tc.ep)
				}
			}()
			inj.Install([]Episode{tc.ep})
		})
	}
}

// TestTwoTierElements pins the documented enumeration order and sizes for
// the paper topology (3 leaves x 3 workers + aggregator).
func TestTwoTierElements(t *testing.T) {
	sched := sim.NewScheduler()
	tt := netsim.NewTwoTier(sched, 3, 3, netsim.DefaultTopologyConfig())
	el := TwoTierElements(tt)

	// Links: 9 worker uplinks + root ports (agg + 3 trunks) + leaf ports
	// (3 x (trunk + 3 workers)).
	if got, want := len(el.Links), 9+4+3*4; got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
	if got, want := len(el.Ports), 4+3*4; got != want {
		t.Errorf("ports = %d, want %d", got, want)
	}
	if got, want := len(el.Hosts), 9; got != want {
		t.Errorf("hosts = %d, want %d", got, want)
	}
	for i, w := range tt.Workers {
		if el.Links[i] != w.Uplink().Link() {
			t.Errorf("Links[%d] is not worker %d's uplink", i, i)
		}
		if el.Hosts[i] != w {
			t.Errorf("Hosts[%d] is not worker %d", i, i)
		}
	}
	// Two builds enumerate identically (by position).
	el2 := TwoTierElements(tt)
	if len(el2.Links) != len(el.Links) || el2.Links[0] != el.Links[0] {
		t.Error("enumeration not stable across calls")
	}
}
