package fault

import (
	"reflect"
	"strings"
	"testing"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/telemetry"
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
// length and element counts, Generate never panics, every event targets an
// element that exists in its op's family, and every event falls inside the
// window the episodes are drawn from, stretched by the longest episode
// (Dur/2 + Dur). Zero and negative knobs exercise the defaults.
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
		eff := cfg.withDefaults()
		lo, hi := eff.Start, eff.Start.Add(eff.Window+eff.Dur/2+eff.Dur)
		for _, ev := range plan.Events {
			n := int(links)
			switch ev.Op {
			case OpPortBuffer, OpPortThreshold:
				n = int(ports)
			case OpHostStall, OpHostResume:
				n = int(hosts)
			}
			if ev.Index < 0 || ev.Index >= n {
				t.Fatalf("%v targets element %d of %d", ev.Op, ev.Index, n)
			}
			if ev.At < lo || ev.At >= hi {
				t.Fatalf("%v at %v outside [%v, %v)", ev.Op, ev.At, lo, hi)
			}
		}
	})
}

// TestPlanSortStable pins the application order: by time, ties in append
// order.
func TestPlanSortStable(t *testing.T) {
	var p Plan
	p.Events = append(p.Events,
		Event{At: 30, Op: OpLinkUp},
		Event{At: 10, Op: OpLinkDown},
		Event{At: 30, Op: OpHostStall},
		Event{At: 20, Op: OpLinkRate, Scale: 1},
	)
	got := p.sorted()
	wantOps := []Op{OpLinkDown, OpLinkRate, OpLinkUp, OpHostStall}
	for i, ev := range got {
		if ev.Op != wantOps[i] {
			t.Fatalf("sorted()[%d].Op = %v, want %v", i, ev.Op, wantOps[i])
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

// TestGenerateRespectsWindowAndTargets: all events land inside
// [Start, Start+Window+1.5*Dur] and reference valid element indices.
func TestGenerateRespectsWindowAndTargets(t *testing.T) {
	cfg := DefaultGenConfig(3)
	cfg.Episodes = 5
	const nLinks, nPorts, nHosts = 4, 3, 2
	plan := Generate(cfg, nLinks, nPorts, nHosts)
	if plan.Empty() {
		t.Fatal("generated empty plan")
	}
	latest := cfg.Start.Add(cfg.Window).Add(cfg.Dur / 2).Add(cfg.Dur)
	for _, ev := range plan.Events {
		if ev.At < cfg.Start || ev.At > latest {
			t.Errorf("event %v at %v outside [%v, %v]", ev.Op, ev.At, cfg.Start, latest)
		}
		var n int
		switch ev.Op {
		case OpLinkDown, OpLinkUp, OpLinkRate, OpLinkDelay, OpLinkLoss:
			n = nLinks
		case OpPortBuffer, OpPortThreshold:
			n = nPorts
		case OpHostStall, OpHostResume:
			n = nHosts
		default:
			t.Fatalf("unknown op %v", ev.Op)
		}
		if ev.Index < 0 || ev.Index >= n {
			t.Errorf("event %v index %d out of range %d", ev.Op, ev.Index, n)
		}
	}
}

// TestGenerateSkipsEmptyFamilies: no hosts => no stall events, rather than
// a panic or an out-of-range index.
func TestGenerateSkipsEmptyFamilies(t *testing.T) {
	cfg := DefaultGenConfig(1)
	cfg.Classes = []Class{ClassStall}
	if plan := Generate(cfg, 4, 4, 0); !plan.Empty() {
		t.Fatalf("generated %d stall events with no hosts", len(plan.Events))
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
// the window accounting, the induced-drop totals and the telemetry
// counters.
func TestInjectorBlackoutWindow(t *testing.T) {
	sched, st, el := buildStar(t)
	reg := telemetry.NewRegistry()
	inj := NewInjector(sched, el)
	inj.AttachTelemetry(reg)

	var plan Plan
	plan.AddBlackout(0, sim.Time(1*sim.Millisecond), 2*sim.Millisecond)
	inj.Install(plan)

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

	snap := reg.Snapshot()
	assertCounter(t, snap, "fault_events_fired_total", 2)
	assertCounter(t, snap, "fault_blackout_ns_total", int64(2*sim.Millisecond))
	assertCounter(t, snap, "fault_induced_drop_pkts_total", 4)

	// Finish is idempotent.
	if again := inj.Finish(); again != stats {
		t.Fatal("second Finish changed the stats")
	}
}

func assertCounter(t *testing.T, snap telemetry.Snapshot, name string, want int64) {
	t.Helper()
	for _, is := range snap.Instruments {
		if is.Name == name {
			if is.Value != want {
				t.Errorf("%s = %d, want %d", name, is.Value, want)
			}
			return
		}
	}
	t.Errorf("counter %s not in snapshot", name)
}

// TestInjectorStallWindow freezes host0's uplink for a window and checks
// delivery timing plus the stall accounting.
func TestInjectorStallWindow(t *testing.T) {
	sched, st, el := buildStar(t)
	inj := NewInjector(sched, el)

	var plan Plan
	plan.AddStall(0, sim.Time(100*sim.Microsecond), 3*sim.Millisecond)
	inj.Install(plan)

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

// TestInjectorScaleRestore checks Scale-1 events restore the exact nominal
// rate/delay/buffer recorded at Install time.
func TestInjectorScaleRestore(t *testing.T) {
	sched, _, el := buildStar(t)
	inj := NewInjector(sched, el)

	link := el.Links[0]
	port := el.Ports[0]
	nomRate, nomDelay := link.RateBps, link.Delay
	nomBuf, nomK := port.Config().BufferBytes, port.Config().MarkThresholdBytes

	var plan Plan
	plan.AddRateWindow(0, sim.Time(1*sim.Millisecond), sim.Millisecond, 0.1)
	plan.AddDelayWindow(0, sim.Time(1*sim.Millisecond), sim.Millisecond, 8)
	plan.AddBufferWindow(0, sim.Time(1*sim.Millisecond), sim.Millisecond, 0.25)
	inj.Install(plan)

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

// TestInjectorFinishClosesOpenWindows: a blackout with no matching up
// event is closed out at Finish time.
func TestInjectorFinishClosesOpenWindows(t *testing.T) {
	sched, _, el := buildStar(t)
	inj := NewInjector(sched, el)
	inj.Install(Plan{Events: []Event{{At: sim.Time(sim.Millisecond), Op: OpLinkDown, Index: 0}}})
	sched.At(sim.Time(5*sim.Millisecond), func() {}) // pin the end-of-run clock
	sched.Run()

	stats := inj.Finish()
	if stats.Blackouts != 1 || stats.BlackoutTime != 4*sim.Millisecond {
		t.Fatalf("open window closed as %d x %v, want 1 x 4ms", stats.Blackouts, stats.BlackoutTime)
	}
}

func TestInjectorValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"link index", Event{Op: OpLinkDown, Index: 99}},
		{"negative index", Event{Op: OpHostStall, Index: -1}},
		{"zero scale", Event{Op: OpLinkRate, Index: 0}},
		{"loss range", Event{Op: OpLinkLoss, Index: 0, Loss: 1.5}},
		{"port index", Event{Op: OpPortBuffer, Index: 99, Scale: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, _, el := buildStar(t)
			inj := NewInjector(sched, el)
			defer func() {
				if recover() == nil {
					t.Errorf("Install accepted invalid event %+v", tc.ev)
				}
			}()
			inj.Install(Plan{Events: []Event{tc.ev}})
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
