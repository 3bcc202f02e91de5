package trace

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/tcp"
)

func twoHosts(t *testing.T) (*sim.Scheduler, *netsim.Star) {
	t.Helper()
	s := sim.NewScheduler()
	return s, netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
}

func TestCwndProbeRecordsPerAck(t *testing.T) {
	s, star := twoHosts(t)
	c := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 1)
	p := NewCwndProbe()
	p.Attach(c.Sender)
	c.Sender.Send(64 * packet.MSS)
	s.Run()
	if !c.Sender.Done() {
		t.Fatal("transfer incomplete")
	}
	if acks := c.Sender.Stats().AcksIn; acks == 0 || p.Hist().Total() != acks {
		t.Errorf("acks=%d histTotal=%d", acks, p.Hist().Total())
	}
	// cwnd grew past initial 2 during slow start: histogram has bins > 2.
	found := false
	for _, b := range p.Hist().Bins() {
		if b > 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("histogram bins = %v, expected growth beyond 2", p.Hist().Bins())
	}
}

// TestCwndProbeBesideAnotherSubscriber: a probe and a subscriber that
// joined the sender's sink before it each see every processed ACK exactly
// once, in emission order.
func TestCwndProbeBesideAnotherSubscriber(t *testing.T) {
	s, star := twoHosts(t)
	c := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 1)
	var first []sim.Time
	c.Sender.Sink.Subscribe(new(obs.Sub), func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.AckProcessed {
			first = append(first, r.At)
		}
	})
	p := NewCwndProbe()
	p.Attach(c.Sender)
	var last []sim.Time
	c.Sender.Sink.Subscribe(new(obs.Sub), func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.AckProcessed {
			last = append(last, r.At)
			if len(first) != len(last) || p.Hist().Total() != int64(len(last)) {
				t.Fatalf("ACK %d reached the subscribers out of order: %d, %d, %d",
					len(last), len(first), p.Hist().Total(), len(last))
			}
		}
	})
	c.Sender.Send(16 * packet.MSS)
	s.Run()
	if acks := c.Sender.Stats().AcksIn; acks == 0 || int64(len(first)) != acks || p.Hist().Total() != acks {
		t.Errorf("sender processed %d ACKs; subscribers saw %d and %d", acks, len(first), p.Hist().Total())
	}
	if !slices.Equal(first, last) || !slices.IsSorted(first) {
		t.Errorf("subscribers disagree or saw ACKs out of emission order: %v vs %v", first, last)
	}
}

func TestCwndProbeFloorBin(t *testing.T) {
	p := NewCwndProbe()
	_, star := twoHosts(t)
	c := tcp.NewConn(tcp.DefaultConfig(), tcp.NewReno{}, star.Hosts[0], star.Hosts[1], 2)
	p.Attach(c.Sender)
	// A fresh sender sits at its floor, cwnd = 2 = MinCwnd; records of other
	// kinds leave the probe alone.
	c.Sender.Sink.Emit(obs.Record{Kind: obs.AckProcessed, ECE: true}, nil)
	c.Sender.Sink.Emit(obs.Record{Kind: obs.Timeout}, nil)
	if p.Hist().Count(2) != 1 || p.Hist().Total() != 1 {
		t.Errorf("bin 2 count = %d of %d", p.Hist().Count(2), p.Hist().Total())
	}
}

func TestQueueSamplerInterval(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	q := NewQueueSampler(s, port, 100*sim.Microsecond)
	q.Start()
	q.Start() // idempotent
	s.After(1050*sim.Microsecond, func() { q.Stop() })
	s.Run()
	series := q.Series()
	// Samples at t=0, 100us, ..., 1000us -> 11.
	if series.Len() != 11 || series.Every != 100*sim.Microsecond {
		t.Errorf("samples = %d every %v, want 11 every 100us", series.Len(), series.Every)
	}
	for i := 0; i < series.Len(); i++ {
		at, bytes := series.Sample(i)
		if want := sim.Time(i) * sim.Time(100*sim.Microsecond); at != want {
			t.Errorf("sample %d at %v, want %v", i, at, want)
		}
		if bytes != 0 {
			t.Errorf("idle queue sample = %d bytes", bytes)
		}
	}
}

func TestQueueSamplerObservesOccupancy(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 3, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[2].ID())
	q := NewQueueSampler(s, port, 10*sim.Microsecond)
	q.Start()
	// Two hosts blast data at host2's switch port so a queue builds.
	for i, h := range star.Hosts[:2] {
		cfg := tcp.DefaultConfig()
		cfg.InitialCwnd = 30
		cfg.MaxCwnd = 64
		c := tcp.NewConn(cfg, tcp.NewReno{}, h, star.Hosts[2], packet.FlowID(i+1))
		c.Sender.Send(60 * packet.MSS)
	}
	s.RunUntil(sim.Time(5 * sim.Millisecond))
	q.Stop()
	series := q.Series()
	max := 0
	for i := 0; i < series.Len(); i++ {
		if _, bytes := series.Sample(i); bytes > max {
			max = bytes
		}
	}
	if max == 0 {
		t.Error("sampler never observed a non-empty queue")
	}
	if max > port.Config().BufferBytes {
		t.Errorf("sampled %d bytes in a %d-byte buffer", max, port.Config().BufferBytes)
	}
}

func TestQueueSamplerValidation(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	defer func() {
		if recover() == nil {
			t.Error("zero interval did not panic")
		}
	}()
	NewQueueSampler(s, port, 0)
}

// TestQueueSamplerRejectsWideBuffer: an occupancy is stored as an int32, so
// a port whose buffer could hold more is refused up front, with the buffer
// named in the diagnosis, rather than sampled into wrapped values.
func TestQueueSamplerRejectsWideBuffer(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold a buffer past the int32 range")
	}
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	wide := math.MaxInt32
	wide++
	port.SetBufferBytes(wide)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, strconv.Itoa(wide)+"-byte port buffer") || !strings.Contains(msg, "int32") {
			t.Errorf("over-int32 buffer: panic %q, want a diagnosis naming the %d-byte buffer", msg, wide)
		}
	}()
	NewQueueSampler(s, port, sim.Microsecond)
}

func TestQueueSamplerStopBeforeStart(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	q := NewQueueSampler(s, port, sim.Microsecond)
	q.Stop() // must not panic
	if q.Series().Len() != 0 {
		t.Error("samples without start")
	}
}

// TestQueueSamplerBlocks drives the sampler on an idle port past several
// blocks' worth of samples, all of them one zero run extended in place:
// Sample(k) is tick k's instant, a series taken mid-run stays as it was
// while the run goes on growing, and a Stop→Start resumes at the new phase,
// appending. FuzzQueueSeries crosses the edges of filled blocks.
func TestQueueSamplerBlocks(t *testing.T) {
	s := sim.NewScheduler()
	star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
	port := star.Switch.RouteTo(star.Hosts[1].ID())
	const iv = 10 * sim.Microsecond
	t0 := sim.Time(3 * sim.Microsecond)
	tick := func(k int) sim.Time { return t0.Add(sim.Duration(k) * iv) }
	q := NewQueueSampler(s, port, iv)
	s.At(t0, q.Start)
	// Every sample of series from its own index on sits on its tick: the
	// k-th sample of phase p at p's start + k·iv.
	onTicks := func(series QueueSeries, from int, start sim.Time) {
		t.Helper()
		for k := from; k < series.Len(); k++ {
			at, bytes := series.Sample(k)
			if want := start.Add(sim.Duration(k-from) * iv); at != want || bytes != 0 {
				t.Fatalf("sample %d = (%v, %d), want (%v, 0)", k, at, bytes, want)
			}
		}
	}

	s.RunUntil(tick(sampleBlock - 1))
	mid := q.Series()
	if mid.Len() != sampleBlock {
		t.Fatalf("one block in: %d samples, want %d", mid.Len(), sampleBlock)
	}

	const n = 10_000 // past two block edges
	s.RunUntil(tick(n - 1))
	all := q.Series()
	if all.Len() != n {
		t.Fatalf("%d samples, want %d", all.Len(), n)
	}
	onTicks(all, 0, t0)
	if mid.Len() != sampleBlock {
		t.Errorf("the series taken mid-run grew to %d samples", mid.Len())
	}
	onTicks(mid, 0, t0)

	q.Stop()
	restart := tick(n - 1).Add(25 * sim.Microsecond) // off the old phase
	s.At(restart, q.Start)
	s.At(restart, q.Start) // idempotent while running
	s.RunUntil(restart.Add(2 * iv))
	q.Stop()
	got := q.Series()
	if got.Len() != n+3 {
		t.Fatalf("after restart: %d samples, want %d", got.Len(), n+3)
	}
	for k := 0; k < n; k++ {
		at, bytes := got.Sample(k)
		if wantAt, wantBytes := all.Sample(k); at != wantAt || bytes != wantBytes {
			t.Fatalf("restart rewrote sample %d: (%v, %d), was (%v, %d)", k, at, bytes, wantAt, wantBytes)
		}
	}
	onTicks(got, n, restart)
	for _, k := range []int{-1, n + 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(%d) of a %d-sample series did not panic", k, got.Len())
				}
			}()
			got.Sample(k)
		}()
	}
}

// TestQueueSamplerAllocBudget pins the sampler's cost at one allocation per
// storage block: its timer re-arms without a closure, a filled block is
// never regrown, and no timestamp is stored. A busy port costs 4 bytes per
// sample; on an idle one every tick extends one zero run in place, so three
// blocks' worth of ticks allocate at most one block. Like internal/exp's
// TestRigJobAllocBudget it measures on one P after a collection: otherwise
// the runtime now and then adds a few mallocs and kilobytes of its own to
// the run being measured.
func TestQueueSamplerAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const blocks = 3
	const blockDesc = int(unsafe.Sizeof(seriesBlock{}))
	for _, tc := range []struct {
		name               string
		busy               bool
		budget, byteBudget int
	}{
		// Nothing is stored but the run, which began at Start.
		{"idle", false, 1, 4 * sampleBlock},
		// Bytes: 4 per sample, plus the slice of block descriptors. It
		// doubles as it grows, so its allocations sum to at most twice a
		// capacity of at most twice the blocks+1 it ends up holding. The
		// slice regrows now and then: a small constant beyond the blocks.
		{"busy", true, blocks + 2, 4*blocks*sampleBlock + 2*2*(blocks+1)*blockDesc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler()
			star := netsim.NewStar(s, 2, netsim.DefaultTopologyConfig())
			port := star.Switch.RouteTo(star.Hosts[1].ID())
			if tc.busy {
				port.Pause() // the queue holds its one packet at every tick
				port.Enqueue(&packet.Packet{Payload: packet.MSS})
			}
			q := NewQueueSampler(s, port, sim.Microsecond)
			q.Start()
			run := func() { s.RunFor(blocks * sampleBlock * sim.Microsecond) }
			measure := func() (mallocs, bytes uint64) {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
			}
			if _, got := measure(); got > uint64(tc.byteBudget) {
				t.Fatalf("%d ticks allocate %d bytes, want at most %d", blocks*sampleBlock, got, tc.byteBudget)
			}
			// One unmeasured run first, as testing.AllocsPerRun warms up.
			run()
			if got, _ := measure(); got > uint64(tc.budget) {
				t.Fatalf("%d ticks allocate %d times, want at most %d", blocks*sampleBlock, got, tc.budget)
			}
			if _, bytes := q.Series().Sample(q.Series().Len() - 1); (bytes > 0) != tc.busy {
				t.Fatalf("the last sample read %d bytes", bytes)
			}
		})
	}
}

// TestQueueSeriesLongZeroRun: a zero run stops growing at math.MinInt32,
// 2^31 empty samples, and the next empty sample opens a new run.
func TestQueueSeriesLongZeroRun(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot index past 2^31 samples")
	}
	s := QueueSeries{Every: sim.Microsecond}
	s.begin(0)
	s.push(7)
	s.push(0)
	// As if 2^31 − 1 empty samples had followed the first.
	s.blocks[0].entries[1] = math.MinInt32 + 1
	s.n = 1 + math.MaxInt32
	s.push(0) // the run reaches 2^31 samples
	s.push(0) // and a new one opens
	s.push(5)
	if got, want := s.blocks[0].entries[:s.used], []int32{7, math.MinInt32, -1, 5}; !slices.Equal(got, want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	n := s.Len()
	if n != 1<<31+3 {
		t.Fatalf("%d samples, want %d", n, 1<<31+3)
	}
	for _, c := range []struct{ i, bytes int }{{0, 7}, {1, 0}, {1 << 31, 0}, {n - 2, 0}, {n - 1, 5}} {
		at, bytes := s.Sample(c.i)
		if want := sim.Time(c.i) * sim.Time(sim.Microsecond); at != want || bytes != c.bytes {
			t.Errorf("sample %d = (%v, %d), want (%v, %d)", c.i, at, bytes, want, c.bytes)
		}
	}
}

// seriesSample is one sample of FuzzQueueSeries' dense model.
type seriesSample struct {
	at    sim.Time
	bytes int
}

// fuzzSeriesCap bounds the samples one FuzzQueueSeries input takes: enough
// for three blocks of non-zero samples, crossing two block edges, while
// checking Sample at every index, each a scan of its block, stays cheap.
const fuzzSeriesCap = 3*sampleBlock + 64

// FuzzQueueSeries drives a series with the fuzzer's bytes against a dense
// []seriesSample model. The series starts at instant 0 with a first sample
// of first bytes; then each 3-byte operation is an opcode and a
// little-endian uint16 argument a:
//
//	0: a%(2·sampleBlock)+1 ticks on an empty queue;
//	1: as many ticks on a busy queue, occupancies drawn from a;
//	2: Stop, then Start a%256 µs after the last tick, sampling a/256 bytes;
//	3: take a copy, as QueueSampler.Series does.
//
// Ticks stop at fuzzSeriesCap samples. The series must match the model in
// Len, every Sample(i) and Each's order and values, and every copy must
// still read as the model did when it was taken.
func FuzzQueueSeries(f *testing.F) {
	op := func(code byte, a int) []byte { return []byte{code, byte(a), byte(a >> 8)} }
	ops := func(o ...[]byte) []byte { return slices.Concat(o...) }
	// A zero run spanning three blocks' worth of samples, then busy ticks.
	f.Add(uint16(0), ops(op(0, 2*sampleBlock-1), op(0, sampleBlock), op(3, 0), op(1, 10)))
	// A block filled with busy samples but for its last entry, a zero run
	// there that grows after a copy, and busy samples in the next block.
	f.Add(uint16(9), ops(op(1, sampleBlock-3), op(0, 4), op(3, 0), op(0, 5), op(3, 0), op(1, 2), op(0, 0)))
	// A zero run that goes on across a Stop/Start, copied on either side.
	f.Add(uint16(0), ops(op(0, 100), op(3, 0), op(2, 17), op(0, 50), op(3, 0), op(2, 3<<8|255), op(1, 1)))
	f.Fuzz(func(t *testing.T, first uint16, data []byte) {
		const every = 10 * sim.Microsecond
		s := QueueSeries{Every: every}
		var model []seriesSample
		next := sim.Time(0) // the instant of the next tick
		tick := func(b int) {
			s.push(int32(b))
			model = append(model, seriesSample{next, b})
			next = next.Add(every)
		}
		type copied struct {
			s QueueSeries
			n int
		}
		var copies []copied
		s.begin(0)
		tick(int(first))
		for ; len(data) >= 3 && len(model) < fuzzSeriesCap; data = data[3:] {
			a := int(data[1]) | int(data[2])<<8
			ticks := min(a%(2*sampleBlock)+1, fuzzSeriesCap-len(model))
			switch data[0] % 4 {
			case 0:
				for range ticks {
					tick(0)
				}
			case 1:
				for j := range ticks {
					tick(1 + (a*(j+1))%math.MaxInt32)
				}
			case 2:
				next = model[len(model)-1].at.Add(sim.Duration(a%256) * sim.Microsecond)
				s.begin(next)
				tick(a / 256)
			case 3:
				copies = append(copies, copied{s, len(model)})
			}
		}
		readsAs(t, "series", s, model, true)
		for k, c := range copies {
			readsAs(t, "copy "+strconv.Itoa(k), c.s, model[:c.n], false)
		}
	})
}

// readsAs fails t unless s holds exactly want: its Len, Each's walk and
// Sample at every index (at the first and last one only unless every).
func readsAs(t *testing.T, name string, s QueueSeries, want []seriesSample, every bool) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", name, s.Len(), len(want))
	}
	var got []seriesSample
	s.Each(func(at sim.Time, bytes int) { got = append(got, seriesSample{at, bytes}) })
	if len(got) != len(want) {
		t.Fatalf("%s: Each walked %d samples, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Each's sample %d = %v, want %v", name, i, got[i], want[i])
		}
	}
	check := func(i int) {
		if at, bytes := s.Sample(i); (seriesSample{at, bytes}) != want[i] {
			t.Fatalf("%s: Sample(%d) = (%v, %d), want %v", name, i, at, bytes, want[i])
		}
	}
	if every {
		for i := range want {
			check(i)
		}
		return
	}
	check(0)
	check(len(want) - 1)
}
