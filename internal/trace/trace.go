// Package trace provides the observation instruments the paper built from
// tcp_probe/Kprobes and switch counters: per-ACK congestion-window probes
// (for the Fig. 2 cwnd frequency distributions), and periodic queue-length
// samplers on switch ports (for the Fig. 9 CDFs and the Fig. 14 time
// series, both sampled every 100us in the paper).
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dctcpplus/internal/check"
	"dctcpplus/internal/netsim"
	"dctcpplus/internal/obs"
	"dctcpplus/internal/packet"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/tcp"
)

// CwndProbe records the congestion window (in whole MSS) observed at every
// ACK on one sender — the tcp_probe analog. Attach subscribes it to the
// sender's sink, beside any other subscriber.
type CwndProbe struct {
	hist *stats.Hist
	sub  obs.Sub
}

// NewCwndProbe returns an empty probe.
func NewCwndProbe() *CwndProbe {
	return &CwndProbe{hist: stats.NewHist()}
}

// Attach subscribes the probe to one sender's processed ACKs.
func (p *CwndProbe) Attach(s *tcp.Sender) {
	s.Sink.Subscribe(&p.sub, func(r obs.Record, _ *packet.Packet) {
		if r.Kind == obs.AckProcessed {
			p.hist.Add(max(int(math.Round(s.CwndMSS())), 1))
		}
	})
}

// Hist returns the cwnd frequency histogram (bins in MSS).
func (p *CwndProbe) Hist() *stats.Hist { return p.hist }

// sampleBlock is how many entries one storage block holds: 16 KiB of
// int32s, filled in place, so a run pays one allocation per block.
const sampleBlock = 4096

// QueueSeries is a queue-occupancy time series sampled every Every. Only
// occupancies are stored, as int32 entries of two kinds: a positive entry
// is one sample of that many bytes, and an entry of −k is k consecutive
// samples of an empty queue, so a run of them costs 4 bytes however long
// it lasts. The k-th sample after a Start at instant t was taken at
// t + k·Every. A copy shares the sampler's blocks and does not see samples
// taken after it was made: the only entry ever rewritten is the last zero
// run, extended in place, and a copy decodes no more than its own Len.
type QueueSeries struct {
	Every sim.Duration

	starts []sim.Time // the instant of each Start
	firsts []int64    // the index of each Start's first sample
	blocks []seriesBlock
	used   int // entries filled in the last block
	n      int64
}

// seriesBlock is one storage block: sampleBlock entries, the first used
// of them holding samples from index first on.
type seriesBlock struct {
	first   int64
	entries *[sampleBlock]int32
}

// Len returns the number of samples.
func (s QueueSeries) Len() int { return int(s.n) }

// Sample returns the i-th sample's instant and queue occupancy in bytes.
// It decodes the sample's block from its start; Each walks the whole
// series in one pass.
func (s QueueSeries) Sample(i int) (at sim.Time, bytes int) {
	if i < 0 || int64(i) >= s.n {
		panic(fmt.Sprintf("trace: sample %d of a %d-sample series", i, s.n))
	}
	k, _ := slices.BinarySearch(s.firsts, int64(i)+1)
	at = s.at(k-1, int64(i)) // in the last phase started at or before sample i
	b, _ := slices.BinarySearchFunc(s.blocks, int64(i)+1, func(b seriesBlock, j int64) int {
		return cmp.Compare(b.first, j)
	})
	blk := s.blocks[b-1] // the last block starting at or before sample i
	j := blk.first
	for _, e := range blk.entries {
		if e < 0 {
			if j -= int64(e); int64(i) < j {
				return at, 0
			}
		} else if j == int64(i) {
			return at, int(e)
		} else {
			j++
		}
	}
	panic(fmt.Sprintf("trace: sample %d is past its block's entries", i))
}

// Each calls f with every sample's instant and occupancy in bytes, in
// order.
func (s QueueSeries) Each(f func(at sim.Time, bytes int)) {
	var i int64
	k := 0 // the phase sample i belongs to
	for _, blk := range s.blocks {
		for _, e := range blk.entries {
			count, bytes := int64(1), int(e)
			if e < 0 {
				count, bytes = -int64(e), 0
			}
			for end := min(i+count, s.n); i < end; i++ {
				for k+1 < len(s.firsts) && s.firsts[k+1] <= i {
					k++
				}
				f(s.at(k, i), bytes)
			}
			if i == s.n {
				return
			}
		}
	}
}

// at returns the instant of sample i, taken in phase k.
func (s QueueSeries) at(k int, i int64) sim.Time {
	return s.starts[k].Add(sim.Duration(i-s.firsts[k]) * s.Every)
}

// begin opens a phase whose first sample is the next one pushed, taken at
// the instant t.
func (s *QueueSeries) begin(t sim.Time) {
	s.starts = append(s.starts, t)
	s.firsts = append(s.firsts, s.n)
}

// push appends one sample of b ≥ 0 bytes: a 0 extends the last entry in
// place when that is a zero run with room to grow, and anything else
// takes a new entry, opening a block when the last one is full.
func (s *QueueSeries) push(b int32) {
	s.n++
	if b == 0 {
		if s.used > 0 {
			if e := &s.blocks[len(s.blocks)-1].entries[s.used-1]; *e < 0 && *e > math.MinInt32 {
				*e--
				return
			}
		}
		b = -1
	}
	if len(s.blocks) == 0 || s.used == sampleBlock {
		s.blocks = append(s.blocks, seriesBlock{first: s.n - 1, entries: new([sampleBlock]int32)})
		s.used = 0
	}
	s.blocks[len(s.blocks)-1].entries[s.used] = b
	s.used++
}

// QueueSampler periodically samples a switch port's queue occupancy, like
// the paper's "collect the instant queue length every 100us on Switch 1".
// It re-arms one bound sim.Timer, so it allocates per block, not per tick.
type QueueSampler struct {
	sched  *sim.Scheduler
	port   *netsim.Port
	timer  sim.Timer
	series QueueSeries
}

// NewQueueSampler creates a sampler for port at the given interval
// (100us in the paper). Call Start to begin. It rejects a port whose
// buffer can hold more bytes than an int32 sample represents.
func NewQueueSampler(sched *sim.Scheduler, port *netsim.Port, interval sim.Duration) *QueueSampler {
	if interval <= 0 {
		panic("trace: sampler interval must be positive")
	}
	if buf := port.Config().BufferBytes; buf > math.MaxInt32 {
		panic(fmt.Sprintf("trace: a %d-byte port buffer overflows the sampler's int32 occupancies", buf))
	}
	q := &QueueSampler{sched: sched, port: port, series: QueueSeries{Every: interval}}
	q.timer.Init(sched, q.tick)
	return q
}

// Start begins sampling from the current instant, a new phase after Stop.
func (q *QueueSampler) Start() {
	if q.timer.Armed() {
		return
	}
	q.series.begin(q.sched.Now())
	q.tick()
}

func (q *QueueSampler) tick() {
	b := q.port.QueueBytes() // SetBufferBytes may have grown the buffer NewQueueSampler checked
	check.AtMost("trace.sampler queue bytes", int64(b), math.MaxInt32)
	q.series.push(int32(b))
	q.timer.Reset(q.series.Every)
}

// Stop halts sampling; collected samples remain available.
func (q *QueueSampler) Stop() { q.timer.Stop() }

// Series returns the collected samples, sharing the sampler's blocks.
func (q *QueueSampler) Series() QueueSeries { return q.series }
