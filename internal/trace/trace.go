// Package trace provides the observation instruments the paper built from
// tcp_probe/Kprobes and switch counters: per-ACK congestion-window probes
// (for the Fig. 2 cwnd frequency distributions), and periodic queue-length
// samplers on switch ports (for the Fig. 9 CDFs and the Fig. 14 time
// series, both sampled every 100us in the paper).
package trace

import (
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

// sampleBlock is how many samples one storage block holds: 16 KiB of
// int32s, filled in place, so a run pays one allocation per block.
const sampleBlock = 4096

// QueueSeries is a queue-occupancy time series sampled every Every. Only
// occupancies are stored, 4 bytes each: the k-th sample after a Start at
// instant t was taken at t + k·Every. A copy shares the sampler's blocks
// and does not see samples taken after it was made.
type QueueSeries struct {
	Every sim.Duration

	starts []sim.Time // the instant of each Start
	firsts []int64    // the index of each Start's first sample
	blocks [][]int32  // sampleBlock occupancies each; the first n are samples
	n      int64
}

// Len returns the number of samples.
func (s QueueSeries) Len() int { return int(s.n) }

// Sample returns the i-th sample's instant and queue occupancy in bytes.
func (s QueueSeries) Sample(i int) (at sim.Time, bytes int) {
	if i < 0 || int64(i) >= s.n {
		panic(fmt.Sprintf("trace: sample %d of a %d-sample series", i, s.n))
	}
	k, _ := slices.BinarySearch(s.firsts, int64(i)+1)
	k-- // the last Start at or before sample i
	at = s.starts[k].Add(sim.Duration(int64(i)-s.firsts[k]) * s.Every)
	return at, int(s.blocks[i/sampleBlock][i%sampleBlock])
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
	q.series.starts = append(q.series.starts, q.sched.Now())
	q.series.firsts = append(q.series.firsts, q.series.n)
	q.tick()
}

func (q *QueueSampler) tick() {
	s := &q.series
	if s.n == int64(len(s.blocks))*sampleBlock {
		s.blocks = append(s.blocks, make([]int32, sampleBlock))
	}
	b := q.port.QueueBytes() // SetBufferBytes may have grown the buffer NewQueueSampler checked
	check.AtMost("trace.sampler queue bytes", int64(b), math.MaxInt32)
	s.blocks[s.n/sampleBlock][s.n%sampleBlock] = int32(b)
	s.n++
	q.timer.Reset(s.Every)
}

// Stop halts sampling; collected samples remain available.
func (q *QueueSampler) Stop() { q.timer.Stop() }

// Series returns the collected samples, sharing the sampler's blocks.
func (q *QueueSampler) Series() QueueSeries { return q.series }
