// Package trace provides the observation instruments the paper built from
// tcp_probe/Kprobes and switch counters: per-ACK congestion-window probes
// (for the Fig. 2 cwnd frequency distributions), and periodic queue-length
// samplers on switch ports (for the Fig. 9 CDFs and the Fig. 14 time
// series, both sampled every 100us in the paper).
package trace

import (
	"math"
	"slices"

	"dctcpplus/internal/netsim"
	"dctcpplus/internal/sim"
	"dctcpplus/internal/stats"
	"dctcpplus/internal/tcp"
)

// CwndProbe records the congestion window (in whole MSS) observed at every
// ACK on one sender — the tcp_probe analog. Attach installs it on the
// sender's OnAckProbe hook, chaining any previously installed hook.
type CwndProbe struct {
	hist *stats.Hist

	// eceAtMin counts ACK events where the window sat at (or below) the
	// configured floor while ECE was set — the Fig. 2/Table I coincidence.
	eceAtMin int64
	events   int64
}

// NewCwndProbe returns an empty probe.
func NewCwndProbe() *CwndProbe {
	return &CwndProbe{hist: stats.NewHist()}
}

// Attach hooks the probe onto the sender.
func (p *CwndProbe) Attach(s *tcp.Sender) {
	prev := s.OnAckProbe
	s.OnAckProbe = func(snd *tcp.Sender, ece bool) {
		p.Observe(snd, ece)
		if prev != nil {
			prev(snd, ece)
		}
	}
}

// Observe records one ACK event.
func (p *CwndProbe) Observe(s *tcp.Sender, ece bool) {
	w := int(math.Round(s.CwndMSS()))
	if w < 1 {
		w = 1
	}
	p.hist.Add(w)
	p.events++
	if ece && s.CwndMSS() <= s.MinCwndMSS() {
		p.eceAtMin++
	}
}

// Hist returns the cwnd frequency histogram (bins in MSS).
func (p *CwndProbe) Hist() *stats.Hist { return p.hist }

// Events returns the number of ACKs observed.
func (p *CwndProbe) Events() int64 { return p.events }

// ECEAtMin returns the number of ACK events with the window pinned at the
// floor while ECE was set.
func (p *CwndProbe) ECEAtMin() int64 { return p.eceAtMin }

// ECEAtMinFrac returns the fraction of ACK events with the window pinned
// at the floor while ECE was set.
func (p *CwndProbe) ECEAtMinFrac() float64 {
	if p.events == 0 {
		return 0
	}
	return float64(p.eceAtMin) / float64(p.events)
}

// QueueSample is one timestamped queue-occupancy observation.
type QueueSample struct {
	At    sim.Time
	Bytes int
}

// sampleBlock is how many samples one storage block holds: 4,096 × 16 B =
// 64 KiB. Blocks are allocated as sampling reaches them and never copied
// once filled, so a run pays one allocation per block rather than a slice
// regrown (and copied) every few thousand ticks.
const sampleBlock = 4096

// QueueSampler periodically samples a switch port's queue occupancy, like
// the paper's "collect the instant queue length every 100us on Switch 1".
// It re-arms one bound sim.Timer per tick, so sampling allocates per block,
// not per tick.
type QueueSampler struct {
	sched    *sim.Scheduler
	port     *netsim.Port
	interval sim.Duration
	timer    sim.Timer
	blocks   [][]QueueSample // each of capacity sampleBlock, all but the last full
	flat     []QueueSample   // Samples' concatenation; nil until asked for after a tick
}

// NewQueueSampler creates a sampler for port at the given interval
// (100us in the paper). Call Start to begin.
func NewQueueSampler(sched *sim.Scheduler, port *netsim.Port, interval sim.Duration) *QueueSampler {
	if interval <= 0 {
		panic("trace: sampler interval must be positive")
	}
	q := &QueueSampler{sched: sched, port: port, interval: interval}
	q.timer.Init(sched, q.tick)
	return q
}

// Start begins periodic sampling from the current instant.
func (q *QueueSampler) Start() {
	if q.timer.Armed() {
		return
	}
	q.tick()
}

func (q *QueueSampler) tick() {
	if len(q.blocks) == 0 || len(q.blocks[len(q.blocks)-1]) == sampleBlock {
		q.blocks = append(q.blocks, make([]QueueSample, 0, sampleBlock))
	}
	last := &q.blocks[len(q.blocks)-1]
	*last = append(*last, QueueSample{At: q.sched.Now(), Bytes: q.port.QueueBytes()})
	q.flat = nil
	q.timer.Reset(q.interval)
}

// Stop halts sampling; collected samples remain available.
func (q *QueueSampler) Stop() { q.timer.Stop() }

// Samples returns the collected time series. The blocks are concatenated
// into one exactly-sized slice on the first call after a tick, and that
// slice is returned again until sampling adds to it.
func (q *QueueSampler) Samples() []QueueSample {
	if q.flat == nil {
		q.flat = slices.Concat(q.blocks...)
	}
	return q.flat
}

// Values returns the occupancies as float64s (bytes), for CDF building.
func (q *QueueSampler) Values() []float64 {
	samples := q.Samples()
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.Bytes)
	}
	return out
}

// CDF builds the empirical CDF of the sampled occupancies.
func (q *QueueSampler) CDF() *stats.CDF { return stats.NewCDF(q.Values()) }
