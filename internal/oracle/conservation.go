package oracle

import (
	"fmt"

	"dctcpplus/internal/netsim"
)

// auditConservation balances the whole-network packet and byte ledger over
// the attached two-tier testbed: every packet accepted into a host uplink
// must end up delivered at some host, tail-dropped at a switch port, or
// destroyed by a link fault (loss or blackhole). Packets rejected at
// enqueue never enter the ledger (they are counted as drops, not enqueues),
// and the books only balance on a drained network, so Finish gates this on
// the caller's drained flag. A residual packet sitting in some queue is
// itself reported: conservation on a drained network also means empty
// queues everywhere.
//
// The pool ledger closes the books on the packets themselves: on a drained
// network every packet the pool ever minted is back on its freelist, so
// the two counts must be equal. A packet dropped without Put (a leak)
// leaves the freelist short, whichever run leaked it: a reused tree's
// reset returns the packets still in flight at the previous halt.
func (c *Checker) auditConservation(tt *netsim.TwoTier) {
	now := c.sched.Now()
	hosts := append([]*netsim.Host{tt.Aggregator}, tt.Workers...)
	var allPorts []*netsim.Port
	var injectedPkts, injectedBytes, deliveredPkts, deliveredBytes int64
	for _, h := range hosts {
		s := h.Uplink().Stats()
		injectedPkts += s.EnqueuedPkts
		injectedBytes += s.EnqueuedBytes
		deliveredPkts += h.DeliveredPkts()
		deliveredBytes += h.DeliveredBytes()
		allPorts = append(allPorts, h.Uplink())
	}
	var droppedPkts, droppedBytes int64
	for _, sw := range append([]*netsim.Switch{tt.Root}, tt.Leaves...) {
		for _, p := range sw.Ports() {
			s := p.Stats()
			droppedPkts += s.DroppedPkts
			droppedBytes += s.DroppedBytes
			allPorts = append(allPorts, p)
		}
	}
	var lostPkts, lostBytes int64
	for _, p := range allPorts {
		l := p.Link()
		lostPkts += l.Lost() + l.Blackholed()
		lostBytes += l.LostBytes() + l.BlackholedBytes()
		if p.QueueLen() != 0 {
			c.report("conservation", 0, now, fmt.Sprintf(
				"port still holds %d packets (%d bytes) on a drained network", p.QueueLen(), p.QueueBytes()))
		}
	}

	if injectedPkts != deliveredPkts+droppedPkts+lostPkts {
		c.report("conservation", 0, now, fmt.Sprintf(
			"packet ledger unbalanced: enqueued %d != delivered %d + dropped %d + destroyed %d",
			injectedPkts, deliveredPkts, droppedPkts, lostPkts))
	}
	if injectedBytes != deliveredBytes+droppedBytes+lostBytes {
		c.report("conservation", 0, now, fmt.Sprintf(
			"byte ledger unbalanced: enqueued %d != delivered %d + dropped %d + destroyed %d",
			injectedBytes, deliveredBytes, droppedBytes, lostBytes))
	}
	pool := tt.Pool()
	if minted, free := pool.Minted(), pool.FreeLen(); minted != free {
		c.report("conservation", 0, now, fmt.Sprintf(
			"pool ledger unbalanced: minted %d packets but holds %d on its freelist", minted, free))
	}
}
