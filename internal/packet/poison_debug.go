//go:build checkdebug

package packet

import "dctcpplus/internal/check"

// Debug-build poison for the pool freelist, mirroring the static typestate
// rules at runtime (see internal/check.Debug): Put scrambles the recycled
// packet's sequence number to a sentinel and preserves its flow ID, so a
// use-after-free read is unmistakable in traces and a double free panics
// naming the offending flow. Get clears the poison so callers still see
// the documented zeroed packet.

// poisonSeq is the freelist sentinel. It is negative and far outside any
// real sequence space (senders count up from 0), so no live packet can
// collide with it.
const poisonSeq int64 = -0x6B6B6B6B6B6B

// poolPoisonCheck panics if pkt is already on the freelist: its Seq still
// carries the poison sentinel, and its Flow the flow that freed it first.
func poolPoisonCheck(pkt *Packet) {
	if pkt.Seq == poisonSeq {
		check.Failf("packet double free: flow %d freed the same packet twice (seq carries freelist poison %d)",
			int32(pkt.Flow), poisonSeq)
	}
}

// poolPoisonArm marks a just-zeroed freelist packet: sentinel sequence,
// original flow preserved for the double-free diagnostic.
func poolPoisonArm(pkt *Packet, flow FlowID) {
	pkt.Seq = poisonSeq
	pkt.Flow = flow
}

// poolPoisonClear restores the zeroed state Get promises.
func poolPoisonClear(pkt *Packet) {
	pkt.Seq = 0
	pkt.Flow = 0
}
