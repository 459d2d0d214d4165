//! The shared TCP-family receiver.
//!
//! Reassembles arbitrary-order HCP (head) and LCP (tail) data into one
//! interval set, generates per-packet ACKs with exact SACK information,
//! applies the EWD two-for-one ACK coalescing to low-priority packets,
//! and reports flow completion the moment every byte is present.
//!
//! [`TcpRxTable`] is an endpoint's receivers: the flows still missing
//! bytes, and — apart from them — the completed ones, each shrunk to the
//! tombstone that ACKs a late duplicate the way the full state did.

use netsim::{Ctx, FlowId, HostId, Packet};
use ppt_core::LcpAckClock;

use crate::common::{FlowTable, IntervalSet, TableStats};
use crate::proto::{AckHdr, DataHdr, Proto};

/// Per-flow receiver state.
#[derive(Debug)]
pub struct TcpRx {
    flow: FlowId,
    /// The data sender (ACK destination).
    peer: HostId,
    size: u64,
    /// Which bytes arrived; emptied at completion, when it would say
    /// `[0, size)` for ever after.
    received: IntervalSet,
    completed: bool,
    lcp_clock: LcpAckClock,
    /// Pending SACK ranges for the next coalesced LCP ACK.
    lcp_pending: Vec<(u64, u64)>,
    /// 1 = ACK every LCP packet (RC3-style), 2 = EWD two-for-one.
    lcp_coalesce: u32,
}

impl TcpRx {
    /// New receiver state, learning the size from the first data packet.
    pub fn new(flow: FlowId, peer: HostId, size: u64, lcp_coalesce: u32) -> Self {
        assert!(lcp_coalesce >= 1, "lcp_coalesce of 0 would never send an ACK");
        TcpRx {
            flow,
            peer,
            size,
            received: IntervalSet::new(),
            completed: false,
            lcp_clock: LcpAckClock::new(),
            lcp_pending: Vec::new(),
            lcp_coalesce,
        }
    }

    /// All bytes present?
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Bytes received so far (deduplicated).
    pub fn received_bytes(&self) -> u64 {
        if self.completed {
            self.size
        } else {
            self.received.covered_bytes()
        }
    }

    /// The cumulative ACK point.
    fn cum(&self) -> u64 {
        if self.completed {
            self.size
        } else {
            self.received.contiguous_prefix()
        }
    }

    /// Handle a data packet addressed to this flow; emits ACK(s) and the
    /// completion notification through `ctx`.
    ///
    /// Not behind a simlint hot-path fence yet: every ACK still allocates
    /// its `sacks` vector (and clones the INT stack); the fence goes up
    /// when `AckHdr.sacks` goes inline (ROADMAP item 3, "Allocator-free
    /// `Proto`").
    pub fn on_data(&mut self, pkt: &Packet<Proto>, hdr: &DataHdr, ctx: &mut Ctx<'_, Proto>) {
        let start = hdr.offset;
        let end = hdr.offset + hdr.len as u64;

        let just_completed = !self.completed && {
            self.received.insert(start, end);
            self.received.covers(self.size)
        };
        if just_completed {
            debug_assert_eq!(self.received.covered_bytes(), self.size, "data past the flow's end");
            self.completed = true;
            // What is left is the tombstone: a duplicate still gets its ACK
            // (cum == size, the pending LCP SACKs and the EWD clock carry
            // on), but the byte map has nothing more to say.
            self.received = IntervalSet::new();
            ctx.flow_completed(self.flow);
        }

        if hdr.lcp && self.lcp_coalesce > 1 && !just_completed {
            // EWD: one low-priority ACK per two opportunistic packets.
            self.lcp_pending.push((start, end));
            if let Some(ece) = self.lcp_clock.on_data(pkt.ecn.ce) {
                let sacks = std::mem::take(&mut self.lcp_pending);
                self.send_ack(sacks, ece, pkt, hdr, ctx);
            }
        } else {
            // Per-packet ACK (HCP always; LCP when coalescing is off; and
            // the completing packet regardless, so the sender can finish).
            let mut sacks = vec![(start, end)];
            if hdr.lcp {
                sacks.append(&mut self.lcp_pending);
            }
            self.send_ack(sacks, pkt.ecn.ce, pkt, hdr, ctx);
        }
    }

    /// ACK the data packet `pkt`/`hdr`, echoing its timestamp and whatever
    /// INT stack the fabric stamped into it (HPCC, PowerTCP).
    fn send_ack(
        &self,
        sacks: Vec<(u64, u64)>,
        ece: bool,
        pkt: &Packet<Proto>,
        hdr: &DataHdr,
        ctx: &mut Ctx<'_, Proto>,
    ) {
        // HCP ACKs ride the control (highest) priority; LCP ACKs stay in
        // the low-priority band of their data (§3.2: "one low-priority
        // ACK"), so they cannot perturb normal traffic.
        let prio = if hdr.lcp { pkt.priority.max(4) } else { 0 };
        let ack = AckHdr {
            cum: self.cum(),
            sacks,
            ece,
            lcp: hdr.lcp,
            ts_echo: hdr.sent_at,
            int_echo: hdr.int.clone(),
        };
        let pkt =
            Packet::ctrl(self.flow, ctx.host(), self.peer, Proto::Ack(ack)).with_priority(prio);
        ctx.send(pkt);
    }
}

/// One endpoint's TCP-family receivers.
///
/// `live` holds the flows still missing bytes and is what a data packet
/// probes first. A receiver that completes moves — as the tombstone
/// [`TcpRx::on_data`] left — to `done`, which is only searched when `live`
/// misses: by a late duplicate, or once by the first packet of a new flow.
#[derive(Debug)]
pub struct TcpRxTable {
    /// 1 = ACK every LCP packet (RC3-style), 2 = EWD two-for-one.
    lcp_coalesce: u32,
    live: FlowTable<TcpRx>,
    done: FlowTable<TcpRx>,
}

impl TcpRxTable {
    /// No receivers yet; each will coalesce LCP ACKs `lcp_coalesce` to one.
    pub fn new(lcp_coalesce: u32) -> Self {
        TcpRxTable { lcp_coalesce, live: FlowTable::new(), done: FlowTable::new() }
    }

    /// Handle a data packet: the flow's receiver (created from the first
    /// packet, which carries the size) reassembles and ACKs it.
    pub fn on_data(&mut self, pkt: &Packet<Proto>, hdr: &DataHdr, ctx: &mut Ctx<'_, Proto>) {
        let flow = pkt.flow;
        let rx = match self.live.get_mut(flow) {
            Some(rx) => rx,
            None => {
                if let Some(tombstone) = self.done.get_mut(flow) {
                    return tombstone.on_data(pkt, hdr, ctx);
                }
                self.live.insert(flow, TcpRx::new(flow, pkt.src, hdr.msg_size, self.lcp_coalesce))
            }
        };
        rx.on_data(pkt, hdr, ctx);
        if rx.is_complete() {
            if let Some(tombstone) = self.live.retire(flow) {
                self.done.insert(flow, tombstone);
            }
        }
    }

    /// Occupancy of the live table (completed receivers are not in it).
    pub fn stats(&self) -> TableStats {
        self.live.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::host::Effects;
    use netsim::{Ecn, HostId, SimTime};

    fn data_pkt(
        flow: FlowId,
        offset: u64,
        len: u32,
        size: u64,
        lcp: bool,
        ce: bool,
    ) -> (Packet<Proto>, DataHdr) {
        let hdr = DataHdr {
            offset,
            len,
            msg_size: size,
            lcp,
            retx: false,
            sent_at: SimTime(5),
            int: None,
        };
        let mut pkt = Packet::data(flow, HostId(0), HostId(1), len, Proto::Data(hdr.clone()))
            .with_priority(if lcp { 4 } else { 0 });
        pkt.ecn = Ecn { capable: true, ce };
        (pkt, hdr)
    }

    /// Drive the receiver with a scratch Ctx and collect emitted ACKs.
    fn drive(
        rx: &mut TcpRx,
        packets: Vec<(Packet<Proto>, DataHdr)>,
    ) -> (Vec<AckHdr>, Vec<u8>, bool) {
        let mut acks = Vec::new();
        let mut prios = Vec::new();
        let mut completed = false;
        for (pkt, hdr) in packets {
            let mut effects = Effects::default();
            let mut ctx = Ctx::new(SimTime(10), HostId(1), &mut effects);
            rx.on_data(&pkt, &hdr, &mut ctx);
            let (pkts, _timers, done) = effects.into_parts();
            completed |= !done.is_empty();
            for p in pkts {
                prios.push(p.priority);
                if let Proto::Ack(a) = p.payload {
                    acks.push(a);
                }
            }
        }
        (acks, prios, completed)
    }

    #[test]
    fn hcp_packets_acked_individually_with_exact_sacks() {
        let flow = FlowId(1);
        let mut rx = TcpRx::new(flow, HostId(0), 4000, 2);
        let (acks, prios, done) = drive(
            &mut rx,
            vec![
                data_pkt(flow, 0, 1000, 4000, false, false),
                data_pkt(flow, 2000, 1000, 4000, false, true),
            ],
        );
        assert_eq!(acks.len(), 2);
        assert_eq!(acks[0].cum, 1000);
        assert_eq!(acks[0].sacks, vec![(0, 1000)]);
        assert!(!acks[0].ece);
        assert_eq!(acks[1].cum, 1000, "hole keeps cum at 1000");
        assert_eq!(acks[1].sacks, vec![(2000, 3000)]);
        assert!(acks[1].ece, "CE must echo as ECE");
        assert!(prios.iter().all(|&p| p == 0), "HCP ACKs ride P0");
        assert!(!done);
    }

    #[test]
    fn int_stack_is_echoed_with_the_timestamp() {
        let flow = FlowId(1);
        let mut rx = TcpRx::new(flow, HostId(0), 4000, 2);
        let (pkt, mut hdr) = data_pkt(flow, 0, 1000, 4000, false, false);
        let hop = crate::proto::IntHop {
            qlen_bytes: 7,
            qlen_high_bytes: 7,
            tx_bytes: 9,
            tx_high_bytes: 9,
            ts: SimTime(3),
            rate_bps: 10_000_000_000,
        };
        hdr.int = Some(vec![hop]);
        let (acks, prios, _) = drive(&mut rx, vec![(pkt, hdr)]);
        assert_eq!(prios, vec![0]);
        assert_eq!(acks[0].ts_echo, SimTime(5));
        let echoed = acks[0].int_echo.as_ref().expect("INT stack echoed");
        assert_eq!((echoed.len(), echoed[0].qlen_bytes, echoed[0].tx_bytes), (1, 7, 9));
    }

    #[test]
    fn lcp_packets_coalesce_two_to_one_with_both_sacks() {
        let flow = FlowId(2);
        let mut rx = TcpRx::new(flow, HostId(0), 100_000, 2);
        let (acks, prios, _) = drive(
            &mut rx,
            vec![
                data_pkt(flow, 98_000, 1000, 100_000, true, false),
                data_pkt(flow, 99_000, 1000, 100_000, true, true),
                data_pkt(flow, 97_000, 1000, 100_000, true, false),
            ],
        );
        // 3 LCP packets => exactly one ACK (for the first pair).
        assert_eq!(acks.len(), 1);
        assert!(acks[0].lcp);
        assert!(acks[0].ece, "CE on either packet of the pair sets ECE");
        assert_eq!(acks[0].sacks.len(), 2);
        assert!(prios.iter().all(|&p| p >= 4), "LCP ACKs stay low priority");
    }

    #[test]
    fn completing_packet_always_acks_even_if_lcp_odd() {
        let flow = FlowId(3);
        let mut rx = TcpRx::new(flow, HostId(0), 2000, 2);
        let (_, _, done1) = drive(&mut rx, vec![data_pkt(flow, 0, 1000, 2000, false, false)]);
        assert!(!done1);
        // The final byte arrives as a single (odd) LCP packet: the
        // completion must be reported immediately, not after a pair.
        let (_, _, done2) = drive(&mut rx, vec![data_pkt(flow, 1000, 1000, 2000, true, false)]);
        assert!(done2, "completion must not wait for the EWD pair");
        assert!(rx.is_complete());
        assert_eq!(rx.received_bytes(), 2000);
    }

    #[test]
    fn duplicate_data_does_not_double_count() {
        let flow = FlowId(4);
        let mut rx = TcpRx::new(flow, HostId(0), 3000, 1);
        drive(
            &mut rx,
            vec![
                data_pkt(flow, 0, 1000, 3000, false, false),
                data_pkt(flow, 0, 1000, 3000, false, false),
            ],
        );
        assert_eq!(rx.received_bytes(), 1000);
    }

    /// A completed receiver leaves the live table, and its tombstone ACKs
    /// late duplicates exactly as the full state did: `cum` stays at the
    /// size, an HCP duplicate is ACKed at once, LCP duplicates keep to the
    /// EWD two-for-one clock — and nothing completes, or is created, twice.
    #[test]
    fn a_completed_receiver_retires_to_a_tombstone_that_still_acks() {
        use crate::common::testkit;
        let mut rxs = TcpRxTable::new(2);
        let feed = |rxs: &mut TcpRxTable, (pkt, hdr): (Packet<Proto>, DataHdr)| {
            testkit::drive(SimTime(10), HostId(1), |ctx| rxs.on_data(&pkt, &hdr, ctx))
        };
        let data = |flow: u64, offset: u64, len: u32, size: u64, lcp: bool| {
            data_pkt(FlowId(flow), offset, len, size, lcp, false)
        };

        let first = feed(&mut rxs, data(7, 0, 1000, 2000, false));
        assert!(first.completed.is_empty());
        assert_eq!(rxs.stats(), TableStats { live: 1, high_water: 1 });
        let last = feed(&mut rxs, data(7, 1000, 1000, 2000, false));
        assert_eq!(last.completed, vec![FlowId(7)]);
        assert_eq!(last.acks()[0].cum, 2000);
        assert_eq!(rxs.stats(), TableStats { live: 0, high_water: 1 });
        assert_eq!(rxs.done.get(FlowId(7)).map(TcpRx::received_bytes), Some(2000));

        // A late HCP duplicate: one ACK, full cum, the duplicate's SACK.
        let dup = feed(&mut rxs, data(7, 0, 1000, 2000, false));
        assert!(dup.completed.is_empty(), "a flow completes once");
        let acks = dup.acks();
        assert_eq!(acks.len(), 1);
        assert_eq!((acks[0].cum, &acks[0].sacks), (2000, &vec![(0, 1000)]));
        assert_eq!(dup.packets[0].dst, HostId(0), "ACKs still go to the sender");

        // Late LCP duplicates: one ACK per two, carrying both SACKs.
        let odd = feed(&mut rxs, data(7, 1000, 500, 2000, true));
        assert!(odd.nothing(), "the first of an EWD pair is held: {odd:?}");
        let even = feed(&mut rxs, data(7, 1500, 500, 2000, true));
        let acks = even.acks();
        assert_eq!(acks.len(), 1);
        assert!(acks[0].lcp && acks[0].cum == 2000);
        assert_eq!(acks[0].sacks, vec![(1000, 1500), (1500, 2000)]);

        // None of that made a receiver, and the slot serves the next flow.
        assert_eq!(rxs.stats(), TableStats { live: 0, high_water: 1 });
        feed(&mut rxs, data(8, 0, 1000, 5000, false));
        assert_eq!(rxs.stats(), TableStats { live: 1, high_water: 1 });
    }
}
