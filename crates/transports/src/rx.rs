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
use crate::proto::{AckHdr, DataHdr, Proto, SackBlocks};

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
    lcp_pending: SackBlocks,
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
            lcp_pending: SackBlocks::default(),
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

    // simlint: hot-path
    /// Handle a data packet addressed to this flow — `hdr`, which arrived
    /// CE-marked or not at `priority` — and emit ACK(s) and the completion
    /// notification through `ctx`. Takes the packet's INT stack for the ACK.
    pub fn on_data(&mut self, hdr: &mut DataHdr, ce: bool, priority: u8, ctx: &mut Ctx<'_, Proto>) {
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
            if let Some(ece) = self.lcp_clock.on_data(ce) {
                let sacks = std::mem::take(&mut self.lcp_pending);
                self.send_ack(sacks, ece, hdr, priority, ctx);
            }
        } else {
            // Per-packet ACK (HCP always; LCP when coalescing is off; and
            // the completing packet regardless, so the sender can finish).
            let mut sacks = SackBlocks::from([(start, end)]);
            if hdr.lcp {
                for &held in &std::mem::take(&mut self.lcp_pending) {
                    sacks.push(held);
                }
            }
            self.send_ack(sacks, ce, hdr, priority, ctx);
        }
    }

    /// ACK the data packet `hdr`, echoing its timestamp and handing back
    /// whatever INT stack the fabric stamped into it (HPCC, PowerTCP).
    fn send_ack(
        &self,
        sacks: SackBlocks,
        ece: bool,
        hdr: &mut DataHdr,
        priority: u8,
        ctx: &mut Ctx<'_, Proto>,
    ) {
        // HCP ACKs ride the control (highest) priority; LCP ACKs stay in
        // the low-priority band of their data (§3.2: "one low-priority
        // ACK"), so they cannot perturb normal traffic.
        let prio = if hdr.lcp { priority.max(4) } else { 0 };
        let ack = AckHdr {
            cum: self.cum(),
            sacks,
            ece,
            lcp: hdr.lcp,
            ts_echo: hdr.sent_at,
            int_echo: hdr.int.take(),
        };
        let pkt =
            Packet::ctrl(self.flow, ctx.host(), self.peer, Proto::Ack(ack)).with_priority(prio);
        ctx.send(pkt);
    }
    // simlint: hot-path-end
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

    // simlint: hot-path
    /// Handle a data packet: the flow's receiver (created from the first
    /// packet, which carries the size) reassembles and ACKs it. The packet
    /// is the endpoint's to consume: its INT stack leaves with the ACK.
    pub fn on_data(&mut self, pkt: &mut Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let Packet { flow, src, ecn, priority, hop_telemetry, payload: Proto::Data(hdr), .. } = pkt
        else {
            unreachable!("a TCP-family receiver is handed data packets only");
        };
        let (flow, ce, priority) = (*flow, ecn.ce, *priority);
        if *hop_telemetry {
            // Echoed even when no switch stamped it: the INT laws act on an
            // empty echo too.
            hdr.int.get_or_insert_default();
        }
        let rx = match self.live.get_mut(flow) {
            Some(rx) => rx,
            None => {
                if let Some(tombstone) = self.done.get_mut(flow) {
                    return tombstone.on_data(hdr, ce, priority, ctx);
                }
                self.live.insert(flow, TcpRx::new(flow, *src, hdr.msg_size, self.lcp_coalesce))
            }
        };
        rx.on_data(hdr, ce, priority, ctx);
        if rx.is_complete() {
            if let Some(tombstone) = self.live.retire(flow) {
                self.done.insert(flow, tombstone);
            }
        }
    }
    // simlint: hot-path-end

    /// Occupancy of the live table (completed receivers are not in it).
    pub fn stats(&self) -> TableStats {
        self.live.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{IntHop, IntStack, MAX_SACK_BLOCKS};
    use netsim::host::Effects;
    use netsim::{Ecn, HostId, SimTime};

    fn data_pkt(
        flow: FlowId,
        offset: u64,
        len: u32,
        size: u64,
        lcp: bool,
        ce: bool,
    ) -> Packet<Proto> {
        let hdr = DataHdr {
            offset,
            len,
            msg_size: size,
            lcp,
            retx: false,
            sent_at: SimTime(5),
            int: None,
        };
        let mut pkt = Packet::data(flow, HostId(0), HostId(1), len, Proto::Data(hdr))
            .with_priority(if lcp { 4 } else { 0 });
        pkt.ecn = Ecn { capable: true, ce };
        pkt
    }

    /// Drive the receiver with a scratch Ctx and collect emitted ACKs.
    fn drive(rx: &mut TcpRx, packets: Vec<Packet<Proto>>) -> (Vec<AckHdr>, Vec<u8>, bool) {
        let mut acks = Vec::new();
        let mut prios = Vec::new();
        let mut completed = false;
        for mut pkt in packets {
            let mut effects = Effects::default();
            let mut ctx = Ctx::new(SimTime(10), HostId(1), &mut effects);
            let Proto::Data(hdr) = &mut pkt.payload else { unreachable!() };
            rx.on_data(hdr, pkt.ecn.ce, pkt.priority, &mut ctx);
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
        assert_eq!(acks[0].sacks[..], [(0, 1000)]);
        assert!(!acks[0].ece);
        assert_eq!(acks[1].cum, 1000, "hole keeps cum at 1000");
        assert_eq!(acks[1].sacks[..], [(2000, 3000)]);
        assert!(acks[1].ece, "CE must echo as ECE");
        assert!(prios.iter().all(|&p| p == 0), "HCP ACKs ride P0");
        assert!(!done);
    }

    /// The ACK carries the very stack the data packet arrived with — the
    /// sender's allocation, moved — and the packet is left without one.
    #[test]
    fn int_stack_is_echoed_with_the_timestamp() {
        let flow = FlowId(1);
        let mut rxs = TcpRxTable::new(2);
        let mut pkt = data_pkt(flow, 0, 1000, 4000, false, false);
        let hop = IntHop { qlen_bytes: 7, tx_bytes: 9, ts: SimTime(3), ..IntHop::default() };
        let stack: Box<IntStack> = Box::new([hop].into_iter().collect());
        let sent: *const IntStack = &*stack;
        let Proto::Data(hdr) = &mut pkt.payload else { unreachable!() };
        hdr.int = Some(stack);
        let did = crate::common::testkit::drive(SimTime(10), HostId(1), |ctx| {
            rxs.on_data(&mut pkt, ctx);
        });
        assert!(matches!(&pkt.payload, Proto::Data(hdr) if hdr.int.is_none()));
        assert_eq!(did.packets[0].priority, 0);
        let Proto::Ack(ack) = &did.packets[0].payload else { unreachable!() };
        assert_eq!(ack.ts_echo, SimTime(5));
        let echoed = ack.int_echo.as_deref().expect("INT stack echoed");
        assert!(std::ptr::eq(echoed, sent), "the echo must be the sender's stack, not a copy");
        assert_eq!((echoed.len(), echoed[0].qlen_bytes, echoed[0].tx_bytes), (1, 7, 9));

        // The flag, not the stack, says whether to echo: a hop-telemetry
        // packet no switch stamped gets an empty echo, any other none.
        for (offset, flagged) in [(1000, true), (2000, false)] {
            let mut pkt = data_pkt(flow, offset, 1000, 4000, false, false);
            pkt.hop_telemetry = flagged;
            let did = crate::common::testkit::drive(SimTime(10), HostId(1), |ctx| {
                rxs.on_data(&mut pkt, ctx);
            });
            let echo = did.acks()[0].int_echo.as_ref().map(|stack| stack.len());
            assert_eq!(echo, flagged.then_some(0), "flagged: {flagged}");
        }
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

    /// However HCP, LCP, duplicate and completing packets interleave, with
    /// EWD coalescing or without, no ACK outgrows its inline blocks (adding
    /// one too many panics; the count of ACKs at the limit is informative),
    /// and every range a receiver held is sent exactly once.
    #[test]
    fn no_ack_overflows_its_inline_sack_blocks_seeded() {
        let mss = 1_000u64;
        let mut most = 0;
        for seed in 0..32u64 {
            let mut rng = netsim::Pcg32::seed_from_u64(seed);
            let size = (4 + rng.gen_range(12)) * mss;
            let mut rx = TcpRx::new(FlowId(seed), HostId(0), size, 1 + (seed % 2) as u32);
            let (mut sent, mut acked) = (0usize, 0usize);
            // Long enough to complete the flow and keep poking its tombstone.
            for _ in 0..200 {
                let offset = rng.gen_range(size / mss) * mss;
                let lcp = rng.gen_index(3) > 0;
                let pkt = data_pkt(FlowId(seed), offset, 1000, size, lcp, false);
                let (acks, _, _) = drive(&mut rx, vec![pkt]);
                sent += 1;
                for ack in &acks {
                    assert_eq!(ack.lcp, lcp);
                    acked += ack.sacks.len();
                    most = most.max(ack.sacks.len());
                }
            }
            assert!(rx.is_complete(), "seed {seed}");
            assert_eq!(sent, acked + rx.lcp_pending.len(), "seed {seed}: a range per packet");
        }
        assert!((2..=MAX_SACK_BLOCKS).contains(&most), "largest ACK carried {most} blocks");
    }

    /// A completed receiver leaves the live table, and its tombstone ACKs
    /// late duplicates exactly as the full state did: `cum` stays at the
    /// size, an HCP duplicate is ACKed at once, LCP duplicates keep to the
    /// EWD two-for-one clock — and nothing completes, or is created, twice.
    #[test]
    fn a_completed_receiver_retires_to_a_tombstone_that_still_acks() {
        use crate::common::testkit;
        let mut rxs = TcpRxTable::new(2);
        let feed = |rxs: &mut TcpRxTable, mut pkt: Packet<Proto>| {
            testkit::drive(SimTime(10), HostId(1), |ctx| rxs.on_data(&mut pkt, ctx))
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
        assert_eq!((acks[0].cum, &acks[0].sacks[..]), (2000, &[(0, 1000)][..]));
        assert_eq!(dup.packets[0].dst, HostId(0), "ACKs still go to the sender");

        // Late LCP duplicates: one ACK per two, carrying both SACKs.
        let odd = feed(&mut rxs, data(7, 1000, 500, 2000, true));
        assert!(odd.nothing(), "the first of an EWD pair is held: {odd:?}");
        let even = feed(&mut rxs, data(7, 1500, 500, 2000, true));
        let acks = even.acks();
        assert_eq!(acks.len(), 1);
        assert!(acks[0].lcp && acks[0].cum == 2000);
        assert_eq!(acks[0].sacks[..], [(1000, 1500), (1500, 2000)]);

        // None of that made a receiver, and the slot serves the next flow.
        assert_eq!(rxs.stats(), TableStats { live: 0, high_water: 1 });
        feed(&mut rxs, data(8, 0, 1000, 5000, false));
        assert_eq!(rxs.stats(), TableStats { live: 1, high_water: 1 });
    }
}
