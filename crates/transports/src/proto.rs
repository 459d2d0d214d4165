//! The wire header carried by every packet, shared by all transports.
//!
//! One enum covers every implemented protocol family so a whole experiment
//! runs on `Simulator<Proto>`. Only the INT stack of a packet sent
//! `with_hop_telemetry` (HPCC, PowerTCP) has switch-visible behaviour
//! (per-hop telemetry collection); everything else is opaque to the
//! network.

use netsim::{HopTelemetry, Payload, SimTime};

/// Maximum INT hops recorded (host→leaf→spine→leaf→host has 4 egresses).
pub const MAX_INT_HOPS: usize = 5;

/// One INT record, as stamped by an HPCC-capable switch.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHop {
    /// Egress queue backlog at enqueue, bytes.
    pub qlen_bytes: u64,
    /// Backlog of the high-priority band (P0–P3) only.
    pub qlen_high_bytes: u64,
    /// Cumulative bytes transmitted on the egress link.
    pub tx_bytes: u64,
    /// Cumulative high-priority-band bytes transmitted.
    pub tx_high_bytes: u64,
    /// Stamp time.
    pub ts: SimTime,
    /// Egress link rate, bits per second.
    pub rate_bps: u64,
}

/// A packet's INT records, one per switch egress it crossed, oldest first;
/// reads as a slice.
///
/// The headers hold it as one thin `Box` (8 bytes where a `Vec` took 24):
/// allocated at the packet's first switch, filled in place by the rest,
/// *moved* by the receiver into the ACK, and freed where that ACK lands.
/// Only a packet built `with_hop_telemetry` collects one. Never inline in
/// the header — a 300-byte `Proto` is moved several times per packet.
#[derive(Clone, Debug, Default)]
pub struct IntStack {
    hops: [IntHop; MAX_INT_HOPS],
    len: u8,
}

impl IntStack {
    /// Record one more hop; a full stack ignores it.
    pub fn push(&mut self, hop: IntHop) {
        if let Some(slot) = self.hops.get_mut(self.len as usize) {
            *slot = hop;
            self.len += 1;
        }
    }
}

impl std::ops::Deref for IntStack {
    type Target = [IntHop];
    fn deref(&self) -> &[IntHop] {
        &self.hops[..self.len as usize]
    }
}

impl std::ops::DerefMut for IntStack {
    fn deref_mut(&mut self) -> &mut [IntHop] {
        &mut self.hops[..self.len as usize]
    }
}

impl FromIterator<IntHop> for IntStack {
    fn from_iter<I: IntoIterator<Item = IntHop>>(hops: I) -> Self {
        let mut stack = IntStack::default();
        hops.into_iter().for_each(|hop| stack.push(hop));
        stack
    }
}

/// Most SACK blocks one ACK carries. An EWD ACK carries the ranges of the
/// packets it coalesces; any other carries the segment that triggered it
/// and — a flow's completing packet — what EWD held short of a full ACK.
pub const MAX_SACK_BLOCKS: usize = ppt_core::LCP_PACKETS_PER_ACK as usize;

/// An ACK's SACK blocks, held inline so that building an ACK allocates
/// nothing. Reads as a slice of `(start, end)` byte ranges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackBlocks {
    blocks: [(u64, u64); MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// Add a block. A receiver never holds more than [`MAX_SACK_BLOCKS`]
    /// for one ACK; one that would is a bug in it.
    pub fn push(&mut self, block: (u64, u64)) {
        assert!((self.len as usize) < MAX_SACK_BLOCKS, "an ACK with over {MAX_SACK_BLOCKS} blocks");
        self.blocks[self.len as usize] = block;
        self.len += 1;
    }
}

impl std::ops::Deref for SackBlocks {
    type Target = [(u64, u64)];
    fn deref(&self) -> &[(u64, u64)] {
        &self.blocks[..self.len as usize]
    }
}

impl std::ops::DerefMut for SackBlocks {
    fn deref_mut(&mut self) -> &mut [(u64, u64)] {
        &mut self.blocks[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a SackBlocks {
    type Item = &'a (u64, u64);
    type IntoIter = std::slice::Iter<'a, (u64, u64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const N: usize> From<[(u64, u64); N]> for SackBlocks {
    fn from(blocks: [(u64, u64); N]) -> Self {
        let mut out = SackBlocks::default();
        blocks.into_iter().for_each(|b| out.push(b));
        out
    }
}

/// TCP-family data header (DCTCP, PPT, RC3, PIAS, Swift, HPCC).
#[derive(Clone, Debug)]
pub struct DataHdr {
    /// First byte carried.
    pub offset: u64,
    /// Payload length.
    pub len: u32,
    /// Total message size (receivers learn it from any packet).
    pub msg_size: u64,
    /// True for opportunistic (LCP / RC3 low-priority) packets.
    pub lcp: bool,
    /// True for retransmissions (diagnostics).
    pub retx: bool,
    /// Send timestamp, echoed by the ACK for RTT sampling.
    pub sent_at: SimTime,
    /// The hops stamped so far, for a packet sent `with_hop_telemetry`
    /// (HPCC and PowerTCP data): none until its first switch.
    pub int: Option<Box<IntStack>>,
}

/// TCP-family ACK header.
#[derive(Clone, Debug)]
pub struct AckHdr {
    /// Bytes received contiguously from offset 0.
    pub cum: u64,
    /// Selectively acknowledged ranges (the segment(s) triggering this ACK).
    pub sacks: SackBlocks,
    /// ECN echo of the acked data packet(s).
    pub ece: bool,
    /// True for low-priority (LCP) ACKs.
    pub lcp: bool,
    /// Echo of the data packet's send timestamp (RTT sampling).
    pub ts_echo: SimTime,
    /// The data packet's INT stack, handed back (HPCC, PowerTCP).
    pub int_echo: Option<Box<IntStack>>,
}

/// Receiver-driven header (NDP, Homa, Aeolus, ExpressPass; `pull.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PullHdr {
    /// Data. An NDP switch may trim it: it then arrives with
    /// `Packet::trimmed == true` and no payload.
    Data { offset: u64, len: u32, msg_size: u64 },
    /// Receiver-paced: the sender may release one more packet (NDP's
    /// pull, ExpressPass's credit).
    Pull,
    /// The sender may transmit up to `granted_offset` at priority `prio`
    /// (Homa).
    Grant { granted_offset: u64, prio: u8 },
    /// The receiver asks for `[offset, offset + len)` again (NDP's NACK,
    /// Homa's RESEND, ExpressPass's NACK).
    Resend { offset: u64, len: u32 },
    /// Trails Aeolus's unscheduled burst, and is any sender's retry until
    /// its receiver is heard from: how many unscheduled bytes were sent,
    /// so lost ones are requested at once.
    Probe { unscheduled_sent: u64, msg_size: u64 },
    /// A completed receiver's answer to a probe.
    Done,
    /// ExpressPass: a `msg_size`-byte message asks for credits; `retry`
    /// when the sender has had none since its last request.
    Request { msg_size: u64, retry: bool },
}

/// The union header.
#[derive(Clone, Debug)]
pub enum Proto {
    Data(DataHdr),
    Ack(AckHdr),
    Pull(PullHdr),
}

// A packet is stored once, in the engine's pool, but it is still moved by
// value from a transport into it and out again: keep it two cache lines.
const _: () = assert!(std::mem::size_of::<netsim::Packet<Proto>>() <= 128, "Packet<Proto> grew");

impl Payload for Proto {
    fn on_switch_hop(&mut self, hop: HopTelemetry) {
        if let Proto::Data(DataHdr { int, .. }) = self {
            int.get_or_insert_default().push(IntHop {
                qlen_bytes: hop.qlen_bytes,
                qlen_high_bytes: hop.qlen_high_bytes,
                tx_bytes: hop.tx_bytes,
                tx_high_bytes: hop.tx_high_bytes,
                ts: hop.ts,
                rate_bps: hop.link_rate.bits_per_sec(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Rate;

    fn data() -> Proto {
        Proto::Data(DataHdr {
            offset: 0,
            len: 100,
            msg_size: 100,
            lcp: false,
            retx: false,
            sent_at: SimTime::ZERO,
            int: None,
        })
    }

    fn hop(qlen_bytes: u64) -> HopTelemetry {
        HopTelemetry {
            qlen_bytes,
            qlen_high_bytes: 80,
            tx_bytes: 5_000,
            tx_high_bytes: 4_000,
            ts: SimTime(1),
            link_rate: Rate::gbps(40),
        }
    }

    /// A data packet holds no stack until its first switch, which
    /// allocates it; an ACK has nowhere to stamp a hop.
    #[test]
    fn int_stack_is_allocated_at_the_first_hop_and_grows_per_hop() {
        let mut p = data();
        assert!(matches!(&p, Proto::Data(d) if d.int.is_none()));
        p.on_switch_hop(hop(100));
        p.on_switch_hop(hop(200));
        let Proto::Data(d) = &mut p else { unreachable!() };
        let stack = d.int.take().expect("a stamped packet hands its stack over");
        assert_eq!(stack.iter().map(|h| h.qlen_bytes).collect::<Vec<_>>(), [100, 200]);
        assert_eq!((stack[0].rate_bps, stack[0].tx_high_bytes), (40_000_000_000, 4_000));

        let ack = AckHdr {
            cum: 0,
            sacks: SackBlocks::default(),
            ece: false,
            lcp: false,
            ts_echo: SimTime::ZERO,
            int_echo: None,
        };
        let mut p = Proto::Ack(ack);
        p.on_switch_hop(hop(100));
        assert!(matches!(&p, Proto::Ack(a) if a.int_echo.is_none()));
    }

    /// Hops keep their order, one by one up to the cap; slices and their
    /// mutable twins agree.
    #[test]
    fn int_stack_caps_depth() {
        let mut p = data();
        for n in 0..20 {
            p.on_switch_hop(hop(n));
            let Proto::Data(DataHdr { int: Some(stack), .. }) = &mut p else { unreachable!() };
            let expect: Vec<u64> = (0..=n.min(MAX_INT_HOPS as u64 - 1)).collect();
            assert_eq!(stack.iter().map(|h| h.qlen_bytes).collect::<Vec<_>>(), expect);
            assert_eq!(stack.iter_mut().map(|h| h.qlen_bytes).collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "an ACK with over 2 blocks")]
    fn a_sack_block_too_many_is_a_bug() {
        let mut blocks = SackBlocks::from([(0, 1), (2, 3)]);
        assert_eq!((blocks.len(), blocks[1]), (2, (2, 3)));
        blocks.push((4, 5));
    }
}
