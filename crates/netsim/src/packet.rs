//! Packets and protocol payloads.
//!
//! The simulator is generic over the protocol header carried by each packet:
//! transports define their own header type and implement [`Payload`] for it.
//! `netsim` itself only interprets the fields it needs for forwarding —
//! destination, priority, wire size, ECN bits and trimmability.

use crate::ids::{FlowId, HostId};
use crate::time::SimTime;
use crate::units::Rate;

/// Ethernet + IP + TCP-ish header overhead modelled on every packet, bytes.
pub const HEADER_BYTES: u32 = 40;
/// Maximum transmission unit (wire size), bytes.
pub const MTU_BYTES: u32 = 1500;
/// Maximum segment size: payload bytes per full packet.
pub const MSS_BYTES: u32 = MTU_BYTES - HEADER_BYTES;
/// Wire size of a payload-less control packet (ACK, grant, pull, ...).
pub const CTRL_BYTES: u32 = HEADER_BYTES;
/// Wire size of a trimmed (payload-removed) data packet.
pub const TRIMMED_BYTES: u32 = 64;

/// Number of strict priority levels at every port (P0 highest .. P7 lowest).
pub const NUM_PRIORITIES: usize = 8;

/// Per-hop telemetry handed to [`Payload::on_switch_hop`] when a packet is
/// enqueued at a switch egress port. This is the information an INT-capable
/// switch (as assumed by HPCC) exposes.
#[derive(Clone, Copy, Debug)]
pub struct HopTelemetry {
    /// Queue backlog (all priorities) at the egress port, bytes.
    pub qlen_bytes: u64,
    /// Backlog of the high-priority band (P0–P3) only.
    pub qlen_high_bytes: u64,
    /// Cumulative bytes transmitted on the egress link so far.
    pub tx_bytes: u64,
    /// Cumulative high-priority-band bytes transmitted.
    pub tx_high_bytes: u64,
    /// Timestamp of the observation.
    pub ts: SimTime,
    /// Egress link rate.
    pub link_rate: Rate,
}

/// Protocol header attached to every packet.
///
/// The single hook lets INT-style transports (HPCC) collect per-hop state;
/// everyone else uses the default no-op.
pub trait Payload: Clone + std::fmt::Debug {
    /// Called once per switch egress enqueue, in path order, for a packet
    /// built [`Packet::with_hop_telemetry`]; no other packet's payload is
    /// read or written between its sender and its receiver.
    fn on_switch_hop(&mut self, _hop: HopTelemetry) {}
}

/// Minimal payload for tests and simple traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct NoPayload;

impl Payload for NoPayload {}

/// ECN codepoint state carried by a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ecn {
    /// ECN-capable transport (ECT set). Non-capable packets are never marked.
    pub capable: bool,
    /// Congestion Experienced mark.
    pub ce: bool,
}

impl Ecn {
    /// An ECN-capable, unmarked packet.
    pub const fn capable() -> Self {
        Ecn { capable: true, ce: false }
    }

    /// A packet that opts out of ECN.
    pub const fn not_capable() -> Self {
        Ecn { capable: false, ce: false }
    }
}

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet<P> {
    /// Flow this packet belongs to (used for ECMP and endpoint demux).
    pub flow: FlowId,
    /// Originating host.
    pub src: HostId,
    /// Destination host; forwarding is destination-based.
    pub dst: HostId,
    /// Strict priority, 0 (highest) .. 7 (lowest).
    pub priority: u8,
    /// Bytes occupied on the wire (payload + header, or header only).
    pub wire_bytes: u32,
    /// ECN state.
    pub ecn: Ecn,
    /// Whether a switch may trim this packet to a header instead of
    /// dropping it (NDP-style). Control packets are never trimmed.
    pub trimmable: bool,
    /// Set when a switch has removed the payload; `wire_bytes` is then
    /// [`TRIMMED_BYTES`] and the receiver must request retransmission.
    pub trimmed: bool,
    /// Every switch egress hands the payload a [`HopTelemetry`] record
    /// ([`Payload::on_switch_hop`]): in-band network telemetry, which the
    /// INT-driven window laws read.
    pub hop_telemetry: bool,
    /// When this packet last entered an egress queue (host NIC or switch
    /// port); the engine restamps it at every hop and reads it at dequeue
    /// to feed the telemetry queueing-delay histogram. One 8-byte store
    /// per enqueue, paid whether or not telemetry is on.
    pub(crate) enq_at: SimTime,
    /// Protocol header.
    pub payload: P,
}

/// The `Copy` half of a [`Packet`] — everything except the protocol
/// payload. The engine's packet pool stores metadata and payloads in
/// separate arrays (struct-of-arrays): a switch routes, admits, marks and
/// trims by reading and writing this alone, one densely packed cache line
/// per hop, and reaches the payload only for a `hop_telemetry` packet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PacketMeta {
    pub(crate) flow: FlowId,
    pub(crate) src: HostId,
    pub(crate) dst: HostId,
    pub(crate) priority: u8,
    pub(crate) wire_bytes: u32,
    pub(crate) ecn: Ecn,
    pub(crate) trimmable: bool,
    pub(crate) trimmed: bool,
    pub(crate) hop_telemetry: bool,
    /// The port the packet enters its next node through
    /// ([`crate::link::Link::to_port`]), stamped when it goes onto a wire;
    /// at a switch, the port it came in through: the account a PFC switch
    /// books its bytes to (DESIGN.md §15.1).
    pub(crate) ingress: u16,
    pub(crate) enq_at: SimTime,
}

// A switch hop's working set; a pool slot's metadata is this and no more.
const _: () = assert!(std::mem::size_of::<PacketMeta>() == 40, "PacketMeta is 40 bytes");

/// User payload bytes of a packet `wire_bytes` long on the wire.
fn payload_bytes_of(wire_bytes: u32, trimmed: bool) -> u32 {
    if trimmed || wire_bytes <= HEADER_BYTES {
        0
    } else {
        wire_bytes - HEADER_BYTES
    }
}

impl PacketMeta {
    /// [`Packet::payload_bytes`] of the packet this is the metadata of.
    pub(crate) fn payload_bytes(&self) -> u32 {
        payload_bytes_of(self.wire_bytes, self.trimmed)
    }
}

impl<P> Packet<P> {
    /// Split into the `Copy` metadata and the payload (for pooled storage).
    pub(crate) fn into_parts(self) -> (PacketMeta, P) {
        (
            PacketMeta {
                flow: self.flow,
                src: self.src,
                dst: self.dst,
                priority: self.priority,
                wire_bytes: self.wire_bytes,
                ecn: self.ecn,
                trimmable: self.trimmable,
                trimmed: self.trimmed,
                hop_telemetry: self.hop_telemetry,
                ingress: 0,
                enq_at: self.enq_at,
            },
            self.payload,
        )
    }

    /// Reassemble from pooled parts (inverse of [`Packet::into_parts`]).
    pub(crate) fn from_parts(meta: PacketMeta, payload: P) -> Self {
        Packet {
            flow: meta.flow,
            src: meta.src,
            dst: meta.dst,
            priority: meta.priority,
            wire_bytes: meta.wire_bytes,
            ecn: meta.ecn,
            trimmable: meta.trimmable,
            trimmed: meta.trimmed,
            hop_telemetry: meta.hop_telemetry,
            enq_at: meta.enq_at,
            payload,
        }
    }
}

impl<P: Payload> Packet<P> {
    /// Build a full-size data packet carrying `payload_bytes` of user data.
    pub fn data(flow: FlowId, src: HostId, dst: HostId, payload_bytes: u32, payload: P) -> Self {
        debug_assert!(
            payload_bytes > 0 && payload_bytes <= MSS_BYTES,
            "data packet payload {payload_bytes} outside 1..=MSS"
        );
        Packet {
            flow,
            src,
            dst,
            priority: 0,
            wire_bytes: payload_bytes + HEADER_BYTES,
            ecn: Ecn::capable(),
            trimmable: false,
            trimmed: false,
            hop_telemetry: false,
            enq_at: SimTime::ZERO,
            payload,
        }
    }

    /// Build a control packet (ACK/grant/pull): header-only, highest
    /// priority by default, never trimmed or dropped for trimming.
    pub fn ctrl(flow: FlowId, src: HostId, dst: HostId, payload: P) -> Self {
        Packet {
            flow,
            src,
            dst,
            priority: 0,
            wire_bytes: CTRL_BYTES,
            ecn: Ecn::not_capable(),
            trimmable: false,
            trimmed: false,
            hop_telemetry: false,
            enq_at: SimTime::ZERO,
            payload,
        }
    }

    /// Set the strict priority (0..=7), builder-style.
    pub fn with_priority(mut self, prio: u8) -> Self {
        debug_assert!((prio as usize) < NUM_PRIORITIES, "priority {prio} out of range");
        self.priority = prio;
        self
    }

    /// Mark as trimmable (NDP data packets), builder-style.
    pub fn with_trimmable(mut self, trimmable: bool) -> Self {
        self.trimmable = trimmable;
        self
    }

    /// Collect a [`HopTelemetry`] record at every switch egress,
    /// builder-style.
    pub fn with_hop_telemetry(mut self) -> Self {
        self.hop_telemetry = true;
        self
    }

    /// Opt out of ECN marking, builder-style.
    pub fn without_ecn(mut self) -> Self {
        self.ecn = Ecn::not_capable();
        self
    }

    /// User payload bytes carried (0 for control or trimmed packets).
    pub fn payload_bytes(&self) -> u32 {
        payload_bytes_of(self.wire_bytes, self.trimmed)
    }
}

/// Split a message of `total` bytes into MSS-sized payload chunks; the last
/// chunk holds the remainder. Returns (offset, len) pairs covering `total`.
pub fn segment(total: u64) -> impl Iterator<Item = (u64, u32)> {
    let mss = MSS_BYTES as u64;
    let n = total.div_ceil(mss);
    (0..n).map(move |i| {
        let off = i * mss;
        let len = (total - off).min(mss) as u32;
        (off, len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(bytes: u32) -> Packet<NoPayload> {
        Packet::data(FlowId(1), HostId(0), HostId(1), bytes, NoPayload)
    }

    #[test]
    fn data_packet_sizes() {
        let p = pkt(MSS_BYTES);
        assert_eq!(p.wire_bytes, MTU_BYTES);
        assert_eq!(p.payload_bytes(), MSS_BYTES);
        let c = Packet::ctrl(FlowId(1), HostId(0), HostId(1), NoPayload);
        assert_eq!(c.wire_bytes, CTRL_BYTES);
        assert_eq!(c.payload_bytes(), 0);
        assert!(!c.ecn.capable);
    }

    #[test]
    fn segmentation_covers_message_exactly() {
        let segs: Vec<_> = segment(3 * MSS_BYTES as u64 + 100).collect();
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0], (0, MSS_BYTES));
        assert_eq!(segs[3], (3 * MSS_BYTES as u64, 100));
        let total: u64 = segs.iter().map(|&(_, l)| l as u64).sum();
        assert_eq!(total, 3 * MSS_BYTES as u64 + 100);
    }

    #[test]
    fn segmentation_of_tiny_message() {
        let segs: Vec<_> = segment(1).collect();
        assert_eq!(segs, vec![(0, 1)]);
    }

    #[test]
    fn builder_methods_apply() {
        assert!(!pkt(100).hop_telemetry);
        let p = pkt(100).with_priority(5).with_trimmable(true).without_ecn().with_hop_telemetry();
        assert_eq!(p.priority, 5);
        assert!(p.trimmable && p.hop_telemetry);
        assert!(!p.ecn.capable);
    }
}
