//! The wire header carried by every packet, shared by all transports.
//!
//! One enum covers every implemented protocol family so a whole experiment
//! runs on `Simulator<Proto>`. Only HPCC's INT stack has switch-visible
//! behaviour (per-hop telemetry collection); everything else is opaque to
//! the network.

use netsim::{HopTelemetry, Payload, SimTime};

/// Maximum INT hops recorded (host→leaf→spine→leaf→host has 4 egresses).
pub const MAX_INT_HOPS: usize = 5;

/// One INT record, as stamped by an HPCC-capable switch.
#[derive(Clone, Copy, Debug)]
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
    /// INT stack; `Some` only for HPCC flows.
    pub int: Option<Vec<IntHop>>,
}

/// TCP-family ACK header.
#[derive(Clone, Debug)]
pub struct AckHdr {
    /// Bytes received contiguously from offset 0.
    pub cum: u64,
    /// Selectively acknowledged ranges (the segment(s) triggering this ACK).
    pub sacks: Vec<(u64, u64)>,
    /// ECN echo of the acked data packet(s).
    pub ece: bool,
    /// True for low-priority (LCP) ACKs.
    pub lcp: bool,
    /// Echo of the data packet's send timestamp (RTT sampling).
    pub ts_echo: SimTime,
    /// Echoed INT stack (HPCC).
    pub int_echo: Option<Vec<IntHop>>,
}

/// Homa-family headers.
#[derive(Clone, Debug)]
pub enum HomaHdr {
    /// Data (unscheduled in the first RTTbytes, scheduled afterwards).
    Data { offset: u64, len: u32, msg_size: u64, unscheduled: bool, retx: bool },
    /// Receiver grant: sender may transmit up to `granted_offset` at
    /// priority `prio`.
    Grant { granted_offset: u64, prio: u8 },
    /// Receiver asks for retransmission of `[offset, offset+len)`.
    Resend { offset: u64, len: u32 },
    /// Aeolus probe: trails the unscheduled burst; tells the receiver how
    /// many unscheduled bytes were sent so lost ones are detected at once.
    Probe { unscheduled_sent: u64, msg_size: u64 },
}

/// NDP headers.
#[derive(Clone, Debug)]
pub enum NdpHdr {
    /// Data packet (trimmable; a trimmed one arrives with
    /// `Packet::trimmed == true` and no payload).
    Data { offset: u64, len: u32, msg_size: u64, retx: bool },
    /// Receiver acknowledges a full data packet.
    Ack { offset: u64 },
    /// Receiver reports a trimmed packet (sender must requeue the range).
    Nack { offset: u64, len: u32 },
    /// Receiver-paced pull: sender may release one more packet.
    Pull,
}

/// The union header.
#[derive(Clone, Debug)]
pub enum Proto {
    Data(DataHdr),
    Ack(AckHdr),
    Homa(HomaHdr),
    Ndp(NdpHdr),
}

// A packet is stored once, in the engine's pool, but it is still moved by
// value from a transport into it and out again: keep it two cache lines.
const _: () = assert!(std::mem::size_of::<netsim::Packet<Proto>>() <= 128, "Packet<Proto> grew");

impl Payload for Proto {
    fn on_switch_hop(&mut self, hop: HopTelemetry) {
        if let Proto::Data(DataHdr { int: Some(stack), .. }) = self {
            if stack.len() < MAX_INT_HOPS {
                stack.push(IntHop {
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
}

impl Proto {
    /// Shorthand accessors used pervasively by the transports.
    pub fn as_data(&self) -> Option<&DataHdr> {
        match self {
            Proto::Data(d) => Some(d),
            _ => None,
        }
    }

    /// ACK accessor.
    pub fn as_ack(&self) -> Option<&AckHdr> {
        match self {
            Proto::Ack(a) => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Rate;

    #[test]
    fn int_stack_grows_per_hop_only_when_enabled() {
        let hop = HopTelemetry {
            qlen_bytes: 100,
            qlen_high_bytes: 80,
            tx_bytes: 5_000,
            tx_high_bytes: 4_000,
            ts: SimTime(1),
            link_rate: Rate::gbps(40),
        };
        let mut with_int = Proto::Data(DataHdr {
            offset: 0,
            len: 100,
            msg_size: 100,
            lcp: false,
            retx: false,
            sent_at: SimTime::ZERO,
            int: Some(Vec::new()),
        });
        with_int.on_switch_hop(hop);
        with_int.on_switch_hop(hop);
        match &with_int {
            Proto::Data(d) => assert_eq!(d.int.as_ref().unwrap().len(), 2),
            _ => unreachable!(),
        }

        let mut without = Proto::Data(DataHdr {
            offset: 0,
            len: 100,
            msg_size: 100,
            lcp: false,
            retx: false,
            sent_at: SimTime::ZERO,
            int: None,
        });
        without.on_switch_hop(hop);
        assert!(matches!(&without, Proto::Data(d) if d.int.is_none()));
    }

    #[test]
    fn int_stack_caps_depth() {
        let hop = HopTelemetry {
            qlen_bytes: 0,
            qlen_high_bytes: 0,
            tx_bytes: 0,
            tx_high_bytes: 0,
            ts: SimTime::ZERO,
            link_rate: Rate::gbps(1),
        };
        let mut p = Proto::Data(DataHdr {
            offset: 0,
            len: 1,
            msg_size: 1,
            lcp: false,
            retx: false,
            sent_at: SimTime::ZERO,
            int: Some(Vec::new()),
        });
        for _ in 0..20 {
            p.on_switch_hop(hop);
        }
        match &p {
            Proto::Data(d) => assert_eq!(d.int.as_ref().unwrap().len(), MAX_INT_HOPS),
            _ => unreachable!(),
        }
    }
}
