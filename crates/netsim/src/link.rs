//! Unidirectional links.

use crate::ids::NodeId;
use crate::time::SimDuration;
use crate::units::Rate;

/// A unidirectional point-to-point link.
///
/// Full-duplex cables are modelled as two `Link`s, one per direction. The
/// sending side serializes packets at `rate`; each packet then takes
/// `delay` to propagate before arriving at `to`.
#[derive(Debug)]
pub struct Link {
    /// Transmission rate.
    pub rate: Rate,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Receiving node.
    pub to: NodeId,
    /// The port of `to` a packet arrives on: the egress port that feeds
    /// this cable's other direction. PFC accounts a switch's backlog to
    /// it and sends its pause frames back along it (DESIGN.md §15.1).
    pub to_port: u16,
    /// Cumulative bytes handed to the wire (includes headers). Updated when
    /// serialization of a packet begins; used for utilization sampling and
    /// INT telemetry.
    pub tx_bytes: u64,
    /// Cumulative packets handed to the wire.
    pub tx_packets: u64,
    /// Cumulative bytes of high-priority-band (P0–P3) packets handed to
    /// the wire — the counter a priority-aware INT switch exposes.
    pub tx_high_bytes: u64,
}

impl Link {
    /// A fresh link with zeroed counters.
    pub fn new(rate: Rate, delay: SimDuration, to: NodeId, to_port: u16) -> Self {
        Link { rate, delay, to, to_port, tx_bytes: 0, tx_packets: 0, tx_high_bytes: 0 }
    }
}
