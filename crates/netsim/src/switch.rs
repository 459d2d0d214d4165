//! Switch configuration: buffer admission, ECN marking and packet trimming.
//!
//! A switch egress port owns eight strict-priority queues sharing one byte
//! budget. On every enqueue the port decides, in order: admit / trim / drop,
//! then whether to set the CE codepoint. All policies here are pure
//! functions of configuration + instantaneous queue state so they can be
//! unit-tested without an engine. There is one admission function,
//! `admit`: it reads and writes packet metadata only, so the engine runs
//! it on a pooled packet in place and [`enqueue_policy`] is `admit` plus a
//! push for callers that hold packets by value.

use crate::packet::{Packet, PacketMeta, Payload, NUM_PRIORITIES, TRIMMED_BYTES};
use crate::queue::{PrioQueues, QueueBank, Queued};

/// What backlog an ECN rule compares against its threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkScope {
    /// Backlog of the single queue the packet joins.
    Queue,
    /// Backlog summed over a half-open priority range `[lo, hi)`.
    Range(u8, u8),
    /// Backlog of the entire port (all eight queues).
    Port,
}

/// An ECN marking rule for one priority level.
///
/// Models the RED profile of commodity switches with min == max == K
/// (mark-on-enqueue at instantaneous backlog ≥ K), as DCTCP and PPT
/// configure it.
#[derive(Clone, Copy, Debug)]
pub struct EcnRule {
    /// Marking threshold K, bytes.
    pub threshold_bytes: u64,
    /// Which backlog K is compared against.
    pub scope: MarkScope,
}

/// A hard cap on the bytes a priority range may occupy at one port
/// (used to reproduce the "limit RC3's low-priority buffer" experiment).
#[derive(Clone, Copy, Debug)]
pub struct RangeCap {
    /// Half-open priority range `[lo, hi)` the cap applies to.
    pub lo: u8,
    /// Exclusive upper priority.
    pub hi: u8,
    /// Maximum bytes the range may hold.
    pub cap_bytes: u64,
}

/// PFC-style hop-by-hop backpressure thresholds (802.1Qbb flavoured).
///
/// When a priority's backlog at an egress port reaches `xoff_bytes`, the
/// switch sends a pause frame for that priority to every upstream neighbour;
/// when the backlog drains to `xon_bytes` or below it sends a resume.
/// `priority_mask` selects which priorities participate (bit `p` set =
/// priority `p` is lossless-flow-controlled).
#[derive(Clone, Copy, Debug)]
pub struct PfcConfig {
    /// Per-priority backlog at which the port asserts XOFF, bytes.
    pub xoff_bytes: u64,
    /// Per-priority backlog at or below which XOFF is released (XON).
    /// Must be below `xoff_bytes` for hysteresis.
    pub xon_bytes: u64,
    /// Bit `p` set = PFC governs priority `p`.
    pub priority_mask: u8,
}

impl PfcConfig {
    /// Thresholds derived from the port buffer: XOFF at a quarter of the
    /// buffer, XON at an eighth, all eight priorities governed.
    pub fn for_buffer(port_buffer_bytes: u64) -> Self {
        PfcConfig {
            xoff_bytes: (port_buffer_bytes / 4).max(1),
            xon_bytes: port_buffer_bytes / 8,
            priority_mask: 0xFF,
        }
    }
}

/// Per-switch (applied to every egress port) configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Shared byte budget per egress port.
    pub port_buffer_bytes: u64,
    /// ECN rule per priority level; `None` disables marking there.
    pub ecn: [Option<EcnRule>; NUM_PRIORITIES],
    /// NDP-style trimming: when the port backlog is at or above this value
    /// (or the packet would overflow the buffer), trimmable data packets
    /// are cut to headers and enqueued at priority 0 instead of dropped.
    pub trim_threshold_bytes: Option<u64>,
    /// Optional per-priority-range byte caps (checked before admission).
    pub range_caps: Vec<RangeCap>,
    /// Shared-buffer push-out: when a packet arrives at a full port, evict
    /// queued packets of strictly lower priority to make room (the
    /// behaviour of commodity shared-buffer switches with dynamic
    /// thresholds — high-priority traffic is never starved of buffer by
    /// low-priority backlog).
    pub push_out: bool,
    /// PFC backpressure thresholds; `None` disables hop-by-hop pausing.
    pub pfc: Option<PfcConfig>,
}

impl SwitchConfig {
    /// A deep-buffered switch with no ECN and no trimming — useful as a
    /// neutral fabric for unit tests.
    pub fn basic(port_buffer_bytes: u64) -> Self {
        SwitchConfig {
            port_buffer_bytes,
            ecn: [None; NUM_PRIORITIES],
            trim_threshold_bytes: None,
            range_caps: Vec::new(),
            push_out: false,
            pfc: None,
        }
    }

    /// DCTCP-style config: one ECN threshold applied to the whole port for
    /// every priority.
    pub fn dctcp(port_buffer_bytes: u64, k_bytes: u64) -> Self {
        let rule = EcnRule { threshold_bytes: k_bytes, scope: MarkScope::Port };
        SwitchConfig {
            port_buffer_bytes,
            ecn: [Some(rule); NUM_PRIORITIES],
            trim_threshold_bytes: None,
            range_caps: Vec::new(),
            push_out: false,
            pfc: None,
        }
    }

    /// PPT-style config (§3.2): the high-priority group P0–P3 marks at
    /// `k_high` against its own group backlog; the low-priority group P4–P7
    /// marks at the smaller `k_low` against the *whole port* backlog so the
    /// LCP loop senses congestion from normal traffic too. Push-out is on:
    /// opportunistic backlog must never cost normal packets their buffer.
    pub fn ppt(port_buffer_bytes: u64, k_high: u64, k_low: u64) -> Self {
        let mut ecn = [None; NUM_PRIORITIES];
        for rule in ecn.iter_mut().take(4) {
            *rule = Some(EcnRule { threshold_bytes: k_high, scope: MarkScope::Range(0, 4) });
        }
        for rule in ecn.iter_mut().skip(4) {
            *rule = Some(EcnRule { threshold_bytes: k_low, scope: MarkScope::Port });
        }
        SwitchConfig {
            port_buffer_bytes,
            ecn,
            trim_threshold_bytes: None,
            range_caps: Vec::new(),
            push_out: true,
            pfc: None,
        }
    }

    /// NDP-style config: trim trimmable packets beyond a shallow threshold.
    pub fn ndp(port_buffer_bytes: u64, trim_threshold_bytes: u64) -> Self {
        SwitchConfig {
            port_buffer_bytes,
            ecn: [None; NUM_PRIORITIES],
            trim_threshold_bytes: Some(trim_threshold_bytes),
            range_caps: Vec::new(),
            push_out: false,
            pfc: None,
        }
    }

    /// Enable or disable shared-buffer push-out, builder-style.
    pub fn with_push_out(mut self, push_out: bool) -> Self {
        self.push_out = push_out;
        self
    }

    /// Add a byte cap for priorities `[lo, hi)`, builder-style.
    pub fn with_range_cap(mut self, lo: u8, hi: u8, cap_bytes: u64) -> Self {
        self.range_caps.push(RangeCap { lo, hi, cap_bytes });
        self
    }

    /// Enable PFC backpressure with explicit thresholds, builder-style.
    pub fn with_pfc(mut self, pfc: PfcConfig) -> Self {
        debug_assert!(pfc.xon_bytes < pfc.xoff_bytes, "PFC needs XON < XOFF hysteresis");
        self.pfc = Some(pfc);
        self
    }
}

/// Outcome of an enqueue attempt at a switch egress port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Admitted as-is (possibly CE-marked).
    Queued { marked: bool },
    /// Payload removed; header admitted at priority 0.
    Trimmed,
    /// Packet discarded.
    Dropped,
}

/// Per-port counters, exposed for statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortCounters {
    /// Packets admitted.
    pub enqueued: u64,
    /// Packets dropped (buffer overflow or range cap).
    pub dropped: u64,
    /// Packets trimmed to headers.
    pub trimmed: u64,
    /// Packets CE-marked on enqueue.
    pub marked: u64,
    /// Lower-priority packets evicted by push-out admission.
    pub evicted: u64,
    /// Payload bytes lost to drops.
    pub dropped_bytes: u64,
}

impl PortCounters {
    /// Add `other` into `self`, field by field.
    pub fn add(&mut self, other: &PortCounters) {
        // Destructured, so a new counter cannot be left out of a total.
        let PortCounters { enqueued, dropped, trimmed, marked, evicted, dropped_bytes } = *other;
        self.enqueued += enqueued;
        self.dropped += dropped;
        self.trimmed += trimmed;
        self.marked += marked;
        self.evicted += evicted;
        self.dropped_bytes += dropped_bytes;
    }
}

// simlint: hot-path
/// The admission + marking policy for a packet arriving at `queues`: evict
/// what push-out says must go (each evicted item is handed to `evicted`,
/// which returns its payload bytes), then admit, trim or drop, then decide
/// the CE bit. Mutates `pkt` (CE bit, trimming) and `counters`; pushes
/// nothing — the caller stores or forwards an admitted packet.
pub(crate) fn admit<T: Queued>(
    cfg: &SwitchConfig,
    queues: &mut QueueBank<T>,
    counters: &mut PortCounters,
    pkt: &mut PacketMeta,
    mut evicted: impl FnMut(T) -> u32,
) -> EnqueueOutcome {
    // Push-out: a full port sheds strictly-lower-priority backlog to admit
    // the arrival.
    if cfg.push_out {
        while queues.total_bytes() + pkt.wire_bytes as u64 > cfg.port_buffer_bytes {
            match queues.evict_lowest_below(pkt.priority) {
                Some(item) => {
                    counters.evicted += 1;
                    counters.dropped += 1;
                    counters.dropped_bytes += evicted(item) as u64;
                }
                None => break,
            }
        }
    }
    let backlog = queues.total_bytes();
    let fits = backlog + pkt.wire_bytes as u64 <= cfg.port_buffer_bytes;

    // NDP-style trimming: engage at the trim threshold or on overflow.
    let over_trim = cfg.trim_threshold_bytes.map(|t| backlog >= t).unwrap_or(false);
    if pkt.trimmable && !pkt.trimmed && (over_trim || !fits) && cfg.trim_threshold_bytes.is_some() {
        pkt.trimmed = true;
        pkt.wire_bytes = TRIMMED_BYTES;
        pkt.priority = 0;
        // A trimmed header that still does not fit is dropped.
        if queues.total_bytes() + pkt.wire_bytes as u64 > cfg.port_buffer_bytes {
            counters.dropped += 1;
            return EnqueueOutcome::Dropped;
        }
        counters.trimmed += 1;
        counters.enqueued += 1;
        return EnqueueOutcome::Trimmed;
    }

    if !fits {
        counters.dropped += 1;
        counters.dropped_bytes += pkt.payload_bytes() as u64;
        return EnqueueOutcome::Dropped;
    }

    // Range caps (e.g. capping RC3's low-priority buffer share).
    for cap in &cfg.range_caps {
        if pkt.priority >= cap.lo && pkt.priority < cap.hi {
            let range_backlog = queues.bytes_in_range(cap.lo..cap.hi);
            if range_backlog + pkt.wire_bytes as u64 > cap.cap_bytes {
                counters.dropped += 1;
                counters.dropped_bytes += pkt.payload_bytes() as u64;
                return EnqueueOutcome::Dropped;
            }
        }
    }

    // ECN marking against the configured scope's instantaneous backlog.
    let mut marked = false;
    if pkt.ecn.capable && !pkt.ecn.ce {
        if let Some(rule) = &cfg.ecn[pkt.priority as usize] {
            let scoped = match rule.scope {
                MarkScope::Queue => queues.bytes_at(pkt.priority),
                MarkScope::Range(lo, hi) => queues.bytes_in_range(lo..hi),
                MarkScope::Port => queues.total_bytes(),
            };
            if scoped >= rule.threshold_bytes {
                pkt.ecn.ce = true;
                marked = true;
                counters.marked += 1;
            }
        }
    }

    counters.enqueued += 1;
    EnqueueOutcome::Queued { marked }
}

/// Apply the admission + marking policy for `pkt` against `queues`,
/// mutating the packet (CE bit, trimming) and pushing it when admitted.
///
/// Returns what happened so the caller can update counters / stop
/// tracking the packet.
pub fn enqueue_policy<P: Payload>(
    cfg: &SwitchConfig,
    queues: &mut PrioQueues<P>,
    counters: &mut PortCounters,
    pkt: Packet<P>,
) -> EnqueueOutcome {
    let (mut meta, payload) = pkt.into_parts();
    let outcome = admit(cfg, queues, counters, &mut meta, |p: Packet<P>| p.payload_bytes());
    if outcome != EnqueueOutcome::Dropped {
        queues.push(Packet::from_parts(meta, payload));
    }
    outcome
}
// simlint: hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::{NoPayload, HEADER_BYTES};

    fn data(prio: u8, payload: u32) -> Packet<NoPayload> {
        Packet::data(FlowId(0), HostId(0), HostId(1), payload, NoPayload).with_priority(prio)
    }

    #[test]
    fn drop_tail_on_overflow() {
        let cfg = SwitchConfig::basic(3_000);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        assert!(matches!(
            enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400)),
            EnqueueOutcome::Queued { .. }
        ));
        assert!(matches!(
            enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400)),
            EnqueueOutcome::Queued { .. }
        ));
        // Third full packet exceeds 3000B budget.
        assert_eq!(enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400)), EnqueueOutcome::Dropped);
        assert_eq!(c.dropped, 1);
        assert_eq!(c.dropped_bytes, 1400);
        assert_eq!(c.enqueued, 2);
    }

    #[test]
    fn ecn_marks_at_threshold_port_scope() {
        let cfg = SwitchConfig::dctcp(1_000_000, 3_000);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        // Fill just below K.
        for _ in 0..2 {
            enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400));
        }
        assert_eq!(c.marked, 0);
        // Backlog is now 2880 >= ... below 3000, next enqueue sees 2880 < 3000: unmarked.
        enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400));
        assert_eq!(c.marked, 0);
        // Now backlog 4320 >= 3000: marked.
        let out = enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400));
        assert_eq!(out, EnqueueOutcome::Queued { marked: true });
        assert_eq!(c.marked, 1);
    }

    #[test]
    fn ppt_scopes_mark_independently() {
        // K_high = 5KB on P0-3 group; K_low = 1KB on whole port.
        let cfg = SwitchConfig::ppt(1_000_000, 5_000, 1_000);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        // One HCP packet: port backlog 1440.
        enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400));
        // LCP packet sees port backlog 1440 >= 1KB -> marked.
        let out = enqueue_policy(&cfg, &mut q, &mut c, data(4, 1400));
        assert_eq!(out, EnqueueOutcome::Queued { marked: true });
        // HCP packet sees group backlog 1440 < 5KB -> unmarked.
        let out = enqueue_policy(&cfg, &mut q, &mut c, data(1, 1400));
        assert_eq!(out, EnqueueOutcome::Queued { marked: false });
    }

    #[test]
    fn non_capable_packets_never_marked() {
        let cfg = SwitchConfig::dctcp(1_000_000, 0);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        let pkt = data(0, 100).without_ecn();
        assert_eq!(
            enqueue_policy(&cfg, &mut q, &mut c, pkt),
            EnqueueOutcome::Queued { marked: false }
        );
    }

    #[test]
    fn trimming_replaces_drop() {
        let cfg = SwitchConfig::ndp(1_000_000, 2_000);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        enqueue_policy(&cfg, &mut q, &mut c, data(3, 1400).with_trimmable(true));
        enqueue_policy(&cfg, &mut q, &mut c, data(3, 1400).with_trimmable(true));
        // Backlog 2880 >= trim threshold: next trimmable packet is trimmed.
        let out = enqueue_policy(&cfg, &mut q, &mut c, data(3, 1400).with_trimmable(true));
        assert_eq!(out, EnqueueOutcome::Trimmed);
        assert_eq!(c.trimmed, 1);
        // The trimmed header sits at priority 0 and is 64B.
        let head = q.pop().unwrap();
        assert!(head.trimmed);
        assert_eq!(head.priority, 0);
        assert_eq!(head.wire_bytes, TRIMMED_BYTES);
        assert_eq!(head.payload_bytes(), 0);
    }

    #[test]
    fn range_cap_limits_low_priority_share() {
        let cfg = SwitchConfig::basic(1_000_000).with_range_cap(4, 8, 2_000);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        enqueue_policy(&cfg, &mut q, &mut c, data(5, 1400));
        // 1440B in range; another 1440 would exceed the 2000B cap.
        assert_eq!(enqueue_policy(&cfg, &mut q, &mut c, data(6, 1400)), EnqueueOutcome::Dropped);
        // High-priority traffic is unaffected.
        assert!(matches!(
            enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400)),
            EnqueueOutcome::Queued { .. }
        ));
    }

    #[test]
    fn already_marked_packets_stay_marked_and_are_not_double_counted() {
        let cfg = SwitchConfig::dctcp(1_000_000, 0);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        let mut pkt = data(0, 100);
        pkt.ecn.ce = true;
        enqueue_policy(&cfg, &mut q, &mut c, pkt);
        assert_eq!(c.marked, 0);
        assert!(q.pop().unwrap().ecn.ce);
    }

    #[test]
    fn header_overhead_counts_toward_buffer() {
        let cfg = SwitchConfig::basic((1400 + HEADER_BYTES) as u64);
        let mut q = PrioQueues::new();
        let mut c = PortCounters::default();
        assert!(matches!(
            enqueue_policy(&cfg, &mut q, &mut c, data(0, 1400)),
            EnqueueOutcome::Queued { .. }
        ));
        assert_eq!(enqueue_policy(&cfg, &mut q, &mut c, data(0, 1)), EnqueueOutcome::Dropped);
    }
}
