//! simsan — the runtime invariant sanitizer for the simulation core.
//!
//! An opt-in shadow-state auditor threaded through the engine hot path
//! behind a zero-cost-when-off flag ([`crate::Simulator::set_sanitizer`]).
//! The sanitizer maintains its own ledger of what the engine *should*
//! hold — pool occupancy, per-port queue accounting, link occupancy,
//! event-clock discipline, fault attribution, PFC state — fed by observation hooks
//! at the same places the engine mutates its real state, and checks the
//! two against each other at a configurable cadence.
//!
//! Observer-effect contract: the sanitizer never schedules events, never
//! draws from any RNG, and emits nothing into the trace stream unless an
//! invariant is actually violated — so a clean sanitized run is
//! byte-identical to an unsanitized one (`tests/sanitizer.rs` proves it
//! across every scheme). All ledger state is plain owned data inside the
//! engine; nothing here is visible to transports or switches.
//!
//! Violations are recorded as [`SanViolation`]s, surfaced through the
//! trace layer as `TraceEvent::SanViolation`, and turn the run's
//! `StopReason` into `StopReason::SanViolation` (abnormal), which
//! triggers the harness flight-recorder dump. See DESIGN.md §13 for the
//! invariant catalogue.

use std::collections::{BTreeMap, BTreeSet};

use dcn_trace::{SanCheck, TraceEvent};

use crate::engine::{PortState, Simulator};
use crate::ids::{HostId, NodeId, SwitchId};
use crate::packet::{Payload, MTU_BYTES, NUM_PRIORITIES};
use crate::sched::EventQueue;
use crate::switch::PfcConfig;
use crate::time::SimTime;
#[cfg(any(test, feature = "simsan-selftest"))]
use crate::{engine::Ev, ids::FlowId};

/// How often the sanitizer cross-checks its ledger against engine state.
///
/// Observation hooks (pool alloc/free, queue push/pop, tx start/done,
/// heap pop) run on every event regardless of level — the level only
/// controls when the *audit* (the O(ports + queue-depth) comparison
/// sweep) runs and when accumulated violations abort the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SanLevel {
    /// Audit after every dispatched event (most precise localization,
    /// highest overhead).
    PerEvent,
    /// Audit every [`EPOCH_EVENTS`] events and at end of run (the
    /// recommended default; bench-measured overhead is a few percent).
    PerEpoch,
    /// Audit only once, when the run stops.
    AtEnd,
}

impl SanLevel {
    /// Parse a cadence id as given to `pptlab --sanitize`. `"1"` selects
    /// the recommended per-epoch cadence; anything else unknown is `None`.
    pub fn parse(s: &str) -> Option<SanLevel> {
        match s {
            "event" | "per-event" => Some(SanLevel::PerEvent),
            "1" | "epoch" | "per-epoch" => Some(SanLevel::PerEpoch),
            "end" | "at-end" => Some(SanLevel::AtEnd),
            _ => None,
        }
    }
}

/// Events between audits at [`SanLevel::PerEpoch`].
pub const EPOCH_EVENTS: u64 = 4096;

/// One detected invariant breach.
#[derive(Clone, Copy, Debug)]
pub struct SanViolation {
    /// Which invariant family was breached.
    pub check: SanCheck,
    /// Simulated time at detection.
    pub at: SimTime,
    /// The entity involved: a port ledger key, pool slot, flow id, heap
    /// sequence number or link id, depending on `check` (for
    /// `EventOrder`, the time of the least key pushed).
    pub subject: u64,
    /// What the ledger says the value should be.
    pub expected: u64,
    /// What the engine actually holds.
    pub actual: u64,
}

/// A sanitizer observation reported from inside a transport handler via
/// `Ctx::san_note` (the transports cannot see the engine-side ledger, so
/// they push notes through the effects channel instead; the engine
/// drains them counter-only, never touching the event heap).
#[derive(Clone, Copy, Debug)]
pub enum SanNote {
    /// A transport invariant breached outright (cwnd == 0, RTO armed
    /// with nothing outstanding, ...).
    Violation {
        /// Invariant family (normally `TransportConservation`).
        check: SanCheck,
        /// Flow the breach was observed on.
        flow: u64,
        /// Expected value.
        expected: u64,
        /// Actual value.
        actual: u64,
    },
    /// Cumulative-ACK observation; the ledger enforces that a flow's
    /// cumulative ACK never moves backwards.
    AckAdvance {
        /// Flow observed.
        flow: u64,
        /// Cumulative contiguous bytes ACKed so far.
        cum_acked: u64,
    },
    /// The flow scheduled an RTO timer that it will act on when it fires.
    /// The ledger enforces at most one such live timer per flow.
    RtoArm {
        /// Flow observed.
        flow: u64,
    },
    /// The flow's live RTO timer stopped being live: it fired (consumed),
    /// or an earlier deadline superseded it and its fire will be dropped.
    RtoDisarm {
        /// Flow observed.
        flow: u64,
    },
}

/// An event-queue key `(at, seq)` as one integer in the same order: one
/// comparison instead of two in the shadow's searches.
fn event_key(at: SimTime, seq: u64) -> u128 {
    (at.0 as u128) << 64 | seq as u128
}

/// Ledger key for a host NIC egress port.
pub fn host_port_key(host: u32) -> u64 {
    host as u64
}

/// Ledger key for a switch egress port.
pub fn switch_port_key(switch: u32, port: u16) -> u64 {
    (1u64 << 32) | ((switch as u64) << 16) | port as u64
}

/// What simsan holds one PFC ingress account to ([`Sanitizer::audit_pfc`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PfcIngress {
    /// The port's XOFF bits (`PortState::xoff_sent`).
    pub(crate) xoff_sent: u8,
    /// The switch's account of the bytes it holds that came in through the
    /// port, per priority.
    pub(crate) booked: [u64; NUM_PRIORITIES],
    /// The same, recounted from the queued packets' `ingress` stamps.
    pub(crate) queued: [u64; NUM_PRIORITIES],
    /// XOFF plus what can still arrive once it is crossed: the crossing
    /// packet, the cable's bytes in flight both ways while the pause
    /// travels, and the packet the neighbour is serializing when it lands —
    /// XOFF + bdp(rate, 2 · delay) + 2 · MTU.
    pub(crate) headroom: u64,
}

/// Shadow state for one egress port.
#[derive(Clone, Copy, Debug, Default)]
struct PortShadow {
    /// Bytes the ledger believes are queued. Exact for host NICs; for
    /// switch ports it is resynced from engine state after push-out
    /// evictions (the engine cannot observe evicted packets one by one).
    bytes: u64,
    /// Packets the ledger believes are queued.
    pkts: u64,
    /// Whether a serialization is in flight on this port.
    tx_busy: bool,
}

/// Every port's shadow under its ledger key: host NICs by host, switch
/// ports by (switch, port) — an index, not a search, on every hop.
#[derive(Debug, Default)]
struct PortLedger {
    hosts: Vec<PortShadow>,
    switches: Vec<Vec<PortShadow>>,
}

impl PortLedger {
    /// The shadow behind `key`, a fresh one the first time it is named.
    fn get(&mut self, key: u64) -> &mut PortShadow {
        match key >> 32 {
            0 => entry(&mut self.hosts, key),
            _ => entry(entry(&mut self.switches, key >> 16 & 0xffff), key & 0xffff),
        }
    }
}

/// Entry `i` of a ledger indexed by a dense id (a host, switch or port),
/// created with its default the first time it is named.
fn entry<T: Clone + Default>(v: &mut Vec<T>, i: u64) -> &mut T {
    let i = i as usize;
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// The simsan ledger. Owned by the engine (`Simulator::san`); every
/// field is plain owned state so the determinism contract (no shared
/// mutability, no entropy) holds for sanitized runs too.
#[derive(Debug)]
pub struct Sanitizer {
    level: SanLevel,
    // --- packet-pool conservation ---
    slot_live: Vec<bool>,
    live: u64,
    // --- event-clock discipline ---
    last_pop: Option<(SimTime, u64)>,
    max_seq: Option<u64>,
    /// The key of every entry pushed onto the event queue and not yet
    /// popped ([`event_key`]), descending: each pop must be the last.
    queued: Vec<u128>,
    // --- queue accounting + link occupancy ---
    ports: PortLedger,
    // --- transport conservation ---
    last_cum_ack: BTreeMap<u64, u64>,
    /// Live RTO timers per flow (0 or 1 on a healthy run). A flow enters
    /// on its first note, so a ledger installed mid-run starts it at 0.
    rto_live: BTreeMap<u64, u32>,
    // --- fault attribution ---
    fault_drops: u64,
    // --- audit/output state ---
    violations: Vec<SanViolation>,
    flushed: usize,
    events_since_audit: u64,
}

impl Sanitizer {
    /// A fresh ledger auditing at `level`.
    pub fn new(level: SanLevel) -> Self {
        Sanitizer {
            level,
            slot_live: Vec::new(),
            live: 0,
            last_pop: None,
            max_seq: None,
            queued: Vec::new(),
            ports: PortLedger::default(),
            last_cum_ack: BTreeMap::new(),
            rto_live: BTreeMap::new(),
            fault_drops: 0,
            violations: Vec::new(),
            flushed: 0,
            events_since_audit: 0,
        }
    }

    /// The configured cadence.
    pub fn level(&self) -> SanLevel {
        self.level
    }

    /// Every violation recorded so far, in detection order.
    pub fn violations(&self) -> &[SanViolation] {
        &self.violations
    }

    fn record(&mut self, check: SanCheck, at: SimTime, subject: u64, expected: u64, actual: u64) {
        self.violations.push(SanViolation { check, at, subject, expected, actual });
    }

    // ---------------------------------------------------------------
    // Seeding (mid-run install support)
    // ---------------------------------------------------------------

    /// Mark a pool slot as live at install time, so a sanitizer attached
    /// between `run()` calls starts from the engine's real state.
    pub(crate) fn seed_pool_slot(&mut self, slot: usize) {
        if self.slot_live.len() <= slot {
            self.slot_live.resize(slot + 1, false);
        }
        if !self.slot_live[slot] {
            self.slot_live[slot] = true;
            self.live += 1;
        }
    }

    /// Seed one port's shadow from the engine's current state.
    pub(crate) fn seed_port(&mut self, key: u64, bytes: u64, pkts: u64, busy: bool) {
        *self.ports.get(key) = PortShadow { bytes, pkts, tx_busy: busy };
    }

    /// Seed the fault-drop ledger from the engine's current total.
    pub(crate) fn seed_faults(&mut self, drops: u64) {
        self.fault_drops = drops;
    }

    // ---------------------------------------------------------------
    // Observation hooks (called from the engine hot path when enabled)
    // ---------------------------------------------------------------

    /// The packet in pool slot `slot` went onto a wire.
    pub(crate) fn observe_alloc(&mut self, when: SimTime, slot: usize) {
        if self.slot_live.len() <= slot {
            self.slot_live.resize(slot + 1, false);
        }
        if self.slot_live[slot] {
            // Allocated twice without an intervening free.
            self.record(SanCheck::PoolConservation, when, slot as u64, 0, 1);
        } else {
            self.slot_live[slot] = true;
            self.live += 1;
        }
    }

    /// The packet in pool slot `slot` came off its wire: its delivery
    /// dispatched.
    pub(crate) fn observe_free(&mut self, when: SimTime, slot: usize) {
        match self.slot_live.get_mut(slot) {
            Some(live) if *live => {
                *live = false;
                self.live -= 1;
            }
            // Freed twice, or freed without ever being allocated.
            _ => self.record(SanCheck::PoolConservation, when, slot as u64, 1, 0),
        }
    }

    /// The engine assigned heap sequence number `seq` to an event at
    /// `when` while the clock reads `now_at`.
    pub(crate) fn observe_schedule(&mut self, when: SimTime, now_at: SimTime, seq: u64) {
        if when < now_at {
            self.record(SanCheck::SchedulePast, now_at, seq, now_at.0, when.0);
        }
        if let Some(max) = self.max_seq {
            if seq <= max {
                // Sequence numbers must be strictly increasing: a rewind
                // breaks the FIFO tie-break for same-time events.
                self.record(SanCheck::TieBreak, now_at, seq, max + 1, seq);
            }
        }
        self.max_seq = Some(self.max_seq.map_or(seq, |m| m.max(seq)));
    }

    /// An event at `(when, seq)` was popped for dispatch while the clock
    /// still read `now_before`.
    pub(crate) fn observe_pop(&mut self, when: SimTime, seq: u64, now_before: SimTime) {
        if when < now_before {
            self.record(SanCheck::ClockMonotonic, now_before, seq, now_before.0, when.0);
        }
        if let Some((last_at, last_seq)) = self.last_pop {
            if when < last_at {
                self.record(SanCheck::ClockMonotonic, now_before, seq, last_at.0, when.0);
            } else if when == last_at && seq <= last_seq {
                self.record(SanCheck::TieBreak, now_before, seq, last_seq + 1, seq);
            }
        }
        self.last_pop = Some((when, seq));
        let key = event_key(when, seq);
        if self.queued.last() == Some(&key) {
            self.queued.pop();
        } else {
            // Popped out of order, or an entry the ledger never saw pushed
            // (subject, expected: the least pushed key's time and seq,
            // `u64::MAX` for none). Keys up to the popped one are written
            // off as lost, so one lost entry is one violation.
            let least = self.queued.last().copied().unwrap_or(u128::MAX);
            let (at, expected) = ((least >> 64) as u64, least as u64);
            self.record(SanCheck::EventOrder, when, at, expected, seq);
            let kept = self.queued.partition_point(|&k| k > key);
            self.queued.truncate(kept);
        }
    }

    /// An entry under `(when, seq)` went onto the event queue.
    pub(crate) fn observe_push(&mut self, when: SimTime, seq: u64) {
        let key = event_key(when, seq);
        let at = self.queued.partition_point(|&k| k > key);
        self.queued.insert(at, key);
    }

    /// A packet of `wire_bytes` entered the queue bank behind `key`.
    pub(crate) fn observe_queue_push(&mut self, key: u64, wire_bytes: u64) {
        let shadow = self.ports.get(key);
        shadow.bytes += wire_bytes;
        shadow.pkts += 1;
    }

    /// A packet of `wire_bytes` left the queue bank behind `key`.
    pub(crate) fn observe_queue_pop(&mut self, when: SimTime, key: u64, wire_bytes: u64) {
        let shadow = self.ports.get(key);
        let had_bytes = shadow.bytes;
        let underflow = shadow.pkts == 0 || shadow.bytes < wire_bytes;
        if underflow {
            // More left the queue than the ledger ever saw enter; reset the
            // shadow so one corruption doesn't cascade per-packet.
            shadow.bytes = 0;
            shadow.pkts = 0;
        } else {
            shadow.bytes -= wire_bytes;
            shadow.pkts -= 1;
        }
        if underflow {
            self.record(SanCheck::QueueAccounting, when, key, had_bytes, wire_bytes);
        }
    }

    /// Push-out eviction inside `enqueue_policy` removed packets the
    /// engine could not observe individually; resync this port's shadow
    /// from the post-admission engine state.
    pub(crate) fn observe_queue_resync(&mut self, key: u64, bytes: u64, pkts: u64) {
        let shadow = self.ports.get(key);
        shadow.bytes = bytes;
        shadow.pkts = pkts;
    }

    /// A serialization started on the port behind `key`.
    pub(crate) fn observe_tx_start(&mut self, when: SimTime, key: u64) {
        let shadow = self.ports.get(key);
        let was_busy = shadow.tx_busy;
        shadow.tx_busy = true;
        if was_busy {
            // Two serializations in flight on one port.
            self.record(SanCheck::LinkOccupancy, when, key, 0, 1);
        }
    }

    /// The serialization on the port behind `key` ended: its TxDone
    /// dispatched, or the port settled idle without one.
    pub(crate) fn observe_tx_done(&mut self, when: SimTime, key: u64) {
        let shadow = self.ports.get(key);
        let was_busy = shadow.tx_busy;
        shadow.tx_busy = false;
        if !was_busy {
            // TxDone without a matching prior transmit (phantom TxDone).
            self.record(SanCheck::LinkOccupancy, when, key, 1, 0);
        }
    }

    /// The fault layer destroyed a packet on the wire.
    pub(crate) fn observe_fault_drop(&mut self) {
        self.fault_drops += 1;
    }

    /// An ECN mark was applied; `scoped_after` is the post-enqueue
    /// backlog of the rule's scope. Under mark-on-enqueue, a marked
    /// packet implies the scoped backlog met the threshold.
    pub(crate) fn observe_ecn_mark(
        &mut self,
        when: SimTime,
        key: u64,
        scoped_after: u64,
        threshold: Option<u64>,
    ) {
        match threshold {
            // Marked at a priority with no ECN rule configured.
            None => self.record(SanCheck::EcnMark, when, key, 0, 1),
            Some(k) => {
                if scoped_after < k {
                    self.record(SanCheck::EcnMark, when, key, k, scoped_after);
                }
            }
        }
    }

    /// Drain one transport-side note into the ledger.
    pub(crate) fn observe_note(&mut self, when: SimTime, note: SanNote) {
        match note {
            SanNote::Violation { check, flow, expected, actual } => {
                self.record(check, when, flow, expected, actual);
            }
            SanNote::AckAdvance { flow, cum_acked } => {
                let last = self.last_cum_ack.entry(flow).or_insert(0);
                let prev = *last;
                *last = prev.max(cum_acked);
                if cum_acked < prev {
                    self.record(SanCheck::TransportConservation, when, flow, prev, cum_acked);
                }
            }
            SanNote::RtoArm { flow } => {
                let live = self.rto_live.entry(flow).or_insert(0);
                *live += 1;
                if *live > 1 {
                    // A second timer the flow would act on: the stale-fire
                    // storm this check exists to keep out.
                    let live = *live as u64;
                    self.record(SanCheck::TransportConservation, when, flow, 1, live);
                }
            }
            SanNote::RtoDisarm { flow } => match self.rto_live.get_mut(&flow) {
                Some(0) => self.record(SanCheck::TransportConservation, when, flow, 1, 0),
                Some(live) => *live -= 1,
                // First note of a flow armed before a mid-run install.
                None => {
                    self.rto_live.insert(flow, 0);
                }
            },
        }
    }

    // ---------------------------------------------------------------
    // Audits (cadence-driven comparison sweeps, driven by the engine)
    // ---------------------------------------------------------------

    /// Count one dispatched event; returns true when the cadence says an
    /// audit is due now.
    pub(crate) fn tick(&mut self) -> bool {
        match self.level {
            SanLevel::PerEvent => true,
            SanLevel::PerEpoch => {
                self.events_since_audit += 1;
                if self.events_since_audit >= EPOCH_EVENTS {
                    self.events_since_audit = 0;
                    true
                } else {
                    false
                }
            }
            SanLevel::AtEnd => false,
        }
    }

    /// Pool conservation. The wire ledger must agree with `on_wire` (the
    /// engine's `pool_stats().live`), and every occupied slot must be
    /// accounted for: a packet is on a wire or in a queue, nowhere else.
    /// At a quiescent run end no slot may be occupied at all.
    pub(crate) fn audit_pool(
        &mut self,
        when: SimTime,
        on_wire: u64,
        queued: u64,
        occupied: u64,
        quiescent: bool,
    ) {
        if on_wire != self.live {
            self.record(SanCheck::PoolConservation, when, u64::MAX, self.live, on_wire);
        }
        if occupied != on_wire + queued {
            // A slot nobody holds (leaked), or a holder without a slot.
            self.record(SanCheck::PoolConservation, when, u64::MAX, on_wire + queued, occupied);
        }
        if quiescent && occupied > 0 {
            // Packets left with a drained event queue: nothing will ever
            // deliver or drop them.
            self.record(SanCheck::PoolConservation, when, u64::MAX, 0, occupied);
        }
    }

    /// At a quiescent run end every timer has fired, so no flow may still
    /// hold a live RTO timer: one that does armed a timer it never got.
    pub(crate) fn audit_rto_timers(&mut self, when: SimTime) {
        let held = self.rto_live.iter().filter(|&(_, &live)| live > 0);
        self.violations.extend(held.map(|(&flow, &live)| SanViolation {
            check: SanCheck::TransportConservation,
            at: when,
            subject: flow,
            expected: 0,
            actual: live as u64,
        }));
    }

    /// Compare one port's shadow against the engine's queue bank and
    /// busy flag. `recount` is `Some((recomputed, counter))` when the
    /// queue bank's internal byte counters disagree with its contents.
    pub(crate) fn audit_port(
        &mut self,
        when: SimTime,
        key: u64,
        bytes: u64,
        pkts: u64,
        busy: bool,
        recount: Option<(u64, u64)>,
    ) {
        if let Some((recomputed, counter)) = recount {
            self.record(SanCheck::QueueAccounting, when, key, recomputed, counter);
        }
        let shadow = *self.ports.get(key);
        if shadow.bytes != bytes {
            self.record(SanCheck::QueueAccounting, when, key, shadow.bytes, bytes);
        }
        if shadow.pkts != pkts {
            self.record(SanCheck::QueueAccounting, when, key, shadow.pkts, pkts);
        }
        if shadow.tx_busy != busy {
            self.record(SanCheck::LinkOccupancy, when, key, shadow.tx_busy as u64, busy as u64);
        }
    }

    /// PFC state of one switch, ingress port by ingress port, priority by
    /// priority (subject: the port key). Three rules:
    /// - XOFF bit clear ⇒ account below XOFF, bit set ⇒ account above XON
    ///   (expected: the threshold) — what every re-evaluation
    ///   re-establishes, so an account that moved without one shows here;
    /// - the account equals the bytes queued in the switch whose `ingress`
    ///   stamp is this port (expected: the recount), so no packet joined
    ///   or left without booking;
    /// - the account stays within `headroom` (expected: it): what the
    ///   pause bounds instead of the buffer.
    pub(crate) fn audit_pfc(
        &mut self,
        when: SimTime,
        switch: u32,
        pfc: &PfcConfig,
        ingress: &[PfcIngress],
    ) {
        for (pi, port) in ingress.iter().enumerate() {
            let key = switch_port_key(switch, pi as u16);
            for (p, (&booked, &queued)) in port.booked.iter().zip(&port.queued).enumerate() {
                let on = port.xoff_sent & (1 << p) != 0;
                if !on && booked >= pfc.xoff_bytes {
                    self.record(SanCheck::PfcState, when, key, pfc.xoff_bytes, booked);
                } else if on && booked <= pfc.xon_bytes {
                    self.record(SanCheck::PfcState, when, key, pfc.xon_bytes, booked);
                }
                if booked != queued {
                    self.record(SanCheck::PfcState, when, key, queued, booked);
                }
                if booked > port.headroom {
                    self.record(SanCheck::PfcState, when, key, port.headroom, booked);
                }
            }
        }
    }

    /// The queue shadow must hold one key per queued entry (subject
    /// `u64::MAX`: the queue as a whole).
    pub(crate) fn audit_queue(&mut self, when: SimTime, len: usize) {
        if self.queued.len() != len {
            let shadow = self.queued.len() as u64;
            self.record(SanCheck::EventOrder, when, u64::MAX, shadow, len as u64);
        }
    }

    /// Compare the fault-drop ledger against the engine's attributed
    /// total (`FaultState::drops`, surfaced as `FaultReport.fault_drops`).
    pub(crate) fn audit_faults(&mut self, when: SimTime, attributed: u64) {
        if attributed != self.fault_drops {
            self.record(SanCheck::FaultAttribution, when, 0, self.fault_drops, attributed);
        }
    }

    /// Violations recorded since the last flush (the engine emits these
    /// as `TraceEvent::SanViolation` and marks them flushed).
    pub(crate) fn unflushed(&self) -> &[SanViolation] {
        &self.violations[self.flushed..]
    }

    /// Mark every recorded violation as flushed; returns true when any
    /// violation has ever been recorded (the run must stop abnormally).
    pub(crate) fn mark_flushed(&mut self) -> bool {
        self.flushed = self.violations.len();
        !self.violations.is_empty()
    }
}

impl<P: Payload> Simulator<P> {
    /// Install the runtime invariant sanitizer at the given cadence
    /// (see DESIGN.md §13). The ledger is seeded from the engine's
    /// current state, so installing between `run()` calls is supported.
    /// Replaces any previously installed sanitizer.
    pub fn set_sanitizer(&mut self, level: SanLevel) {
        let mut san = Box::new(Sanitizer::new(level));
        self.settle_ports();
        // The wire ledger holds the occupied slots no queue refers to.
        let queued: BTreeSet<usize> = self
            .san_ports()
            .flat_map(|(_, port)| port.queues.iter().map(|h| h.pkt.0 as usize))
            .collect();
        for slot in self.effects.pool.occupied_slots().filter(|slot| !queued.contains(slot)) {
            san.seed_pool_slot(slot);
        }
        for (key, port) in self.san_ports() {
            san.seed_port(key, port.queues.total_bytes(), port.queues.len() as u64, port.busy);
        }
        san.seed_faults(self.faults.as_ref().map_or(0, |fs| fs.drops));
        for (at, seq) in self.queue.keys() {
            san.observe_push(at, seq);
        }
        self.san = Some(san);
    }

    /// Whether the sanitizer is currently installed.
    pub fn sanitizer_enabled(&self) -> bool {
        self.san.is_some()
    }

    /// Every sanitizer violation recorded so far (empty when disabled).
    pub fn san_violations(&self) -> &[SanViolation] {
        self.san.as_deref().map_or(&[], |s| s.violations())
    }

    /// Every egress port under its ledger key: host NICs in host order,
    /// then switch ports in (switch, port) order.
    fn san_ports(&self) -> impl Iterator<Item = (u64, &PortState)> {
        let nics =
            self.hosts.iter().enumerate().filter_map(|(hi, host)| {
                host.nic.as_ref().map(|nic| (host_port_key(hi as u32), nic))
            });
        let switch_ports = self.switches.iter().enumerate().flat_map(|(si, sw)| {
            let keyed = move |(pi, port)| (switch_port_key(si as u32, pi as u16), port);
            sw.ports.iter().enumerate().map(keyed)
        });
        nics.chain(switch_ports)
    }

    /// Count one dispatched event against the sanitizer cadence; when an
    /// audit is due, run it and flush. Returns true when the run must stop
    /// with `StopReason::SanViolation`.
    pub(crate) fn san_tick(&mut self) -> bool {
        let due = match self.san.as_mut() {
            Some(s) => s.tick(),
            None => return false,
        };
        if !due {
            return false;
        }
        self.san_audit(false);
        self.san_flush()
    }

    /// [`Simulator::settle`] every egress port, so `busy` can be compared
    /// with the ledger (which closes a transmit when the port settles).
    fn settle_ports(&mut self) {
        for hi in 0..self.hosts.len() {
            if self.hosts[hi].nic.is_some() {
                self.settle(NodeId::Host(HostId(hi as u32)), 0);
            }
        }
        for si in 0..self.switches.len() {
            for pi in 0..self.switches[si].ports.len() {
                self.settle(NodeId::Switch(SwitchId(si as u32)), pi as u16);
            }
        }
    }

    /// Cross-check the sanitizer ledger against the engine's real state.
    pub(crate) fn san_audit(&mut self, quiescent: bool) {
        self.settle_ports();
        let Some(mut san) = self.san.take() else { return };
        let now = self.now;
        let queued = self.san_ports().map(|(_, port)| port.queues.len() as u64).sum();
        let pool = &self.effects.pool;
        san.audit_pool(now, pool.stats().live, queued, pool.occupied(), quiescent);
        if quiescent {
            san.audit_rto_timers(now);
        }
        for (key, port) in self.san_ports() {
            san.audit_port(
                now,
                key,
                port.queues.total_bytes(),
                port.queues.len() as u64,
                port.busy,
                port.queues.audit_counters(),
            );
        }
        for (si, sw) in self.switches.iter().enumerate() {
            let Some(pfc) = &sw.cfg.pfc else { continue };
            let account = |port: &PortState| {
                let link = &self.links[port.link.0 as usize];
                let in_flight = link.rate.bytes_in(link.delay * 2) + 2 * MTU_BYTES as u64;
                let (xoff_sent, booked) = (port.xoff_sent, port.ingress_bytes);
                let queued = [0; NUM_PRIORITIES];
                PfcIngress { xoff_sent, booked, queued, headroom: pfc.xoff_bytes + in_flight }
            };
            let mut ingress: Vec<_> = sw.ports.iter().map(account).collect();
            for h in sw.ports.iter().flat_map(|port| port.queues.iter()) {
                let stamp = pool.meta(h.pkt).ingress as usize;
                ingress[stamp].queued[h.priority as usize] += h.wire_bytes as u64;
            }
            san.audit_pfc(now, si as u32, pfc, &ingress);
        }
        san.audit_faults(now, self.faults.as_ref().map_or(0, |fs| fs.drops));
        san.audit_queue(now, self.queue.len());
        self.san = Some(san);
    }

    /// Emit every not-yet-reported violation as a `SanViolation` trace
    /// event (stamped with its detection time); returns true when any
    /// violation has ever been recorded.
    pub(crate) fn san_flush(&mut self) -> bool {
        let Some(mut san) = self.san.take() else { return false };
        for v in san.unflushed() {
            if let Some(sink) = self.trace.as_mut() {
                let ev = TraceEvent::SanViolation {
                    check: v.check,
                    subject: v.subject,
                    expected: v.expected,
                    actual: v.actual,
                };
                sink.emit(v.at.0, &ev);
            }
        }
        let any = san.mark_flushed();
        self.san = Some(san);
        any
    }
}

/// Deliberate state-corruption hooks for the simsan selftest suite
/// (`tests/sanitizer.rs`): each seeds exactly one corruption class that
/// the sanitizer must flag (`corrupt_tie_break` and `corrupt_queue_loss`
/// sit beside the queue in [`crate::engine`]). Compiled only for tests and
/// the `simsan-selftest` feature — release artifacts never contain them.
#[cfg(any(test, feature = "simsan-selftest"))]
impl<P: Payload> Simulator<P> {
    /// Leak one pooled packet buffer: a slot vanishes from the free list
    /// with no packet in it, so the pool counts one more occupied slot
    /// than there are packets on wires and in queues. No-op until at
    /// least one packet has cycled through the pool.
    pub fn corrupt_pool_leak(&mut self) {
        self.effects.pool.free_list_mut().pop();
    }

    /// Replay a free of an already-freed pool slot into the sanitizer's
    /// ledger — the event stream a double-free bug would produce. No-op
    /// until at least one slot has been freed or the sanitizer is off.
    pub fn corrupt_pool_double_free(&mut self) {
        let now = self.now;
        let slot = self.effects.pool.free_list_mut().first().copied();
        if let (Some(slot), Some(s)) = (slot, self.san.as_mut()) {
            s.observe_free(now, slot as usize);
        }
    }

    /// Skew a host NIC's internal byte counters away from its queue
    /// contents (the accounting-drift bug class).
    pub fn corrupt_queue_counter(&mut self, host: HostId, skew_bytes: u64) {
        if let Some(nic) = self.hosts[host.0 as usize].nic.as_mut() {
            nic.queues.corrupt_skew_bytes(skew_bytes);
        }
    }

    /// Schedule a TxDone for a host NIC with no serialization in flight
    /// (the phantom-completion bug class).
    pub fn corrupt_phantom_tx_done(&mut self, host: HostId) {
        self.schedule(self.now, Ev::TxDone { node: NodeId::Host(host), port: 0 });
    }

    /// Replay two arms of `flow`'s RTO timer into the sanitizer's ledger
    /// with no fire or supersession between them — the note stream of a
    /// sender that schedules a second live timer. No-op when the
    /// sanitizer is off.
    pub fn corrupt_rto_double_arm(&mut self, flow: FlowId) {
        let now = self.now;
        if let Some(s) = self.san.as_mut() {
            s.observe_note(now, SanNote::RtoArm { flow: flow.0 });
            s.observe_note(now, SanNote::RtoArm { flow: flow.0 });
        }
    }

    /// Bump the fault layer's drop counter without any packet having been
    /// destroyed, leaving a drop the `FaultReport` cannot attribute.
    /// No-op unless a fault schedule is installed.
    pub fn corrupt_fault_attribution(&mut self) {
        if let Some(fs) = self.faults.as_mut() {
            fs.drops += 1;
        }
    }

    /// Book one MTU of priority 0 into ingress port 0's account on the
    /// first PFC switch with no packet behind it: the drift a packet that
    /// left without its booking leaves. No-op when no switch runs PFC.
    pub fn corrupt_pfc_state(&mut self) {
        let sw = self.switches.iter_mut().find(|sw| sw.cfg.pfc.is_some());
        if let Some(port) = sw.and_then(|sw| sw.ports.first_mut()) {
            port.ingress_bytes[0] += MTU_BYTES as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(1_000);

    #[test]
    fn pool_ledger_flags_double_free_and_leaks() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.observe_alloc(T0, 0);
        s.observe_free(T0, 0);
        assert!(s.violations().is_empty());
        s.observe_free(T0, 0);
        assert_eq!(s.violations().len(), 1);
        assert_eq!(s.violations()[0].check, SanCheck::PoolConservation);

        // A pool that says one packet on a wire vs an empty ledger is a leak.
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.audit_pool(T0, 1, 0, 1, true);
        assert_eq!(s.violations().len(), 2, "mismatch + quiescence: {:?}", s.violations());

        // Two on wires and three queued fill five slots; a sixth occupied
        // slot belongs to nobody, and a queue that lost a packet shows too.
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.observe_alloc(T0, 0);
        s.observe_alloc(T0, 4);
        s.audit_pool(T0, 2, 3, 5, false);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        s.audit_pool(T0, 2, 3, 6, false);
        s.audit_pool(T0, 2, 2, 5, false);
        assert_eq!(s.violations().len(), 2, "{:?}", s.violations());
        // Nothing on a wire is not enough at a quiescent end.
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.audit_pool(T0, 0, 1, 1, true);
        assert_eq!(s.violations().len(), 1, "a packet stranded in a queue: {:?}", s.violations());
    }

    #[test]
    fn clock_and_tie_break_discipline() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.observe_schedule(SimTime(10), SimTime(5), 0);
        s.observe_schedule(SimTime(10), SimTime(5), 1);
        assert!(s.violations().is_empty());
        // Sequence rewind: the FIFO tie-break is broken.
        s.observe_schedule(SimTime(10), SimTime(5), 1);
        assert_eq!(s.violations()[0].check, SanCheck::TieBreak);
        // Scheduling into the past.
        s.observe_schedule(SimTime(3), SimTime(5), 9);
        assert!(s.violations().iter().any(|v| v.check == SanCheck::SchedulePast));

        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.observe_push(SimTime(5), 0);
        s.observe_push(SimTime(5), 2);
        s.observe_pop(SimTime(5), 0, SimTime(5));
        s.observe_pop(SimTime(5), 2, SimTime(5));
        assert!(s.violations().is_empty());
        s.observe_pop(SimTime(4), 3, SimTime(5));
        assert_eq!(s.violations()[0].check, SanCheck::ClockMonotonic);
    }

    #[test]
    fn event_order_shadow_requires_the_least_pushed_key() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        let keys = [(SimTime(10), 0), (SimTime(10), 3), (SimTime(20), 1), (SimTime(30), 2)];
        for (at, seq) in keys {
            s.observe_push(at, seq);
        }
        s.observe_pop(SimTime(10), 0, SimTime(0));
        s.audit_queue(T0, 3);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        // (10, 3) is lost: the next pop names it and the key popped, and
        // writes it off, so the following pop and audit are clean again.
        s.observe_pop(SimTime(20), 1, SimTime(10));
        let got: Vec<_> =
            s.violations().iter().map(|v| (v.at, v.subject, v.expected, v.actual)).collect();
        assert_eq!(got, [(SimTime(20), 10, 3, 1)]);
        s.audit_queue(T0, 1);
        s.observe_pop(SimTime(30), 2, SimTime(20));
        assert_eq!(s.violations().len(), 1);
        // A pop nobody pushed, and a queue holding more than was pushed.
        s.observe_pop(SimTime(40), 9, SimTime(30));
        s.audit_queue(T0, 1);
        let got: Vec<_> =
            s.violations()[1..].iter().map(|v| (v.subject, v.expected, v.actual)).collect();
        assert_eq!(got, [(u64::MAX, u64::MAX, 9), (u64::MAX, 0, 1)]);
        assert!(s.violations().iter().all(|v| v.check == SanCheck::EventOrder));
    }

    #[test]
    fn queue_shadow_catches_skew() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        let key = host_port_key(3);
        s.observe_queue_push(key, 1500);
        s.observe_queue_push(key, 64);
        s.observe_queue_pop(T0, key, 1500);
        s.audit_port(T0, key, 64, 1, false, None);
        assert!(s.violations().is_empty());
        // Engine counter drifted by 100 bytes.
        s.audit_port(T0, key, 164, 1, false, None);
        assert_eq!(s.violations()[0].check, SanCheck::QueueAccounting);
    }

    #[test]
    fn link_occupancy_catches_phantom_txdone() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        let key = switch_port_key(0, 2);
        s.observe_tx_start(T0, key);
        s.observe_tx_done(T0, key);
        assert!(s.violations().is_empty());
        s.observe_tx_done(T0, key);
        assert_eq!(s.violations()[0].check, SanCheck::LinkOccupancy);
    }

    #[test]
    fn ack_ledger_enforces_monotone_cum_ack() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.observe_note(T0, SanNote::AckAdvance { flow: 7, cum_acked: 1000 });
        s.observe_note(T0, SanNote::AckAdvance { flow: 7, cum_acked: 4000 });
        assert!(s.violations().is_empty());
        s.observe_note(T0, SanNote::AckAdvance { flow: 7, cum_acked: 2000 });
        assert_eq!(s.violations()[0].check, SanCheck::TransportConservation);
    }

    #[test]
    fn rto_ledger_allows_one_live_timer_per_flow() {
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        // Arm, re-sleep, supersede, fire: never more than one live timer.
        for note in [
            SanNote::RtoArm { flow: 7 },
            SanNote::RtoDisarm { flow: 7 },
            SanNote::RtoArm { flow: 7 },
            SanNote::RtoDisarm { flow: 7 },
        ] {
            s.observe_note(T0, note);
        }
        // A flow armed before a mid-run install enters the ledger at zero.
        s.observe_note(T0, SanNote::RtoDisarm { flow: 8 });
        s.audit_rto_timers(T0);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        // A second arm while one is live, a fire nobody armed, and a timer
        // still held when the queue has drained are all flagged.
        s.observe_note(T0, SanNote::RtoArm { flow: 7 });
        s.observe_note(T0, SanNote::RtoArm { flow: 7 });
        assert_eq!(s.violations().len(), 1);
        s.observe_note(T0, SanNote::RtoDisarm { flow: 8 });
        assert_eq!(s.violations().len(), 2);
        s.audit_rto_timers(T0);
        assert_eq!(s.violations().len(), 3);
        assert!(s.violations().iter().all(|v| v.check == SanCheck::TransportConservation));
    }

    #[test]
    fn pfc_audit_holds_accounts_to_bits_recounts_and_headroom() {
        let pfc = PfcConfig { xoff_bytes: 3_000, xon_bytes: 1_000 };
        let at = |bytes: &[u64]| std::array::from_fn(|p| bytes.get(p).copied().unwrap_or(0));
        let ingress =
            |xoff_sent, booked, queued| PfcIngress { xoff_sent, booked, queued, headroom: 10_000 };
        // P0 asserted at XOFF, P1 released inside the band, both made up
        // of what is queued; then P1 asserted inside the band: consistent.
        let port0 = at(&[3_000, 2_000]);
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        s.audit_pfc(T0, 4, &pfc, &[ingress(0b01, port0, port0)]);
        s.audit_pfc(T0, 4, &pfc, &[ingress(0b11, port0, port0)]);
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        // Port 1: a bit set at XON whose account the queue does not make
        // up, a bit clear at XOFF, and an account past the headroom.
        let port1 = ingress(0b101, at(&[1_000, 3_000, 12_000]), at(&[500, 3_000, 12_000]));
        s.audit_pfc(T0, 4, &pfc, &[ingress(0b01, port0, port0), port1]);
        let got: Vec<_> =
            s.violations().iter().map(|v| (v.subject, v.expected, v.actual)).collect();
        let key = switch_port_key(4, 1);
        let want =
            [(key, 1_000, 1_000), (key, 500, 1_000), (key, 3_000, 3_000), (key, 10_000, 12_000)];
        assert_eq!(got, want);
        assert!(s.violations().iter().all(|v| v.check == SanCheck::PfcState));
    }

    #[test]
    fn epoch_cadence_fires_every_epoch() {
        let mut s = Sanitizer::new(SanLevel::PerEpoch);
        let due: u64 = (0..EPOCH_EVENTS * 2).map(|_| s.tick() as u64).sum();
        assert_eq!(due, 2);
        let mut s = Sanitizer::new(SanLevel::PerEvent);
        assert!(s.tick() && s.tick());
        let mut s = Sanitizer::new(SanLevel::AtEnd);
        assert!(!s.tick());
    }

    #[test]
    fn level_parsing() {
        assert_eq!(SanLevel::parse("1"), Some(SanLevel::PerEpoch));
        assert_eq!(SanLevel::parse("epoch"), Some(SanLevel::PerEpoch));
        assert_eq!(SanLevel::parse("event"), Some(SanLevel::PerEvent));
        assert_eq!(SanLevel::parse("end"), Some(SanLevel::AtEnd));
        assert_eq!(SanLevel::parse("0"), None);
        assert_eq!(SanLevel::parse(""), None);
    }
}
