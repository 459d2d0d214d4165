//! Deterministic fault injection: timed host outages, switch stalls, and
//! random packet/ACK loss.
//!
//! A [`FaultSchedule`] is attached to a [`crate::Simulator`] before the
//! run via [`crate::Simulator::set_fault_schedule`]. Two fault classes are
//! supported:
//!
//! - **Timed operations** ([`FaultOp`]): host down/up and switch
//!   stall/resume at fixed simulated instants. They enter the ordinary
//!   event heap as `Ev::Fault` entries, so they interleave with traffic
//!   under the same `(time, seq)` total order as everything else. A host
//!   op acts on the host's uplink, looked up when the op fires.
//! - **Random loss**: independent per-packet drop probabilities, decided
//!   at serialization time from a dedicated [`Pcg32`] stream seeded by
//!   [`FaultSchedule::seed`]. Data packets (non-zero payload) use
//!   `data_loss`; control packets (header-only: ACKs, NACKs, pulls,
//!   credits) use `ack_loss`, optionally restricted to priorities `>=`
//!   [`LP_ACK_MIN_PRIO`] — which isolates PPT's low-priority ACK band
//!   (LP ACKs ride P4+, HCP ACKs ride P0).
//!
//! Determinism: the fault RNG is owned by the simulator, advances only
//! when a non-zero probability applies to a serialized packet, and timed
//! ops are scheduled in schedule order, once each, by the `run` call that
//! follows their installation.
//! Identical schedules + seeds therefore reproduce byte-identical traces
//! regardless of how many sweep workers run other simulations in parallel
//! (each `Simulator` is fully self-contained; see DESIGN.md §11).
//!
//! The live side of a schedule is `FaultState`: link/switch status, the
//! loss RNG and the recovery counters behind [`FaultReport`]. It takes
//! what it reads as arguments and never sees the simulator, so its state
//! machine is testable without a topology. The engine side — what a
//! dispatched `Ev::Fault` does to the simulator — is
//! `Simulator::apply_fault` below it.

use dcn_trace::TraceEvent;

use crate::engine::Simulator;
use crate::ids::{HostId, LinkId, NodeId, SwitchId};
use crate::packet::Payload;
use crate::rng::Pcg32;
use crate::time::{SimDuration, SimTime};

/// The lowest priority of PPT's low-priority ACK band, the one
/// [`FaultSchedule::lp_acks_only`] confines `ack_loss` to.
pub const LP_ACK_MIN_PRIO: u8 = 4;

/// One timed fault operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Take a host's uplink (the link its NIC transmits on) down: packets
    /// serialized onto it while down are lost (the sender still pays
    /// serialization time).
    HostDown(HostId),
    /// Bring a downed host uplink back up.
    HostUp(HostId),
    /// Freeze a switch's egress scheduling: queues keep admitting (and
    /// tail-dropping) but no packet starts serialization on any port.
    StallStart(SwitchId),
    /// Resume a stalled switch; backlogged ports restart immediately.
    StallEnd(SwitchId),
}

/// A [`FaultOp`] pinned to an absolute simulated instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedFault {
    /// When the operation applies.
    pub at: SimTime,
    /// What happens.
    pub op: FaultOp,
}

/// A complete fault scenario for one run: timed operations plus random
/// loss probabilities. Built with the fluent helpers, then handed to
/// [`crate::Simulator::set_fault_schedule`]. A builder's hosts and switches
/// have their creation order as ids, so a schedule can precede its topology.
///
/// ```
/// use netsim::{FaultSchedule, HostId, SimDuration, SimTime, SwitchId};
/// let faults = FaultSchedule::new(7)
///     .host_outage(HostId(0), SimTime(1_000_000), SimTime(3_000_000))
///     .stall_switch(SwitchId(0), SimTime(5_000_000), SimDuration::from_micros(500))
///     .with_data_loss(0.01);
/// assert_eq!(faults.ops.len(), 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    /// Timed operations, applied in push order (ties broken by push order).
    pub ops: Vec<TimedFault>,
    /// Probability that a serialized *data* packet (payload > 0) is lost.
    pub data_loss: f64,
    /// Probability that a serialized *control* packet (header-only: ACKs,
    /// NACKs, pulls, credits) is lost.
    pub ack_loss: f64,
    /// `ack_loss` only applies to control packets of priority
    /// [`LP_ACK_MIN_PRIO`] and above: PPT's low-priority ACK band, the
    /// §3.2 "LCP ACKs all lost" experiment. `false` covers every control
    /// packet.
    pub lp_acks_only: bool,
    /// Seed for the dedicated fault RNG stream.
    pub seed: u64,
}

impl FaultSchedule {
    /// An empty schedule (no timed ops, no loss) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultSchedule { ops: Vec::new(), data_loss: 0.0, ack_loss: 0.0, lp_acks_only: false, seed }
    }

    /// Append one timed operation.
    pub fn op(mut self, at: SimTime, op: FaultOp) -> Self {
        self.ops.push(TimedFault { at, op });
        self
    }

    /// Take `host`'s uplink down at `from` and restore it at `until`.
    pub fn host_outage(self, host: HostId, from: SimTime, until: SimTime) -> Self {
        debug_assert!(from < until, "outage must end after it starts");
        self.op(from, FaultOp::HostDown(host)).op(until, FaultOp::HostUp(host))
    }

    /// Stall `switch` at `at` for `duration`.
    pub fn stall_switch(self, switch: SwitchId, at: SimTime, duration: SimDuration) -> Self {
        self.op(at, FaultOp::StallStart(switch)).op(at + duration, FaultOp::StallEnd(switch))
    }

    /// Set the random data-packet loss probability.
    pub fn with_data_loss(mut self, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "loss probability {p} outside [0, 1]");
        self.data_loss = p;
        self
    }

    /// Set the random control-packet (ACK) loss probability.
    pub fn with_ack_loss(mut self, p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p), "loss probability {p} outside [0, 1]");
        self.ack_loss = p;
        self
    }

    /// Confine `ack_loss` to the low-priority ACK band.
    pub fn lp_acks_only(mut self) -> Self {
        self.lp_acks_only = true;
        self
    }

    /// True when the schedule can never affect a run.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.data_loss <= 0.0 && self.ack_loss <= 0.0
    }
}

/// Fault-layer recovery statistics for one run. All zeros when no
/// [`FaultSchedule`] was installed (retransmit noting still works).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Packets destroyed by the fault layer (random loss + down links).
    pub fault_drops: u64,
    /// Retransmissions noted by transports via `Ctx::note_retransmit`,
    /// summed over all flows.
    pub retransmits: u64,
    /// Longest single fault interval (link outage or switch stall),
    /// including intervals still open when the run stopped.
    pub max_stall: SimDuration,
    /// Payload bytes delivered to hosts while at least one fault was
    /// active (degraded-mode goodput).
    pub goodput_during_fault_bytes: u64,
}

/// Live fault-injection state: the installed schedule plus the mutable
/// link/switch status and recovery counters it drives.
pub(crate) struct FaultState {
    schedule: FaultSchedule,
    /// How many of the schedule's timed ops are in the event queue.
    pub(crate) scheduled: usize,
    /// Dedicated loss RNG, seeded from the schedule — never shared with
    /// workload generation, so adding loss does not shift workload draws.
    rng: Pcg32,
    /// Start of the open outage per link (`Some` = down), by `LinkId`.
    down_since: Vec<Option<SimTime>>,
    /// Per-switch stall depth (overlapping stalls nest), by `SwitchId`.
    stalled: Vec<u32>,
    /// Start of the currently open stall per switch, for `max_stall`.
    stall_since: Vec<Option<SimTime>>,
    /// Number of currently active faults (down links + stalled switches).
    active: u32,
    /// Packets destroyed so far.
    pub(crate) drops: u64,
    /// Longest closed fault interval so far.
    max_stall: SimDuration,
    /// Payload bytes delivered to hosts while `active > 0`.
    goodput_fault_bytes: u64,
}

impl FaultState {
    /// Arm `schedule` over a fabric of `n_links` links and `n_switches`
    /// switches, everything up and unstalled.
    pub(crate) fn new(schedule: FaultSchedule, n_links: usize, n_switches: usize) -> Self {
        FaultState {
            rng: Pcg32::seed_from_u64(schedule.seed),
            down_since: vec![None; n_links],
            stalled: vec![0; n_switches],
            stall_since: vec![None; n_switches],
            active: 0,
            drops: 0,
            max_stall: SimDuration::ZERO,
            goodput_fault_bytes: 0,
            schedule,
            scheduled: 0,
        }
    }

    /// Index and time of the next timed op not yet in the event queue,
    /// counting it as scheduled.
    pub(crate) fn next_unscheduled(&mut self) -> Option<(u32, SimTime)> {
        let i = self.scheduled;
        let at = self.schedule.ops.get(i)?.at;
        self.scheduled += 1;
        Some((i as u32, at))
    }

    /// The timed operations, in the order they enter the event queue.
    pub(crate) fn ops(&self) -> &[TimedFault] {
        &self.schedule.ops
    }

    /// Take `link` down (`down`) or bring it back up at `now`. A second
    /// down, or an up on an up link, changes nothing.
    pub(crate) fn set_link_down(&mut self, link: LinkId, down: bool, now: SimTime) {
        let since = &mut self.down_since[link.0 as usize];
        if down && since.is_none() {
            *since = Some(now);
            self.active += 1;
        } else if let Some(t0) = since.take_if(|_| !down) {
            self.close_interval(t0, now);
        }
    }

    /// Start (`stall`) or end one stall of `switch` at `now`; stalls nest,
    /// and an end on an unstalled switch changes nothing. Returns whether
    /// this ended the last of its nested stalls, so its ports must restart.
    pub(crate) fn set_stalled(&mut self, switch: SwitchId, stall: bool, now: SimTime) -> bool {
        let si = switch.0 as usize;
        if stall {
            self.stalled[si] += 1;
            if self.stalled[si] == 1 {
                self.stall_since[si] = Some(now);
                self.active += 1;
            }
        } else if self.stalled[si] > 0 {
            self.stalled[si] -= 1;
            if self.stalled[si] == 0 {
                if let Some(t0) = self.stall_since[si].take() {
                    self.close_interval(t0, now);
                }
                return true;
            }
        }
        false
    }

    fn close_interval(&mut self, t0: SimTime, now: SimTime) {
        self.max_stall = self.max_stall.max(now.saturating_since(t0));
        self.active -= 1;
    }

    /// Whether `switch` is stalled (admits and drops, never serializes).
    pub(crate) fn is_stalled(&self, switch: SwitchId) -> bool {
        self.stalled.get(switch.0 as usize).is_some_and(|&depth| depth > 0)
    }

    /// Book a host delivery of `payload_bytes` as degraded-mode goodput
    /// when any fault is active.
    pub(crate) fn note_delivery(&mut self, payload_bytes: u32) {
        if self.active > 0 {
            self.goodput_fault_bytes += payload_bytes as u64;
        }
    }

    /// Whether the fault layer destroys a packet of `payload_bytes` at
    /// `prio` being serialized onto `link`. Draws from the fault RNG only
    /// when a non-zero probability applies, so loss-free schedules take
    /// zero draws.
    // simlint: hot-path
    pub(crate) fn loses_packet(&mut self, link: LinkId, payload_bytes: u32, prio: u8) -> bool {
        if self.down_since.get(link.0 as usize).is_some_and(|d| d.is_some()) {
            self.drops += 1;
            return true;
        }
        // Control packets (header-only: ACKs, NACKs, pulls, credits) use
        // the ACK-loss knob, gated on the priority band; data uses data_loss.
        let p = if payload_bytes > 0 {
            self.schedule.data_loss
        } else if !self.schedule.lp_acks_only || prio >= LP_ACK_MIN_PRIO {
            self.schedule.ack_loss
        } else {
            0.0
        };
        if p > 0.0 && self.rng.next_f64() < p {
            self.drops += 1;
            return true;
        }
        false
    }
    // simlint: hot-path-end

    /// Statistics so far; `max_stall` counts fault intervals still open
    /// at `now`. `retransmits` is the engine's to fill in.
    pub(crate) fn report(&self, now: SimTime) -> FaultReport {
        let open = self.down_since.iter().chain(&self.stall_since).flatten();
        FaultReport {
            fault_drops: self.drops,
            retransmits: 0,
            max_stall: open.fold(self.max_stall, |m, t0| m.max(now.saturating_since(*t0))),
            goodput_during_fault_bytes: self.goodput_fault_bytes,
        }
    }
}

impl<P: Payload> Simulator<P> {
    /// Apply timed fault op `idx` (dispatch target for `Ev::Fault`).
    pub(crate) fn apply_fault(&mut self, idx: u32) {
        let now = self.now;
        let Some(fs) = self.faults.as_ref() else { return };
        let Some(op) = fs.ops().get(idx as usize).map(|timed| timed.op) else { return };
        match op {
            FaultOp::HostDown(h) | FaultOp::HostUp(h) => {
                let (link, down) = (self.host_uplink(h), op == FaultOp::HostDown(h));
                if let Some(fs) = self.faults.as_mut() {
                    fs.set_link_down(link, down, now);
                }
                self.emit(if down {
                    TraceEvent::LinkDown { link: link.0 }
                } else {
                    TraceEvent::LinkUp { link: link.0 }
                });
            }
            FaultOp::StallStart(s) | FaultOp::StallEnd(s) => {
                let stall = op == FaultOp::StallStart(s);
                if self.faults.as_mut().is_some_and(|fs| fs.set_stalled(s, stall, now)) {
                    // Restart every backlogged idle port in a fixed (port
                    // index) order so the resume is deterministic.
                    for pi in 0..self.switches[s.0 as usize].ports.len() {
                        self.kick(NodeId::Switch(s), pi as u16);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Ctx, FlowDesc, Transport};
    use crate::packet::{NoPayload, Packet};
    use crate::report::{RunLimits, StopReason};
    use crate::{topology, Rate, SwitchConfig};
    use dcn_trace::MemorySink;

    fn state(schedule: FaultSchedule) -> FaultState {
        FaultState::new(schedule, 2, 2)
    }

    #[test]
    fn nested_stalls_resume_only_on_the_last_end() {
        let (sw, other) = (SwitchId(1), SwitchId(0));
        let mut fs = state(FaultSchedule::new(1));
        assert!(!fs.set_stalled(sw, true, SimTime(100)));
        assert!(!fs.set_stalled(sw, true, SimTime(200)));
        assert!(fs.is_stalled(sw) && !fs.is_stalled(other));
        assert!(!fs.set_stalled(sw, false, SimTime(300)), "one stall still open");
        assert!(fs.is_stalled(sw));
        assert_eq!(fs.active, 1, "nested stalls of one switch are one active fault");
        assert!(fs.set_stalled(sw, false, SimTime(450)));
        assert!(!fs.is_stalled(sw));
        assert_eq!(fs.active, 0);
        // The interval runs from the first start to the last end.
        assert_eq!(fs.report(SimTime(1_000)).max_stall, SimDuration::from_nanos(350));
    }

    #[test]
    fn redundant_ops_leave_the_active_count_untouched() {
        let mut fs = state(FaultSchedule::new(1));
        fs.set_link_down(LinkId(0), false, SimTime(10));
        assert!(!fs.set_stalled(SwitchId(0), false, SimTime(10)));
        assert_eq!(fs.active, 0, "closing what was never opened must not underflow");
        fs.set_link_down(LinkId(0), true, SimTime(20));
        fs.set_link_down(LinkId(0), true, SimTime(30));
        assert_eq!(fs.active, 1, "a link is down once however often it is taken down");
        fs.set_link_down(LinkId(0), false, SimTime(50));
        fs.set_link_down(LinkId(0), false, SimTime(60));
        assert_eq!(fs.active, 0);
        assert_eq!(fs.report(SimTime(100)).max_stall, SimDuration::from_nanos(30));
    }

    #[test]
    fn report_counts_an_interval_still_open() {
        let mut fs = state(FaultSchedule::new(1));
        fs.set_link_down(LinkId(1), true, SimTime(100));
        fs.set_link_down(LinkId(1), false, SimTime(150));
        fs.set_stalled(SwitchId(0), true, SimTime(200));
        assert_eq!(fs.report(SimTime(220)).max_stall, SimDuration::from_nanos(50));
        assert_eq!(fs.report(SimTime(900)).max_stall, SimDuration::from_nanos(700));
        // Goodput is booked only while a fault is active.
        fs.note_delivery(1_000);
        fs.set_stalled(SwitchId(0), false, SimTime(950));
        fs.note_delivery(5_000);
        assert_eq!(fs.report(SimTime(950)).goodput_during_fault_bytes, 1_000);
    }

    #[test]
    fn loss_free_schedule_draws_nothing_from_the_rng() {
        let mut fs = state(FaultSchedule::new(9));
        fs.set_link_down(LinkId(0), true, SimTime(0));
        // A downed link destroys without a draw; with both probabilities
        // zero, neither data nor control packets consult the RNG.
        assert!(fs.loses_packet(LinkId(0), 1_460, 0));
        for prio in 0..8 {
            assert!(!fs.loses_packet(LinkId(1), 1_460, prio));
            assert!(!fs.loses_packet(LinkId(1), 0, prio));
        }
        assert_eq!(fs.rng.next_u64(), Pcg32::seed_from_u64(9).next_u64());
        assert_eq!(fs.report(SimTime(5)).fault_drops, 1);
    }

    #[test]
    fn builders_accumulate_ops_in_order() {
        let s = FaultSchedule::new(1)
            .host_outage(HostId(2), SimTime(100), SimTime(200))
            .stall_switch(SwitchId(0), SimTime(150), SimDuration::from_nanos(25));
        assert_eq!(
            s.ops,
            vec![
                TimedFault { at: SimTime(100), op: FaultOp::HostDown(HostId(2)) },
                TimedFault { at: SimTime(200), op: FaultOp::HostUp(HostId(2)) },
                TimedFault { at: SimTime(150), op: FaultOp::StallStart(SwitchId(0)) },
                TimedFault { at: SimTime(175), op: FaultOp::StallEnd(SwitchId(0)) },
            ]
        );
    }

    #[test]
    fn emptiness_tracks_every_knob() {
        assert!(FaultSchedule::new(9).is_empty());
        assert!(!FaultSchedule::new(9).with_data_loss(0.5).is_empty());
        assert!(!FaultSchedule::new(9).with_ack_loss(0.5).is_empty());
        assert!(!FaultSchedule::new(9).op(SimTime(1), FaultOp::HostDown(HostId(0))).is_empty());
    }

    /// Sends one 1 000-byte packet at each flow start and completes the
    /// flow when it arrives.
    struct OnePacket;

    impl Transport<NoPayload> for OnePacket {
        fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, NoPayload>) {
            ctx.send(Packet::data(flow.id, flow.src, flow.dst, 1_000, NoPayload));
        }
        fn on_packet(&mut self, pkt: Packet<NoPayload>, ctx: &mut Ctx<'_, NoPayload>) {
            ctx.flow_completed(pkt.flow);
        }
        fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, NoPayload>) {}
    }

    #[test]
    fn a_down_host_loses_what_it_sends_at_its_uplink_and_the_trace_names_that_link() {
        let mut topo = topology::star::<NoPayload>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(1 << 20),
        );
        // A builder gives hosts their ids in creation order, so a schedule
        // written before the topology names the host it means.
        assert_eq!(topo.hosts, [HostId(0), HostId(1), HostId(2)]);
        for &h in &topo.hosts {
            topo.sim.set_transport(h, Box::new(OnePacket));
        }
        let down = HostId(1);
        // While host 1 is down, what it sends dies on its uplink; what is
        // sent to it still arrives, and so does what it sends afterwards.
        let sent = topo.sim.add_flow(down, HostId(2), 1_000, SimTime(1_000), 1_000);
        let received = topo.sim.add_flow(HostId(0), down, 1_000, SimTime(1_000), 1_000);
        let after = topo.sim.add_flow(down, HostId(2), 1_000, SimTime(60_000), 1_000);
        topo.sim.set_fault_schedule(FaultSchedule::new(1).host_outage(
            down,
            SimTime::ZERO,
            SimTime(50_000),
        ));
        topo.sim.set_trace_sink(Box::new(MemorySink::new()));
        let report = topo.sim.run(RunLimits { max_time: SimTime(200_000), max_events: 100 });
        assert_eq!(report.stop, StopReason::AllFlowsDone);
        assert_eq!(report.faults.fault_drops, 1);
        assert_eq!(topo.sim.completion(sent), None);
        assert!(topo.sim.completion(received).is_some() && topo.sim.completion(after).is_some());
        let sink: Box<dyn std::any::Any> = topo.sim.take_trace_sink().unwrap();
        let events = sink.downcast::<MemorySink>().unwrap().events;
        let link = topo.sim.host_uplink(down).0;
        let outage: Vec<_> = events
            .into_iter()
            .filter(|(_, ev)| matches!(ev, TraceEvent::LinkDown { .. } | TraceEvent::LinkUp { .. }))
            .collect();
        assert_eq!(
            outage,
            [(0, TraceEvent::LinkDown { link }), (50_000, TraceEvent::LinkUp { link })]
        );
    }
}
