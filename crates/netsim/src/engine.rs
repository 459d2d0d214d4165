//! The discrete-event simulation engine: the run loop.
//!
//! A [`Simulator`] owns every node, link and flow, plus a single
//! time-ordered event queue (the calendar queue of [`crate::sched`]).
//! Determinism: events at equal times are dispatched in insertion order
//! (FIFO tie-break on a monotone sequence number), and nothing in the
//! engine consults wall-clock randomness.
//!
//! This file is the loop itself — [`Simulator::run`], `dispatch`,
//! `with_transport` — and the two functions outside [`crate::sched`] that
//! push the event queue: `schedule`, and `push_tx_done` for a `TxDone`
//! whose key was minted at transmit time. What the loop calls into lives in
//! the module named for it: `hop` (what one packet does at one egress
//! port), `topology`, `pool`, `faults`, `pfc`, `telemetry`, `sanitizer`
//! (DESIGN.md §4).

use dcn_trace::{TraceEvent, TraceSink};

use crate::faults::{FaultSchedule, FaultState};
use crate::host::{Ctx, Effects, FlowDesc, Transport};
use crate::ids::{FlowId, HostId, LinkId, NodeId, SwitchId};
use crate::link::Link;
use crate::packet::{Payload, NUM_PRIORITIES};
use crate::pool::{Handle, PkRef};
use crate::queue::QueueBank;
use crate::sanitizer::Sanitizer;
use crate::sched::{CalendarQueue, Due, EventQueue, QEntry};
use crate::switch::{PortCounters, SwitchConfig};
use crate::telemetry::Telemetry;
use crate::time::SimTime;

pub use crate::faults::FaultReport;
pub use crate::pool::PoolStats;
pub use crate::report::{RunLimits, RunReport, StopReason};

/// Engine-internal events. Deliberately `Copy`-sized: the one non-`Copy`
/// payload (a packet) lives in the packet pool's slab for its whole life
/// and is carried here by index, so queue entries are 32-byte values that
/// move through bucket sorts and heap sifts without touching whole packets.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// The application starts flow `flows[idx]` at its source host.
    FlowStart(u32),
    /// A packet finished serialization + propagation and arrives at `to`.
    Deliver { to: NodeId, pkt: PkRef },
    /// An egress transmitter finished serializing; it may start the next
    /// queued packet.
    TxDone { node: NodeId, port: u16 },
    /// A transport timer at `host` fires with `token`.
    Timer { host: HostId, token: u64 },
    /// The telemetry tick; [`crate::telemetry`] is its only producer.
    Sample,
    /// Timed fault operation `schedule.ops[idx]` applies.
    Fault(u32),
    /// A PFC pause (`xoff == true`) or resume frame for priority `prio`
    /// arrives at egress port `port` of `to`. Pause frames are zero-payload
    /// MAC control frames: they never enter egress queues or the packet
    /// pool, so they are carried entirely by this `Copy` event and reach
    /// the neighbour after pure propagation delay.
    Pfc { to: NodeId, port: u16, prio: u8, xoff: bool },
}

/// Profiler accumulator slot for an event, in [`dcn_trace::ProfKind::ALL`]
/// order (`Ev` is crate-private, so the mapping lives here).
fn prof_kind_index(ev: Ev) -> usize {
    match ev {
        Ev::FlowStart(_) => 0,
        Ev::Deliver { .. } => 1,
        Ev::TxDone { .. } => 2,
        Ev::Timer { .. } => 3,
        Ev::Sample => 4,
        Ev::Fault(_) => 5,
        // Pause frames are accounted as deliveries: they are the wire
        // arrivals of (zero-payload) control frames.
        Ev::Pfc { .. } => 1,
    }
}

/// One egress transmitter: a priority-queue bank feeding one link. The
/// bank holds pool handles; the packets stay in the engine's pool.
pub(crate) struct PortState {
    pub(crate) link: LinkId,
    pub(crate) queues: QueueBank<Handle>,
    /// A serialization is in flight. Call [`Simulator::settle`] before
    /// reading it: a port whose `TxDone` was never pushed is still marked
    /// busy after the instant that event would have dispatched.
    pub(crate) busy: bool,
    /// The `(time, seq)` key `transmit` reserved for this serialization's
    /// `TxDone` while that event is not in the queue. It is pushed only
    /// once it has work to do, so `busy && !queues.is_empty()` implies
    /// this is `None` (the event is queued).
    pub(crate) unpushed_tx_done: Option<(SimTime, u64)>,
    pub(crate) counters: PortCounters,
    /// PFC receive state: bit `p` set = priority `p` must not be served
    /// (a pause frame from the downstream neighbour is in effect). Always
    /// zero when no switch on the fabric runs PFC.
    pub(crate) paused_mask: u8,
    /// PFC transmit state (switch ports only): bit `p` set = the
    /// neighbour this port's link leads to has an unreleased pause for
    /// priority `p` from us, because what arrived through this port at
    /// that priority reached XOFF.
    pub(crate) xoff_sent: u8,
    /// PFC ingress accounts (switch ports only): per priority, the bytes
    /// queued anywhere in this switch that arrived through this port
    /// (DESIGN.md §15.1). Only a PFC switch books them.
    pub(crate) ingress_bytes: [u64; NUM_PRIORITIES],
}

impl PortState {
    pub(crate) fn new(link: LinkId) -> Self {
        PortState {
            link,
            queues: QueueBank::new(),
            busy: false,
            unpushed_tx_done: None,
            counters: PortCounters::default(),
            paused_mask: 0,
            xoff_sent: 0,
            ingress_bytes: [0; NUM_PRIORITIES],
        }
    }

    /// Nothing stands between an arriving packet of priority `prio` and
    /// the wire: no serialization in flight, nothing queued, no pause.
    /// Call [`Simulator::settle`] first.
    pub(crate) fn idle_for(&self, prio: u8) -> bool {
        !self.busy && self.queues.is_empty() && self.paused_mask & (1 << prio) == 0
    }
}

pub(crate) struct HostSlot<P> {
    /// The single NIC egress port; `None` until the host is cabled.
    pub(crate) nic: Option<PortState>,
    pub(crate) transport: Option<Box<dyn Transport<P>>>,
    /// Wall-clock nanoseconds spent inside this host's transport handlers
    /// and number of handler invocations (the Fig-19 CPU substitute).
    pub(crate) cpu_ns: u64,
    pub(crate) cpu_calls: u64,
}

pub(crate) struct SwitchSlot {
    pub(crate) ports: Vec<PortState>,
    pub(crate) cfg: SwitchConfig,
    /// Destination-based ECMP table in CSR form: the candidate egress
    /// ports for destination host `d` are
    /// `route_ports[route_offsets[d]..route_offsets[d + 1]]`. Two flat
    /// arrays keep the per-event lookup on adjacent cache lines instead
    /// of chasing a `Vec<Vec<u16>>` double indirection.
    pub(crate) route_offsets: Vec<u32>,
    pub(crate) route_ports: Vec<u16>,
}

/// The simulator.
pub struct Simulator<P: Payload> {
    pub(crate) now: SimTime,
    /// The event queue; simsan shadows its keys ([`crate::sanitizer`]).
    pub(crate) queue: CalendarQueue<Ev>,
    seq: u64,
    /// Sequence number of the event being dispatched: with `now`, the
    /// point the run has reached in `(time, seq)` order.
    pub(crate) cur_seq: u64,
    pub(crate) links: Vec<Link>,
    pub(crate) hosts: Vec<HostSlot<P>>,
    pub(crate) switches: Vec<SwitchSlot>,
    flows: Vec<FlowDesc>,
    /// How many of `flows` have their `FlowStart` in the queue already.
    flows_scheduled: usize,
    completions: Vec<Option<SimTime>>,
    /// The sink every transport handler writes to, and in it the packet
    /// pool: every packet in the network, written there by `Ctx::send`
    /// and referenced from the event queue and the egress banks by
    /// [`PkRef`].
    pub(crate) effects: Effects<P>,
    events: u64,
    pub(crate) flows_completed: usize,
    /// Flows whose `FlowStart` has dispatched; with `flows_completed`
    /// this makes the telemetry live-flow count O(1) per sample tick.
    pub(crate) flows_started: usize,
    /// `None` = fault injection disabled: the hot path pays one branch.
    pub(crate) faults: Option<FaultState>,
    /// Some switch runs PFC: only then can the fabric wedge, and only then
    /// does a timer dispatch look for it ([`Self::pfc_deadlocked`]).
    pub(crate) pfc_fabric: bool,
    /// Pause / resume frames scheduled and not yet applied.
    pub(crate) pfc_frames_in_flight: u32,
    /// Retransmissions noted by transports (`Ctx::note_retransmit`).
    retransmits_total: u64,
    /// `None` = tracing disabled: every emission site reduces to one branch.
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    /// `None` = sanitizer disabled: every observation hook reduces to one
    /// branch (simsan, see [`crate::sanitizer`]).
    pub(crate) san: Option<Box<Sanitizer>>,
    /// `None` = continuous telemetry disabled (see [`crate::telemetry`]);
    /// boxed so the disabled hot path carries one pointer, not the whole
    /// series table.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// Measure wall-clock time in transport handlers (Fig-19 substitute).
    pub measure_cpu: bool,
}

impl<P: Payload> Default for Simulator<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> Simulator<P> {
    /// An empty network.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            seq: 0,
            cur_seq: 0,
            links: Vec::new(),
            hosts: Vec::new(),
            switches: Vec::new(),
            flows: Vec::new(),
            flows_scheduled: 0,
            completions: Vec::new(),
            effects: Effects::default(),
            events: 0,
            flows_completed: 0,
            flows_started: 0,
            faults: None,
            pfc_fabric: false,
            pfc_frames_in_flight: 0,
            retransmits_total: 0,
            trace: None,
            san: None,
            telemetry: None,
            measure_cpu: false,
        }
    }

    /// Install the transport endpoint for a host.
    pub fn set_transport(&mut self, host: HostId, t: Box<dyn Transport<P>>) {
        self.hosts[host.0 as usize].transport = Some(t);
    }

    /// Access a host's transport (e.g. to read recorded state after a run).
    pub fn transport(&self, host: HostId) -> Option<&dyn Transport<P>> {
        self.hosts[host.0 as usize].transport.as_deref()
    }

    // ---------------------------------------------------------------
    // Flows
    // ---------------------------------------------------------------

    /// Register a flow; ids are assigned densely in registration order.
    pub fn add_flow(
        &mut self,
        src: HostId,
        dst: HostId,
        size_bytes: u64,
        start: SimTime,
        first_write_bytes: u64,
    ) -> FlowId {
        assert!(src != dst, "flow with src == dst");
        assert!(size_bytes > 0, "empty flow");
        let id = FlowId(self.flows.len() as u64);
        self.flows.push(FlowDesc { id, src, dst, size_bytes, start, first_write_bytes });
        self.completions.push(None);
        id
    }

    /// All registered flows.
    pub fn flows(&self) -> &[FlowDesc] {
        &self.flows
    }

    /// Completion time of a flow, if it finished.
    pub fn completion(&self, flow: FlowId) -> Option<SimTime> {
        self.completions[flow.0 as usize]
    }

    /// (flow, completion) pairs for all finished flows.
    pub fn completions(&self) -> impl Iterator<Item = (&FlowDesc, SimTime)> {
        self.flows.iter().zip(self.completions.iter()).filter_map(|(f, c)| c.map(|t| (f, t)))
    }

    // ---------------------------------------------------------------
    // Ports, links and counters
    // ---------------------------------------------------------------

    /// Egress port `port` of `node`. A host is a one-port node: its NIC
    /// is port 0, whatever `port` says.
    pub(crate) fn port(&self, node: NodeId, port: u16) -> &PortState {
        match node {
            NodeId::Host(h) => self.hosts[h.0 as usize].nic.as_ref().expect("host not cabled"), // simlint: allow(panic_hygiene)
            NodeId::Switch(s) => &self.switches[s.0 as usize].ports[port as usize],
        }
    }

    /// Mutable twin of [`Self::port`].
    pub(crate) fn port_mut(&mut self, node: NodeId, port: u16) -> &mut PortState {
        match node {
            NodeId::Host(h) => self.hosts[h.0 as usize].nic.as_mut().expect("host not cabled"), // simlint: allow(panic_hygiene)
            NodeId::Switch(s) => &mut self.switches[s.0 as usize].ports[port as usize],
        }
    }

    /// The link id a host's NIC transmits on (for sampling utilization).
    pub fn host_uplink(&self, host: HostId) -> LinkId {
        self.port(NodeId::Host(host), 0).link
    }

    /// The link a given switch port transmits on.
    pub fn switch_port_link(&self, switch: SwitchId, port: u16) -> LinkId {
        self.port(NodeId::Switch(switch), port).link
    }

    /// The switch egress port index whose link points at `target`, if any.
    pub fn switch_port_towards(&self, switch: SwitchId, target: NodeId) -> Option<u16> {
        self.switches[switch.0 as usize]
            .ports
            .iter()
            .position(|p| self.links[p.link.0 as usize].to == target)
            .map(|i| i as u16)
    }

    /// Read a link's configuration and counters.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Per-port counters of a switch.
    pub fn port_counters(&self, switch: SwitchId, port: u16) -> &PortCounters {
        &self.port(NodeId::Switch(switch), port).counters
    }

    /// Aggregate counters over every switch port.
    pub fn total_counters(&self) -> PortCounters {
        let mut total = PortCounters::default();
        for port in self.switches.iter().flat_map(|sw| &sw.ports) {
            total.add(&port.counters);
        }
        total
    }

    /// Packet-pool counters: how often packet slots were recycled vs
    /// freshly allocated, and how many packets are on a wire right now.
    pub fn pool_stats(&self) -> PoolStats {
        self.effects.pool.stats()
    }

    /// Wall-clock nanoseconds spent in a host's transport handlers and the
    /// number of invocations (only meaningful when `measure_cpu` was set).
    pub fn cpu_account(&self, host: HostId) -> (u64, u64) {
        let h = &self.hosts[host.0 as usize];
        (h.cpu_ns, h.cpu_calls)
    }

    /// Number of hosts in the topology.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of switches in the topology.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of egress ports on a switch.
    pub fn port_count(&self, switch: SwitchId) -> usize {
        self.switches[switch.0 as usize].ports.len()
    }

    /// Number of unidirectional links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    // ---------------------------------------------------------------
    // Fault injection (the state machine is crate::faults::FaultState)
    // ---------------------------------------------------------------

    /// Install a fault schedule. Must be called after the topology is
    /// fully built (per-link/per-switch state is sized here) and before
    /// the first [`Self::run`] call; replaces any previous schedule.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        let fresh = self.events == 0 && self.faults.as_ref().is_none_or(|fs| fs.scheduled == 0);
        assert!(fresh, "fault schedule must be installed before the run starts");
        self.faults = Some(FaultState::new(schedule, self.links.len(), self.switches.len()));
    }

    /// Whether a fault schedule is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Fault-layer statistics so far. `max_stall` includes fault intervals
    /// still open at the current simulated time.
    pub fn fault_report(&self) -> FaultReport {
        let faults = self.faults.as_ref().map(|fs| fs.report(self.now)).unwrap_or_default();
        FaultReport { retransmits: self.retransmits_total, ..faults }
    }

    // ---------------------------------------------------------------
    // Tracing
    // ---------------------------------------------------------------

    /// Install a trace sink; engine and transport events flow into it from
    /// now on. Replaces any previously installed sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detach and return the trace sink (upcast it to `Box<dyn Any>` and
    /// `downcast` it to recover the concrete type).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Whether a trace sink is currently installed.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Forward an event to the sink, stamped with the current time.
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.emit(self.now.0, &ev);
        }
    }

    // ---------------------------------------------------------------
    // Event loop
    // ---------------------------------------------------------------

    // simlint: hot-path
    /// Mint the next sequence number for an event at `at`. Every event
    /// takes its place in the FIFO tie-break here, pushed now or later.
    pub(crate) fn mint_seq(&mut self, at: SimTime) -> u64 {
        debug_assert!(at >= self.now, "scheduling into the past");
        if let Some(s) = self.san.as_mut() {
            s.observe_schedule(at, self.now, self.seq);
        }
        self.seq += 1;
        self.seq - 1
    }

    // Per event, from several modules; with `CalendarQueue::push` inlined into
    // it, LLVM keeps it out of line unless told (DESIGN.md §10.1, "Inlining
    // hints on the hop path", has what each hint measured).
    #[inline(always)]
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Ev) {
        let seq = self.mint_seq(at);
        if let Some(s) = self.san.as_mut() {
            s.observe_push(at, seq);
        }
        self.queue.push(QEntry { at, seq, ev });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule what was registered since the last call: every new flow's
    /// start, then every new timed fault op, each in registration order — a
    /// fixed sequence-number layout, so identical schedules reproduce
    /// identical tie-breaks. A time already passed means "now".
    fn schedule_registered(&mut self) {
        for i in self.flows_scheduled..self.flows.len() {
            self.schedule(self.flows[i].start.max(self.now), Ev::FlowStart(i as u32));
        }
        self.flows_scheduled = self.flows.len();
        while let Some((i, at)) = self.faults.as_mut().and_then(FaultState::next_unscheduled) {
            self.schedule(at.max(self.now), Ev::Fault(i));
        }
    }

    /// Run until the event queue drains or a limit is hit.
    ///
    /// Flows registered since the previous call get their start event on
    /// entry; the run then resumes from where that call stopped.
    pub fn run(&mut self, limits: RunLimits) -> RunReport {
        self.schedule_registered();
        let mut stop = StopReason::AllFlowsDone;
        // The self-profiler is opt-in (`TelemetryConfig::prof`): its
        // numbers are machine noise — never part of any determinism golden.
        // It reads the wall clock once per event: event i's end stamp is
        // event i+1's start, so the per-kind times (pop and audit included)
        // add up to the time spent in this loop.
        let prof = self.telemetry.as_deref().is_some_and(|t| t.prof_enabled());
        let mut stamp = prof.then(std::time::Instant::now); // simlint: allow(determinism)

        // One entry per iteration, strictly in `(time, seq)` order: a
        // dispatch may push a `TxDone` under a key reserved earlier
        // (`push_tx_done`), which can sort before entries already queued
        // for this same tick.
        loop {
            let entry = match self.queue.pop_due(limits.max_time) {
                Due::Entry(entry) => entry,
                Due::Later => {
                    // Not due yet: it stays queued for a future run() call.
                    // Everything at or before `max_time` has dispatched.
                    self.now = limits.max_time;
                    self.cur_seq = u64::MAX;
                    stop = StopReason::MaxTime;
                    break;
                }
                Due::Empty => {
                    if self.pfc_deadlocked() {
                        stop = StopReason::Deadlock;
                    }
                    break;
                }
            };
            if let Some(s) = self.san.as_mut() {
                s.observe_pop(entry.at, entry.seq, self.now);
            }
            self.now = entry.at;
            self.cur_seq = entry.seq;
            self.events += 1;
            self.dispatch(entry.ev);
            let violated = self.san.is_some() && self.san_tick();
            if let Some(t0) = stamp.as_mut() {
                let t1 = std::time::Instant::now(); // simlint: allow(determinism)
                if let Some(t) = self.telemetry.as_deref_mut() {
                    let kind = prof_kind_index(entry.ev);
                    t.prof_counts[kind] += 1;
                    t.prof_ns[kind] += t1.duration_since(*t0).as_nanos() as u64;
                }
                *t0 = t1;
            }
            // At least one event dispatches per run() call, even on an
            // exhausted budget.
            if violated || self.events >= limits.max_events {
                stop = if violated { StopReason::SanViolation } else { StopReason::MaxEvents };
                break;
            }
            // A wedged fabric still fires its senders' timers forever.
            if matches!(entry.ev, Ev::Timer { .. }) && self.pfc_deadlocked() {
                stop = StopReason::Deadlock;
                break;
            }
        }
        if self.san.is_some() && stop != StopReason::SanViolation {
            // Final audit; at a quiescent end (queue drained) no packet
            // may still be parked in the pool.
            self.san_audit(stop == StopReason::AllFlowsDone);
            if self.san_flush() {
                stop = StopReason::SanViolation;
            }
        }
        RunReport {
            end_time: self.now,
            events: self.events,
            flows_completed: self.flows_completed,
            flows_total: self.flows.len(),
            stop,
            faults: self.fault_report(),
        }
    }

    // One call site, in `run`. Out of line, the 16-byte `Ev` travels from
    // the queue's return slot to this function's argument slot through two
    // overlapping unaligned copies that defeat store forwarding: ~10 % of
    // `incast_ndp`'s run time in two `mov`s.
    #[inline(always)]
    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::FlowStart(idx) => {
                let flow = self.flows[idx as usize].clone();
                self.flows_started += 1;
                self.emit(TraceEvent::FlowStart {
                    flow: flow.id.0,
                    src: flow.src.0,
                    dst: flow.dst.0,
                    size: flow.size_bytes,
                });
                let host = flow.src;
                self.with_transport(host, |t, ctx| t.on_flow_start(&flow, ctx));
            }
            Ev::Deliver { to, pkt } => {
                if let Some(s) = self.san.as_mut() {
                    s.observe_free(self.now, pkt.0 as usize);
                }
                self.effects.pool.arrive();
                match to {
                    NodeId::Host(h) => {
                        let pkt = self.effects.pool.take(pkt);
                        if let Some(fs) = self.faults.as_mut() {
                            fs.note_delivery(pkt.payload_bytes());
                        }
                        self.with_transport(h, |t, ctx| t.on_packet(pkt, ctx));
                    }
                    NodeId::Switch(s) => self.switch_forward(s, pkt),
                }
            }
            Ev::TxDone { node, port } => self.tx_done(node, port),
            Ev::Timer { host, token } => {
                self.emit(TraceEvent::Timer { host: host.0, token });
                self.with_transport(host, |t, ctx| t.on_timer(token, ctx));
            }
            Ev::Sample => self.take_sample(),
            Ev::Fault(idx) => self.apply_fault(idx),
            Ev::Pfc { to, port, prio, xoff } => self.apply_pfc(to, port, prio, xoff),
        }
    }

    /// The telemetry tick, then the rearm — only while flows are
    /// outstanding, a deterministic condition, so the queue drains and
    /// `AllFlowsDone` still fires exactly as it would without telemetry.
    fn take_sample(&mut self) {
        let Some(interval) = self.telemetry.as_deref().map(|t| t.interval()) else { return };
        self.telemetry_tick();
        if self.flows_completed < self.flows.len() {
            self.schedule(self.now + interval, Ev::Sample);
        }
    }

    /// Run a transport handler on `host` with an empty effects sink, then
    /// apply the effects (transmit packets, arm timers, record completions).
    fn with_transport<F>(&mut self, host: HostId, f: F)
    where
        F: FnOnce(&mut dyn Transport<P>, &mut Ctx<'_, P>),
    {
        let now = self.now;
        let sanitize = self.san.is_some();
        {
            let trace = self.trace.as_deref_mut();
            let slot = &mut self.hosts[host.0 as usize];
            let transport = slot
                .transport
                .as_deref_mut()
                .unwrap_or_else(|| panic!("no transport installed on {host:?}")); // simlint: allow(panic_hygiene)
            let mut ctx =
                Ctx::with_trace(now, host, &mut self.effects, trace).with_sanitizer(sanitize);
            if self.measure_cpu {
                let t0 = std::time::Instant::now(); // simlint: allow(determinism)
                f(transport, &mut ctx);
                slot.cpu_ns += t0.elapsed().as_nanos() as u64;
                slot.cpu_calls += 1;
            } else {
                f(transport, &mut ctx);
            }
        }
        // Apply effects in a fixed order — timers, completions, packets —
        // so queue sequence numbers (and therefore FIFO tie-breaks) are
        // assigned exactly as they always were. Every list is emptied here,
        // which is what leaves the sink clean for the next handler, and
        // none is moved: each is read by index, by code that may re-enter
        // `self`, and cleared. The packets are already in the pool.
        // Retransmit notes first: they only bump counters (never touch the
        // queue), so draining them here cannot shift sequence numbers.
        self.retransmits_total += self.effects.retransmits.len() as u64;
        self.effects.retransmits.clear();
        // Sanitizer notes likewise are ledger-only: the vec is empty unless
        // the sanitizer is installed (Ctx::san_note gates on it).
        for note in self.effects.san_notes.drain(..) {
            if let Some(s) = self.san.as_mut() {
                s.observe_note(now, note);
            }
        }
        for i in 0..self.effects.timers.len() {
            let (at, token) = self.effects.timers[i];
            self.schedule(at.max(now), Ev::Timer { host, token });
        }
        self.effects.timers.clear();
        for i in 0..self.effects.completed.len() {
            let flow = self.effects.completed[i];
            let slot = &mut self.completions[flow.0 as usize];
            if slot.is_none() {
                *slot = Some(now);
                self.flows_completed += 1;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    let start = self.flows[flow.0 as usize].start;
                    t.fct_ns.record(now.saturating_since(start).as_nanos());
                }
                self.emit(TraceEvent::FlowComplete { flow: flow.0 });
            }
        }
        self.effects.completed.clear();
        for i in 0..self.effects.sent.len() {
            let pkt = self.effects.sent[i];
            self.host_enqueue(host, pkt);
        }
        self.effects.sent.clear();
    }

    /// Push `port`'s `TxDone` under the key `transmit` reserved for it,
    /// unless it is queued already. The key lies ahead of the event being
    /// dispatched (the caller settled the port), possibly within this tick.
    pub(crate) fn push_tx_done(&mut self, node: NodeId, port: u16) {
        if let Some((at, seq)) = self.port_mut(node, port).unpushed_tx_done.take() {
            if let Some(s) = self.san.as_mut() {
                s.observe_push(at, seq);
            }
            self.queue.push(QEntry { at, seq, ev: Ev::TxDone { node, port } });
        }
    }

    // simlint: hot-path-end
}

#[cfg(any(test, feature = "simsan-selftest"))]
impl<P: Payload> Simulator<P> {
    /// Simsan selftest hook (see the others in [`crate::sanitizer`]; this
    /// one lives here because only this file may push the queue): push
    /// two queue entries with the *same* `(time, seq)` key, breaking the
    /// strictly-increasing sequence numbers the FIFO tie-break relies
    /// on. The payload is an out-of-range fault op, which dispatches as a
    /// no-op. Do not combine with an installed fault schedule.
    pub fn corrupt_tie_break(&mut self) {
        let entry = QEntry { at: self.now, seq: self.seq, ev: Ev::Fault(u32::MAX) };
        self.queue.push(entry); // simlint: allow(event_order)
        self.queue.push(entry); // simlint: allow(event_order)
        self.seq += 1;
    }

    /// Simsan selftest hook: discard the front queue entry without
    /// dispatching it, as a queue that lost an entry would. Stop a run with
    /// events still queued first; on a drained queue this is a no-op.
    pub fn corrupt_queue_loss(&mut self) {
        self.queue.pop();
    }
}
