//! Host endpoints and the transport-protocol interface.

use dcn_trace::{TraceEvent, TraceSink};

use crate::ids::{FlowId, HostId};
use crate::packet::{Packet, Payload};
use crate::pool::{PacketPool, PkRef};
use crate::sanitizer::SanNote;
use crate::time::{SimDuration, SimTime};

/// A flow (application message) to be transferred from `src` to `dst`.
#[derive(Clone, Debug)]
pub struct FlowDesc {
    /// Unique id; flow ids are assigned densely from 0 by the simulator.
    pub id: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Total application bytes to deliver.
    pub size_bytes: u64,
    /// When the application hands the flow to the transport.
    pub start: SimTime,
    /// Bytes the application's *first* send() syscall copies into the TCP
    /// send buffer. PPT's buffer-aware identifier (§4.1) keys off this; a
    /// first write above the identification threshold flags the flow as
    /// large at time zero.
    pub first_write_bytes: u64,
}

impl FlowDesc {
    /// Convenience constructor where the application writes the whole flow
    /// in one syscall (the common case for RPC-style workloads).
    pub fn new(id: FlowId, src: HostId, dst: HostId, size_bytes: u64, start: SimTime) -> Self {
        FlowDesc { id, src, dst, size_bytes, start, first_write_bytes: size_bytes }
    }
}

/// Side effects a transport handler wants the engine to apply: packets to
/// transmit from this host's NIC, timers to arm, and flows to mark complete.
#[derive(Debug)]
pub struct Effects<P> {
    /// The engine's packet pool. A sent packet is written here once, by
    /// [`Ctx::send`], and stays in its slot until delivered or dropped.
    pub(crate) pool: PacketPool<P>,
    /// The slots sent this dispatch, in send order, for the NIC.
    pub(crate) sent: Vec<PkRef>,
    pub(crate) timers: Vec<(SimTime, u64)>,
    pub(crate) completed: Vec<FlowId>,
    /// Flows that retransmitted data this dispatch (recovery accounting;
    /// drained into the engine's per-flow counters).
    pub(crate) retransmits: Vec<FlowId>,
    /// Sanitizer observations from inside the handler (always empty
    /// unless the simulator's sanitizer is installed; drained into the
    /// engine's simsan ledger, never into the event heap).
    pub(crate) san_notes: Vec<SanNote>,
}

impl<P> Default for Effects<P> {
    fn default() -> Self {
        Effects {
            pool: PacketPool::new(),
            sent: Vec::new(),
            timers: Vec::new(),
            completed: Vec::new(),
            retransmits: Vec::new(),
            san_notes: Vec::new(),
        }
    }
}

impl<P> Effects<P> {
    /// Decompose into (packets, timers, completed flows) — lets transport
    /// authors unit-test handlers without an engine. The packets are taken
    /// back out of the pool, in send order.
    pub fn into_parts(mut self) -> (Vec<Packet<P>>, Vec<(SimTime, u64)>, Vec<FlowId>) {
        let packets = self.sent.iter().map(|&pkt| self.pool.take(pkt)).collect();
        (packets, self.timers, self.completed)
    }

    /// Flows noted via [`Ctx::note_retransmit`] (unit-test accessor).
    pub fn retransmits(&self) -> &[FlowId] {
        &self.retransmits
    }

    /// Sanitizer notes queued via [`Ctx::san_note`] (unit-test accessor).
    pub fn san_notes(&self) -> &[SanNote] {
        &self.san_notes
    }
}

/// Execution context handed to every transport callback.
///
/// Borrow-wise this is a sink: the engine applies the queued effects after
/// the handler returns, so handlers never re-enter the engine.
pub struct Ctx<'a, P> {
    now: SimTime,
    host: HostId,
    effects: &'a mut Effects<P>,
    trace: Option<&'a mut dyn TraceSink>,
    sanitize: bool,
}

impl<'a, P: Payload> Ctx<'a, P> {
    /// Build a context around an effects sink. The engine does this for
    /// every dispatch; it is public so transport handlers can be driven
    /// directly in unit tests. Tracing is detached (`Ctx::emit` is a no-op).
    pub fn new(now: SimTime, host: HostId, effects: &'a mut Effects<P>) -> Self {
        Ctx { now, host, effects, trace: None, sanitize: false }
    }

    /// Like [`Ctx::new`] but wired to a trace sink, so transport handlers
    /// can publish protocol-level [`TraceEvent`]s. The engine uses this
    /// when a sink is installed on the simulator.
    pub fn with_trace(
        now: SimTime,
        host: HostId,
        effects: &'a mut Effects<P>,
        trace: Option<&'a mut dyn TraceSink>,
    ) -> Self {
        Ctx { now, host, effects, trace, sanitize: false }
    }

    /// Enable or disable the sanitizer note channel, builder-style. The
    /// engine sets this from `Simulator::sanitizer_enabled()`, so probes
    /// behind [`Ctx::sanitizing`] cost one branch when simsan is off.
    pub fn with_sanitizer(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Whether a trace sink is attached. Lets handlers skip bookkeeping
    /// (or allocation) whose only purpose is to feed the trace.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether the simulator's sanitizer is installed. Transport-side
    /// invariant probes gate on this so sanitized-off runs do no work.
    pub fn sanitizing(&self) -> bool {
        self.sanitize
    }

    /// Queue a sanitizer observation (dropped unless [`Ctx::sanitizing`]).
    /// Feeds the engine's simsan ledger only — never the event heap — so
    /// calling it cannot perturb event ordering.
    pub fn san_note(&mut self, note: SanNote) {
        if self.sanitize {
            self.effects.san_notes.push(note);
        }
    }

    /// Publish a protocol-level trace event stamped with the current
    /// simulated time. A single branch when tracing is disabled.
    pub fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.emit(self.now.0, &ev);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this transport instance runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Queue a packet for transmission on this host's NIC.
    pub fn send(&mut self, pkt: Packet<P>) {
        let pkt = self.effects.pool.insert(pkt);
        self.effects.sent.push(pkt);
    }

    /// Arm a timer that fires `on_timer(token)` at absolute time `at`.
    ///
    /// Timers cannot be cancelled; transports implement lazy cancellation
    /// by ignoring stale tokens.
    pub fn timer_at(&mut self, at: SimTime, token: u64) {
        self.effects.timers.push((at, token));
    }

    /// Arm a timer `after` from now.
    pub fn timer_after(&mut self, after: SimDuration, token: u64) {
        self.timer_at(self.now + after, token);
    }

    /// Report that this host (as receiver) now holds every byte of `flow`.
    /// The engine records the completion time; repeat calls are ignored.
    pub fn flow_completed(&mut self, flow: FlowId) {
        self.effects.completed.push(flow);
    }

    /// Note that `flow` retransmitted data (RTO fire, NACK resend, trim
    /// recovery, ...). Feeds the engine's per-flow retransmit counters and
    /// the [`crate::engine::FaultReport`] recovery totals; schedules
    /// nothing, so calling it never perturbs event ordering.
    pub fn note_retransmit(&mut self, flow: FlowId) {
        self.effects.retransmits.push(flow);
    }
}

/// A transport protocol endpoint.
///
/// One instance runs per host and handles both the sender and receiver
/// roles for every flow that starts at or targets that host.
pub trait Transport<P: Payload> {
    /// The application opened `flow` on this host (sender side).
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, P>);

    /// A packet addressed to this host arrived off the wire.
    fn on_packet(&mut self, pkt: Packet<P>, ctx: &mut Ctx<'_, P>);

    /// A timer armed via [`Ctx::timer_at`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, P>);

    /// Aggregate congestion-control state over this endpoint's active
    /// flows, read by the telemetry sampler (never on the hot path).
    /// Transports without a window concept keep the zero default.
    fn cc_snapshot(&self) -> crate::telemetry::CcSnapshot {
        crate::telemetry::CcSnapshot::default()
    }
}
