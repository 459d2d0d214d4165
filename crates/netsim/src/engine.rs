//! The discrete-event simulation engine.
//!
//! A [`Simulator`] owns every node, link and flow, plus a single
//! time-ordered event queue (see [`crate::sched`]: a calendar queue by
//! default, with the `BinaryHeap` oracle selectable for differential
//! checks). Determinism: events at equal times are dispatched in insertion
//! order (FIFO tie-break on a monotone sequence number), and nothing in
//! the engine consults wall-clock randomness.

use dcn_trace::{LogHistogram, Series, TraceEvent, TraceSink};

use crate::faults::{FaultOp, FaultSchedule};
use crate::host::{Ctx, Effects, FlowDesc, Transport};
use crate::ids::{FlowId, HostId, LinkId, NodeId, SwitchId};
use crate::link::Link;
use crate::packet::{Packet, PacketMeta, Payload};
use crate::queue::PrioQueues;
use crate::rng::Pcg32;
use crate::sanitizer::{host_port_key, switch_port_key, SanLevel, SanViolation, Sanitizer};
use crate::sched::{QEntry, Queue, QueueKind};
use crate::switch::{enqueue_policy, EnqueueOutcome, MarkScope, PortCounters, SwitchConfig};
use crate::telemetry::{
    CcSnapshot, Telemetry, TelemetryConfig, IDX_CC_CWND, IDX_CC_INFLIGHT, IDX_FLOWS_LIVE,
    IDX_POOL_HIT, IDX_POOL_LIVE,
};
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;

/// Index of an in-flight packet parked in the [`PacketPool`] slab.
#[derive(Clone, Copy, Debug)]
struct PkRef(u32);

/// Packet-pool counters (see [`Simulator::pool_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Inserts that grew the slab because the free list was empty.
    pub fresh: u64,
    /// Inserts served by recycling a previously freed slot.
    pub recycled: u64,
    /// Slots currently holding an in-flight packet.
    pub live: u64,
}

impl PoolStats {
    /// Fraction of inserts served without growing the slab.
    pub fn hit_rate(&self) -> f64 {
        let total = self.fresh + self.recycled;
        if total == 0 {
            0.0
        } else {
            self.recycled as f64 / total as f64
        }
    }
}

/// Free-list slab for in-flight packets. A packet enters when it starts
/// serialization toward a node and leaves when the delivery dispatches, so
/// slots cycle on wire-latency timescales and the steady state allocates
/// nothing: the slab high-water mark is the peak number of packets
/// simultaneously in flight, not the total sent.
///
/// Struct-of-arrays layout: the `Copy` metadata every forwarding decision
/// reads sits in one dense array (one cache line per event), while the
/// protocol payloads — variable-sized, only touched at delivery — live in
/// a parallel array whose `Option` doubles as the slot-liveness flag.
struct PacketPool<P> {
    meta: Vec<PacketMeta>,
    payload: Vec<Option<P>>,
    free: Vec<u32>,
    fresh: u64,
    recycled: u64,
}

impl<P> PacketPool<P> {
    fn new() -> Self {
        PacketPool {
            meta: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
            fresh: 0,
            recycled: 0,
        }
    }

    // simlint: hot-path
    fn insert(&mut self, pkt: Packet<P>) -> PkRef {
        let (meta, payload) = pkt.into_parts();
        match self.free.pop() {
            Some(i) => {
                self.recycled += 1;
                self.meta[i as usize] = meta;
                self.payload[i as usize] = Some(payload);
                PkRef(i)
            }
            None => {
                self.fresh += 1;
                self.meta.push(meta);
                self.payload.push(Some(payload));
                PkRef((self.payload.len() - 1) as u32)
            }
        }
    }

    fn take(&mut self, r: PkRef) -> Packet<P> {
        match self.payload[r.0 as usize].take() {
            Some(payload) => {
                self.free.push(r.0);
                Packet::from_parts(self.meta[r.0 as usize], payload)
            }
            // A PkRef is minted once by insert() and consumed once by
            // dispatch; a double-take is an engine bug, not a user error.
            None => unreachable!("packet pool slot {} taken twice", r.0),
        }
    }
    // simlint: hot-path-end

    fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh,
            recycled: self.recycled,
            live: (self.payload.len() - self.free.len()) as u64,
        }
    }
}

/// Engine-internal events. Deliberately `Copy`-sized: the one non-`Copy`
/// payload (an in-flight packet) lives in the [`PacketPool`] slab and is
/// carried here by index, so queue entries are 24-byte values that move
/// through bucket sorts and heap sifts without touching whole packets.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// The application starts flow `flows[idx]` at its source host.
    FlowStart(u32),
    /// A packet finished serialization + propagation and arrives at `to`.
    Deliver { to: NodeId, pkt: PkRef },
    /// An egress transmitter finished serializing; it may start the next
    /// queued packet.
    TxDone { node: NodeId, port: u16 },
    /// A transport timer at `host` fires with `token`.
    Timer { host: HostId, token: u64 },
    /// Sampler `idx` takes a measurement and reschedules itself.
    Sample(u32),
    /// Timed fault operation `schedule.ops[idx]` applies.
    Fault(u32),
    /// A PFC pause (`xoff == true`) or resume frame from `origin` arrives
    /// at `to` for priority `prio`. Pause frames are zero-payload MAC
    /// control frames: they never enter egress queues or the packet pool,
    /// so they are carried entirely by this `Copy` event and reach the
    /// neighbour after pure propagation delay.
    Pfc { to: NodeId, origin: SwitchId, prio: u8, xoff: bool },
}

/// Profiler accumulator slot for an event, in [`dcn_trace::ProfKind::ALL`]
/// order (the engine keeps `Ev` private, so the mapping lives here).
fn prof_kind_index(ev: Ev) -> usize {
    match ev {
        Ev::FlowStart(_) => 0,
        Ev::Deliver { .. } => 1,
        Ev::TxDone { .. } => 2,
        Ev::Timer { .. } => 3,
        Ev::Sample(_) => 4,
        Ev::Fault(_) => 5,
        // Pause frames are accounted as deliveries: they are the wire
        // arrivals of (zero-payload) control frames.
        Ev::Pfc { .. } => 1,
    }
}

/// One egress transmitter: a priority-queue bank feeding one link.
struct PortState<P> {
    link: LinkId,
    queues: PrioQueues<P>,
    busy: bool,
    counters: PortCounters,
    /// PFC receive state: bit `p` set = priority `p` must not be served
    /// (a pause frame from the downstream neighbour is in effect). Always
    /// zero when no switch on the fabric runs PFC.
    paused_mask: u8,
    /// PFC transmit state (switch egress ports only): bit `p` set = this
    /// port has an unreleased XOFF outstanding for priority `p`.
    xoff_sent: u8,
}

impl<P> PortState<P> {
    fn new(link: LinkId) -> Self {
        PortState {
            link,
            queues: PrioQueues::new(),
            busy: false,
            counters: PortCounters::default(),
            paused_mask: 0,
            xoff_sent: 0,
        }
    }
}

struct HostSlot<P> {
    /// The single NIC egress port; `None` until the host is cabled.
    nic: Option<PortState<P>>,
    transport: Option<Box<dyn Transport<P>>>,
    /// Wall-clock nanoseconds spent inside this host's transport handlers
    /// and number of handler invocations (the Fig-19 CPU substitute).
    cpu_ns: u64,
    cpu_calls: u64,
}

struct SwitchSlot<P> {
    ports: Vec<PortState<P>>,
    cfg: SwitchConfig,
    /// Destination-based ECMP table in CSR form: the candidate egress
    /// ports for destination host `d` are
    /// `route_ports[route_offsets[d]..route_offsets[d + 1]]`. Two flat
    /// arrays keep the per-event lookup on adjacent cache lines instead
    /// of chasing a `Vec<Vec<u16>>` double indirection.
    route_offsets: Vec<u32>,
    route_ports: Vec<u16>,
    /// PFC: number of egress ports currently asserting XOFF, per priority.
    /// Pause frames broadcast on the 0→1 edge, resumes on the 1→0 edge, so
    /// overlapping congested ports nest like overlapping switch stalls.
    pfc_xoff_count: [u16; 8],
}

/// What a sampler observes.
#[derive(Clone, Copy, Debug)]
enum SampleTarget {
    /// Cumulative tx bytes of a link.
    Link(LinkId),
    /// Queue occupancy of a switch egress port.
    Port(SwitchId, u16),
    /// The continuous-telemetry tick: a whole-fabric snapshot into the
    /// [`Telemetry`] series table (see `Simulator::enable_telemetry`).
    Telemetry,
}

/// One time-series measurement.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Link sampler: cumulative tx bytes. Port sampler: total backlog bytes.
    pub value: u64,
    /// Port sampler only: backlog per priority level.
    pub per_priority: [u64; 8],
}

struct SamplerState {
    target: SampleTarget,
    interval: SimDuration,
    until: SimTime,
    samples: Vec<Sample>,
}

/// Handle to a registered sampler.
#[derive(Clone, Copy, Debug)]
pub struct SamplerId(u32);

/// Run limits: the simulation stops at whichever comes first.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Hard stop time.
    pub max_time: SimTime,
    /// Hard event budget (guards against livelock bugs).
    pub max_events: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits { max_time: SimTime(u64::MAX), max_events: u64::MAX }
    }
}

/// Why [`Simulator::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained: no further progress is possible. (Flows may
    /// still be incomplete if the transport gave up on them.)
    AllFlowsDone,
    /// The `max_time` limit was reached; pending events were kept.
    MaxTime,
    /// The `max_events` budget was exhausted mid-run.
    MaxEvents,
    /// The sanitizer detected an invariant violation (see
    /// [`Simulator::set_sanitizer`] and [`Simulator::san_violations`]).
    SanViolation,
}

impl StopReason {
    /// Stable snake_case tag (used in JSON output and warnings).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::AllFlowsDone => "all_flows_done",
            StopReason::MaxTime => "max_time",
            StopReason::MaxEvents => "max_events",
            StopReason::SanViolation => "san_violation",
        }
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

/// Summary of a completed run.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Events dispatched.
    pub events: u64,
    /// Flows that reported completion.
    pub flows_completed: usize,
    /// Total flows registered.
    pub flows_total: usize,
    /// Which limit (if any) stopped the run.
    pub stop: StopReason,
    /// Fault-layer recovery statistics.
    pub faults: FaultReport,
}

impl RunReport {
    /// A run is abnormal when a limit tripped or flows were left hanging —
    /// the condition that triggers the harness's flight-recorder dump.
    pub fn is_abnormal(&self) -> bool {
        self.stop != StopReason::AllFlowsDone || self.flows_completed < self.flows_total
    }
}

/// Live fault-injection state: the installed schedule plus the mutable
/// link/switch status and recovery counters it drives.
struct FaultState {
    schedule: FaultSchedule,
    /// Dedicated loss RNG, seeded from the schedule — never shared with
    /// workload generation, so adding loss does not shift workload draws.
    rng: Pcg32,
    /// Per-link down flag, indexed by `LinkId`.
    link_down: Vec<bool>,
    /// Per-switch stall depth (overlapping stalls nest), indexed by `SwitchId`.
    stalled: Vec<u32>,
    /// Start of the currently open outage per link, for `max_stall`.
    down_since: Vec<Option<SimTime>>,
    /// Start of the currently open stall per switch, for `max_stall`.
    stall_since: Vec<Option<SimTime>>,
    /// Number of currently active faults (down links + stalled switches).
    active: u32,
    /// Packets destroyed so far.
    drops: u64,
    /// Longest closed fault interval so far.
    max_stall: SimDuration,
    /// Payload bytes delivered to hosts while `active > 0`.
    goodput_fault_bytes: u64,
}

/// The simulator.
pub struct Simulator<P: Payload> {
    now: SimTime,
    /// The event queue (calendar by default; see [`crate::sched`]).
    queue: Queue<Ev>,
    /// Scratch buffer for same-tick batch draining in [`Self::run`],
    /// parked here so it is allocated once per simulator.
    batch: Vec<QEntry<Ev>>,
    /// In-flight packets, referenced from the event queue by [`PkRef`].
    pool: PacketPool<P>,
    seq: u64,
    links: Vec<Link>,
    hosts: Vec<HostSlot<P>>,
    switches: Vec<SwitchSlot<P>>,
    flows: Vec<FlowDesc>,
    completions: Vec<Option<SimTime>>,
    samplers: Vec<SamplerState>,
    effects: Effects<P>,
    events: u64,
    flows_completed: usize,
    /// Flows whose `FlowStart` has dispatched; with `flows_completed`
    /// this makes the telemetry live-flow count O(1) per sample tick.
    flows_started: usize,
    /// `None` = fault injection disabled: the hot path pays one branch.
    faults: Option<FaultState>,
    /// Per-flow retransmit counts (fed by `Ctx::note_retransmit`).
    retransmit_counts: Vec<u32>,
    retransmits_total: u64,
    /// `None` = tracing disabled: every emission site reduces to one branch.
    trace: Option<Box<dyn TraceSink>>,
    /// `None` = sanitizer disabled: every observation hook reduces to one
    /// branch (simsan, see [`crate::sanitizer`]).
    san: Option<Box<Sanitizer>>,
    /// `None` = continuous telemetry disabled (see [`crate::telemetry`]);
    /// boxed so the disabled hot path carries one pointer, not the whole
    /// series table.
    telemetry: Option<Box<Telemetry>>,
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
            queue: Queue::new(QueueKind::Calendar),
            batch: Vec::new(),
            pool: PacketPool::new(),
            seq: 0,
            links: Vec::new(),
            hosts: Vec::new(),
            switches: Vec::new(),
            flows: Vec::new(),
            completions: Vec::new(),
            samplers: Vec::new(),
            effects: Effects::default(),
            events: 0,
            flows_completed: 0,
            flows_started: 0,
            faults: None,
            retransmit_counts: Vec::new(),
            retransmits_total: 0,
            trace: None,
            san: None,
            telemetry: None,
            measure_cpu: false,
        }
    }

    /// Switch the event-queue implementation (default: calendar). Pending
    /// entries migrate with their `(time, seq)` keys intact, so the
    /// dispatch order — and every golden digest — is unchanged; switching
    /// mid-run is therefore legal, if pointless. The heap kind exists as
    /// the differential oracle for tests and `bench_engine`; it is not a
    /// run option.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        if self.queue.kind() == kind {
            return;
        }
        let mut dst = Queue::new(kind);
        while let Some(e) = self.queue.pop() {
            dst.push(e);
        }
        self.queue = dst;
    }

    /// The active event-queue implementation.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    // ---------------------------------------------------------------
    // Topology construction
    // ---------------------------------------------------------------

    /// Add a host (must be cabled with [`Self::connect`] before use).
    pub fn add_host(&mut self) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(HostSlot { nic: None, transport: None, cpu_ns: 0, cpu_calls: 0 });
        id
    }

    /// Add a switch with the given per-port configuration.
    pub fn add_switch(&mut self, cfg: SwitchConfig) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(SwitchSlot {
            ports: Vec::new(),
            cfg,
            route_offsets: Vec::new(),
            route_ports: Vec::new(),
            pfc_xoff_count: [0; 8],
        });
        id
    }

    /// Cable `a` and `b` with a full-duplex link (two unidirectional links
    /// of the same rate and delay). Hosts may be cabled exactly once.
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate: Rate, delay: SimDuration) {
        let ab = self.new_link(rate, delay, b);
        let ba = self.new_link(rate, delay, a);
        self.attach_port(a, ab);
        self.attach_port(b, ba);
    }

    fn new_link(&mut self, rate: Rate, delay: SimDuration, to: NodeId) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(rate, delay, to));
        id
    }

    fn attach_port(&mut self, node: NodeId, link: LinkId) {
        match node {
            NodeId::Host(h) => {
                let slot = &mut self.hosts[h.0 as usize];
                assert!(slot.nic.is_none(), "host {h:?} already cabled");
                slot.nic = Some(PortState::new(link));
            }
            NodeId::Switch(s) => {
                self.switches[s.0 as usize].ports.push(PortState::new(link));
            }
        }
    }

    /// Compute destination-based ECMP routes on every switch via BFS
    /// shortest paths. Call once after all `connect` calls.
    pub fn build_routes(&mut self) {
        let n_hosts = self.hosts.len();
        for sw in &mut self.switches {
            sw.route_offsets.clear();
            sw.route_ports.clear();
            sw.route_offsets.push(0);
        }
        // Distance (in hops) from every node to each destination host,
        // computed by BFS from the host over reverse links. Links are
        // symmetric here so forward BFS over neighbors is equivalent.
        // Destinations are visited in ascending order, so each switch's
        // CSR rows are appended in `dst` order.
        let mut candidates: Vec<u16> = Vec::new();
        for dst in 0..n_hosts {
            let dist = self.bfs_from(NodeId::Host(HostId(dst as u32)));
            for si in 0..self.switches.len() {
                let my = dist[self.node_index(NodeId::Switch(SwitchId(si as u32)))];
                candidates.clear();
                for (pi, port) in self.switches[si].ports.iter().enumerate() {
                    let peer = self.links[port.link.0 as usize].to;
                    if dist[self.node_index(peer)] + 1 == my {
                        candidates.push(pi as u16);
                    }
                }
                let sw = &mut self.switches[si];
                sw.route_ports.extend_from_slice(&candidates);
                sw.route_offsets.push(sw.route_ports.len() as u32);
            }
        }
    }

    fn node_index(&self, n: NodeId) -> usize {
        match n {
            NodeId::Host(h) => h.0 as usize,
            NodeId::Switch(s) => self.hosts.len() + s.0 as usize,
        }
    }

    /// BFS hop distance from `start` to every node (usize::MAX = unreachable).
    fn bfs_from(&self, start: NodeId) -> Vec<usize> {
        let n = self.hosts.len() + self.switches.len();
        let mut dist = vec![usize::MAX; n];
        let mut frontier = std::collections::VecDeque::new();
        dist[self.node_index(start)] = 0;
        frontier.push_back(start);
        while let Some(node) = frontier.pop_front() {
            let d = dist[self.node_index(node)];
            let neighbor_links: Vec<LinkId> = match node {
                NodeId::Host(h) => self.hosts[h.0 as usize].nic.iter().map(|p| p.link).collect(),
                NodeId::Switch(s) => {
                    self.switches[s.0 as usize].ports.iter().map(|p| p.link).collect()
                }
            };
            for l in neighbor_links {
                let peer = self.links[l.0 as usize].to;
                let pi = self.node_index(peer);
                if dist[pi] == usize::MAX {
                    dist[pi] = d + 1;
                    frontier.push_back(peer);
                }
            }
        }
        dist
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
        self.retransmit_counts.push(0);
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
    // Sampling
    // ---------------------------------------------------------------

    /// Sample a link's cumulative tx byte counter every `interval` until
    /// `until`. The first sample fires at `interval`.
    pub fn sample_link(
        &mut self,
        link: LinkId,
        interval: SimDuration,
        until: SimTime,
    ) -> SamplerId {
        self.add_sampler(SampleTarget::Link(link), interval, until)
    }

    /// Sample a switch egress port's backlog every `interval` until `until`.
    pub fn sample_port(
        &mut self,
        switch: SwitchId,
        port: u16,
        interval: SimDuration,
        until: SimTime,
    ) -> SamplerId {
        self.add_sampler(SampleTarget::Port(switch, port), interval, until)
    }

    fn add_sampler(
        &mut self,
        target: SampleTarget,
        interval: SimDuration,
        until: SimTime,
    ) -> SamplerId {
        let id = SamplerId(self.samplers.len() as u32);
        self.samplers.push(SamplerState { target, interval, until, samples: Vec::new() });
        self.schedule(self.now + interval, Ev::Sample(id.0));
        id
    }

    /// Recorded samples of a sampler.
    pub fn samples(&self, id: SamplerId) -> &[Sample] {
        &self.samplers[id.0 as usize].samples
    }

    /// Install the continuous-telemetry layer (DESIGN.md §14): a
    /// deterministic whole-fabric sampler ticking every `cfg.interval`,
    /// starting one interval from now. Sampling only *reads* simulation
    /// state, so enabling telemetry leaves the trace and FCT streams of
    /// the run byte-identical; the sampler stops rearming once every flow
    /// has completed so the event queue still drains.
    ///
    /// Call after the topology is built (the series table is laid out
    /// from the switch/port/link counts at install time).
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        assert!(self.telemetry.is_none(), "telemetry already enabled");
        assert!(cfg.interval > SimDuration::ZERO, "telemetry interval must be positive");
        let cap = cfg.series_capacity;
        let mut series = vec![
            Series::new("flows.live", cap),
            Series::new("pool.live", cap),
            Series::new("pool.hit_rate", cap),
            Series::new("cc.cwnd_bytes", cap),
            Series::new("cc.inflight_bytes", cap),
        ];
        debug_assert_eq!(
            series.len(),
            crate::telemetry::IDX_FIRST_DYNAMIC,
            "scalar series layout drifted from the IDX_* constants"
        );
        let port_base = series.len();
        for (si, sw) in self.switches.iter().enumerate() {
            for pi in 0..sw.ports.len() {
                series.push(Series::new(format!("sw{si}.port{pi}.queue_bytes"), cap));
                series.push(Series::new(format!("sw{si}.port{pi}.queue_pkts"), cap));
            }
        }
        let link_base = series.len();
        for li in 0..self.links.len() {
            series.push(Series::new(format!("link{li}.util"), cap));
        }
        let last_link_tx = self.links.iter().map(|l| l.tx_bytes).collect();
        self.telemetry = Some(Box::new(Telemetry {
            cfg,
            series,
            port_base,
            link_base,
            fct_ns: LogHistogram::new(),
            queue_delay_ns: LogHistogram::new(),
            queue_depth_bytes: LogHistogram::new(),
            last_link_tx,
            last_sample_at: self.now,
            samples_taken: 0,
            prof_counts: [0; 6],
            prof_ns: [0; 6],
            prof_batches: 0,
            prof_batch_events: 0,
        }));
        // `until` is unused for the telemetry target (rearming is gated on
        // flow completion instead), so pass the far-future sentinel.
        self.add_sampler(SampleTarget::Telemetry, cfg.interval, SimTime(u64::MAX));
    }

    /// The telemetry state, when enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Detach and return the telemetry state (e.g. to move it into a
    /// post-run report without cloning the series table).
    pub fn take_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// The link id a host's NIC transmits on (for sampling utilization).
    pub fn host_uplink(&self, host: HostId) -> LinkId {
        self.hosts[host.0 as usize].nic.as_ref().expect("host not cabled").link // simlint: allow(panic_hygiene)
    }

    /// The link a given switch port transmits on.
    pub fn switch_port_link(&self, switch: SwitchId, port: u16) -> LinkId {
        self.switches[switch.0 as usize].ports[port as usize].link
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
        &self.switches[switch.0 as usize].ports[port as usize].counters
    }

    /// Aggregate counters over every switch port.
    pub fn total_counters(&self) -> PortCounters {
        let mut total = PortCounters::default();
        for sw in &self.switches {
            for p in &sw.ports {
                total.enqueued += p.counters.enqueued;
                total.dropped += p.counters.dropped;
                total.trimmed += p.counters.trimmed;
                total.marked += p.counters.marked;
                total.dropped_bytes += p.counters.dropped_bytes;
            }
        }
        total
    }

    /// Packet-pool counters: how often in-flight packet buffers were
    /// recycled vs freshly allocated, and how many are live right now.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
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
    // Fault injection
    // ---------------------------------------------------------------

    /// Install a fault schedule. Must be called after the topology is
    /// fully built (per-link/per-switch state is sized here) and before
    /// the first [`Self::run`] call; replaces any previous schedule.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        assert!(self.events == 0, "fault schedule must be installed before the run starts");
        self.faults = Some(FaultState {
            rng: Pcg32::seed_from_u64(schedule.seed),
            link_down: vec![false; self.links.len()],
            stalled: vec![0; self.switches.len()],
            down_since: vec![None; self.links.len()],
            stall_since: vec![None; self.switches.len()],
            active: 0,
            drops: 0,
            max_stall: SimDuration::ZERO,
            goodput_fault_bytes: 0,
            schedule,
        });
    }

    /// Whether a fault schedule is installed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Fault-layer statistics so far. `max_stall` includes fault intervals
    /// still open at the current simulated time.
    pub fn fault_report(&self) -> FaultReport {
        let mut r = FaultReport { retransmits: self.retransmits_total, ..FaultReport::default() };
        if let Some(fs) = &self.faults {
            r.fault_drops = fs.drops;
            r.max_stall = fs.max_stall;
            r.goodput_during_fault_bytes = fs.goodput_fault_bytes;
            for t0 in fs.down_since.iter().chain(&fs.stall_since).flatten() {
                r.max_stall = r.max_stall.max(self.now.saturating_since(*t0));
            }
        }
        r
    }

    /// Retransmissions noted for `flow` via `Ctx::note_retransmit`.
    pub fn flow_retransmits(&self, flow: FlowId) -> u32 {
        self.retransmit_counts.get(flow.0 as usize).copied().unwrap_or(0)
    }

    /// Apply timed fault op `idx` (dispatch target for `Ev::Fault`).
    fn apply_fault(&mut self, idx: u32) {
        let now = self.now;
        let op = match self.faults.as_ref().and_then(|fs| fs.schedule.ops.get(idx as usize)) {
            Some(timed) => timed.op,
            None => return,
        };
        match op {
            FaultOp::LinkDown(l) => {
                if let Some(fs) = self.faults.as_mut() {
                    let li = l.0 as usize;
                    if !fs.link_down[li] {
                        fs.link_down[li] = true;
                        fs.down_since[li] = Some(now);
                        fs.active += 1;
                    }
                }
                self.emit(TraceEvent::LinkDown { link: l.0 });
            }
            FaultOp::LinkUp(l) => {
                if let Some(fs) = self.faults.as_mut() {
                    let li = l.0 as usize;
                    if fs.link_down[li] {
                        fs.link_down[li] = false;
                        if let Some(t0) = fs.down_since[li].take() {
                            fs.max_stall = fs.max_stall.max(now.saturating_since(t0));
                        }
                        fs.active -= 1;
                    }
                }
                self.emit(TraceEvent::LinkUp { link: l.0 });
            }
            FaultOp::StallStart(s) => {
                if let Some(fs) = self.faults.as_mut() {
                    let si = s.0 as usize;
                    fs.stalled[si] += 1;
                    if fs.stalled[si] == 1 {
                        fs.stall_since[si] = Some(now);
                        fs.active += 1;
                    }
                }
            }
            FaultOp::StallEnd(s) => {
                let resumed = match self.faults.as_mut() {
                    Some(fs) => {
                        let si = s.0 as usize;
                        if fs.stalled[si] > 0 {
                            fs.stalled[si] -= 1;
                            if fs.stalled[si] == 0 {
                                if let Some(t0) = fs.stall_since[si].take() {
                                    fs.max_stall = fs.max_stall.max(now.saturating_since(t0));
                                }
                                fs.active -= 1;
                                true
                            } else {
                                false
                            }
                        } else {
                            false
                        }
                    }
                    None => false,
                };
                if resumed {
                    // Restart every backlogged idle port in a fixed (port
                    // index) order so the resume is deterministic.
                    for pi in 0..self.switches[s.0 as usize].ports.len() {
                        let port = &self.switches[s.0 as usize].ports[pi];
                        if !port.busy && !port.queues.is_empty() {
                            self.start_tx_switch(s, pi as u16);
                        }
                    }
                }
            }
        }
    }

    /// Whether the fault layer destroys the packet being serialized onto
    /// `link`. Draws from the fault RNG only when a non-zero probability
    /// applies, so loss-free schedules take zero draws.
    // simlint: hot-path
    fn fault_loses_packet(&mut self, link: LinkId, pkt: &Packet<P>) -> bool {
        let Some(fs) = self.faults.as_mut() else { return false };
        if fs.link_down.get(link.0 as usize).copied().unwrap_or(false) {
            fs.drops += 1;
            return true;
        }
        // Control packets (header-only: ACKs, NACKs, pulls, credits) use
        // the ACK-loss knob, gated on the priority band; data uses data_loss.
        let p = if pkt.payload_bytes() == 0 {
            if pkt.priority >= fs.schedule.ack_loss_min_prio {
                fs.schedule.ack_loss
            } else {
                0.0
            }
        } else {
            fs.schedule.data_loss
        };
        if p > 0.0 && fs.rng.next_f64() < p {
            fs.drops += 1;
            return true;
        }
        false
    }
    // simlint: hot-path-end

    // ---------------------------------------------------------------
    // Tracing
    // ---------------------------------------------------------------

    /// Install a trace sink; engine and transport events flow into it from
    /// now on. Replaces any previously installed sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detach and return the trace sink (downcast via `TraceSink::as_any`
    /// to recover the concrete type).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Whether a trace sink is currently installed.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Forward an event to the sink, stamped with the current time.
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.emit(self.now.0, &ev);
        }
    }

    // ---------------------------------------------------------------
    // Sanitizer (simsan)
    // ---------------------------------------------------------------

    /// Install the runtime invariant sanitizer at the given cadence
    /// (see [`crate::sanitizer`] and DESIGN.md §13). The ledger is seeded
    /// from the engine's current state, so installing between `run()`
    /// calls is supported. Replaces any previously installed sanitizer.
    pub fn set_sanitizer(&mut self, level: SanLevel) {
        let mut san = Box::new(Sanitizer::new(level));
        for (i, slot) in self.pool.payload.iter().enumerate() {
            if slot.is_some() {
                san.seed_pool_slot(i);
            }
        }
        for (hi, slot) in self.hosts.iter().enumerate() {
            if let Some(nic) = &slot.nic {
                san.seed_port(
                    host_port_key(hi as u32),
                    nic.queues.total_bytes(),
                    nic.queues.len() as u64,
                    nic.busy,
                );
            }
        }
        for (si, sw) in self.switches.iter().enumerate() {
            for (pi, port) in sw.ports.iter().enumerate() {
                san.seed_port(
                    switch_port_key(si as u32, pi as u16),
                    port.queues.total_bytes(),
                    port.queues.len() as u64,
                    port.busy,
                );
            }
        }
        san.seed_faults(self.faults.as_ref().map_or(0, |fs| fs.drops));
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

    // ---------------------------------------------------------------
    // Event loop
    // ---------------------------------------------------------------

    // simlint: hot-path
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        if let Some(s) = self.san.as_mut() {
            s.observe_schedule(at, self.now, self.seq);
        }
        self.queue.push(QEntry { at, seq: self.seq, ev });
        self.seq += 1;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run until the event queue drains or a limit is hit.
    ///
    /// On the first call every registered flow's start event is scheduled;
    /// subsequent calls resume from where the previous one stopped.
    pub fn run(&mut self, limits: RunLimits) -> RunReport {
        if self.events == 0 {
            for i in 0..self.flows.len() {
                self.schedule(self.flows[i].start, Ev::FlowStart(i as u32));
            }
            // Timed fault ops enter the queue after every FlowStart, in
            // schedule order — a fixed sequence-number layout that makes
            // identical schedules reproduce identical tie-breaks.
            let n_ops = self.faults.as_ref().map_or(0, |fs| fs.schedule.ops.len());
            for i in 0..n_ops {
                let at = match self.faults.as_ref() {
                    Some(fs) => fs.schedule.ops[i].at,
                    None => break,
                };
                self.schedule(at, Ev::Fault(i as u32));
            }
        }

        let mut stop = StopReason::AllFlowsDone;
        // The self-profiler is opt-in (`TelemetryConfig::prof`): it reads
        // the wall clock around every dispatch, and its numbers are
        // machine noise — never part of any determinism golden.
        let prof = self.telemetry.as_deref().is_some_and(|t| t.prof_enabled());
        // Drain same-tick batches: one queue probe covers every event that
        // shares the earliest timestamp (TxDone/Deliver bursts at
        // synchronized serialization boundaries). The batch is popped in
        // `(time, seq)` order, and anything a dispatch schedules carries a
        // later seq than the whole batch, so dispatch order is identical
        // to popping one entry at a time. The scratch buffer lives on the
        // simulator; take it to keep `self` borrowable during dispatch.
        let mut batch = std::mem::take(&mut self.batch);
        'runloop: loop {
            match self.queue.peek_key() {
                None => break,
                // Not due yet: leave it queued for a future run() call.
                Some((at, _)) if at > limits.max_time => {
                    self.now = limits.max_time;
                    stop = StopReason::MaxTime;
                    break;
                }
                Some(_) => {}
            }
            // The pre-refactor loop dispatched at least one event per
            // run() call even with an exhausted budget; keep that shape.
            let budget = limits.max_events.saturating_sub(self.events).max(1);
            self.queue.pop_batch(&mut batch, usize::try_from(budget).unwrap_or(usize::MAX));
            for i in 0..batch.len() {
                let entry = batch[i];
                if let Some(s) = self.san.as_mut() {
                    s.observe_pop(entry.at, entry.seq, self.now);
                }
                self.now = entry.at;
                self.events += 1;
                if prof {
                    let kind = prof_kind_index(entry.ev);
                    let t0 = std::time::Instant::now(); // simlint: allow(determinism)
                    self.dispatch(entry.ev);
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.prof_counts[kind] += 1;
                        t.prof_ns[kind] += elapsed;
                    }
                } else {
                    self.dispatch(entry.ev);
                }
                let violated = self.san.is_some() && self.san_tick();
                if violated || self.events >= limits.max_events {
                    stop = if violated { StopReason::SanViolation } else { StopReason::MaxEvents };
                    // Undrained tail flows back with its keys intact.
                    for &e in &batch[i + 1..] {
                        self.queue.push(e);
                    }
                    break 'runloop;
                }
            }
            if prof {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.prof_batches += 1;
                    t.prof_batch_events += batch.len() as u64;
                }
            }
        }
        batch.clear();
        self.batch = batch;
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
                let pkt = self.pool.take(pkt);
                match to {
                    NodeId::Host(h) => {
                        if let Some(fs) = self.faults.as_mut() {
                            if fs.active > 0 {
                                fs.goodput_fault_bytes += pkt.payload_bytes() as u64;
                            }
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
            Ev::Sample(idx) => self.take_sample(idx),
            Ev::Fault(idx) => self.apply_fault(idx),
            Ev::Pfc { to, origin, prio, xoff } => self.apply_pfc(to, origin, prio, xoff),
        }
    }

    // ---------------------------------------------------------------
    // PFC backpressure (hop-by-hop pause/resume; see DESIGN.md §15)
    // ---------------------------------------------------------------

    /// Re-evaluate the PFC thresholds of one switch egress port after its
    /// backlog changed (any enqueue, dequeue or eviction). Crossing XOFF
    /// upward or XON downward flips the port's `xoff_sent` bit and moves
    /// the switch-wide assertion count; pause/resume frames broadcast only
    /// on that count's 0↔1 edges, to every upstream neighbour in fixed
    /// port-index order so the frame sequence is deterministic.
    fn pfc_update(&mut self, switch: SwitchId, pi: usize) {
        let si = switch.0 as usize;
        let Some(pfc) = self.switches[si].cfg.pfc else { return };
        for p in 0..crate::packet::NUM_PRIORITIES as u8 {
            let bit = 1u8 << p;
            if pfc.priority_mask & bit == 0 {
                continue;
            }
            let (backlog, xoff_sent) = {
                let port = &self.switches[si].ports[pi];
                (port.queues.bytes_at(p), port.xoff_sent & bit != 0)
            };
            if !xoff_sent && backlog >= pfc.xoff_bytes {
                self.switches[si].ports[pi].xoff_sent |= bit;
                self.switches[si].pfc_xoff_count[p as usize] += 1;
                self.emit(TraceEvent::PfcXoff {
                    sw: switch.0,
                    port: pi as u16,
                    prio: p,
                    qlen: backlog,
                    on: true,
                });
                if self.switches[si].pfc_xoff_count[p as usize] == 1 {
                    self.pfc_broadcast(switch, p, true);
                }
            } else if xoff_sent && backlog <= pfc.xon_bytes {
                self.switches[si].ports[pi].xoff_sent &= !bit;
                self.switches[si].pfc_xoff_count[p as usize] -= 1;
                self.emit(TraceEvent::PfcXoff {
                    sw: switch.0,
                    port: pi as u16,
                    prio: p,
                    qlen: backlog,
                    on: false,
                });
                if self.switches[si].pfc_xoff_count[p as usize] == 0 {
                    self.pfc_broadcast(switch, p, false);
                }
            }
        }
    }

    /// Send a pause (`xoff`) or resume frame for `prio` from `switch` to
    /// every neighbour. The frame rides the reverse direction of each
    /// attached full-duplex link with pure propagation delay: MAC control
    /// frames bypass egress queues and serialization entirely, which also
    /// means a pause still reaches neighbours whose forward path is
    /// congested.
    fn pfc_broadcast(&mut self, switch: SwitchId, prio: u8, xoff: bool) {
        let si = switch.0 as usize;
        for pi in 0..self.switches[si].ports.len() {
            let link = self.switches[si].ports[pi].link;
            let l = &self.links[link.0 as usize];
            let (to, delay) = (l.to, l.delay);
            self.schedule(self.now + delay, Ev::Pfc { to, origin: switch, prio, xoff });
        }
    }

    /// Apply a received pause/resume frame at the neighbour: set or clear
    /// the paused bit on the egress port facing `origin`, and on resume
    /// kick the transmitter if backlog was left waiting behind the pause.
    fn apply_pfc(&mut self, to: NodeId, origin: SwitchId, prio: u8, xoff: bool) {
        let bit = 1u8 << prio;
        match to {
            NodeId::Host(h) => {
                let changed = match self.hosts[h.0 as usize].nic.as_mut() {
                    Some(nic) => {
                        let was = nic.paused_mask & bit != 0;
                        if xoff {
                            nic.paused_mask |= bit;
                        } else {
                            nic.paused_mask &= !bit;
                        }
                        was != xoff
                    }
                    None => return,
                };
                if changed {
                    self.emit(TraceEvent::PfcPause { host: h.0, prio, on: xoff });
                }
                if !xoff {
                    let nic = self.hosts[h.0 as usize].nic.as_ref().expect("host not cabled"); // simlint: allow(panic_hygiene)
                    if !nic.busy && !nic.queues.is_empty() {
                        self.start_tx_host(h);
                    }
                }
            }
            NodeId::Switch(s) => {
                // The egress port whose link faces the congested switch is
                // the one that must stop serving the paused priority.
                let Some(pi) = self.switch_port_towards(s, NodeId::Switch(origin)) else {
                    return;
                };
                let port = &mut self.switches[s.0 as usize].ports[pi as usize];
                let was = port.paused_mask & bit != 0;
                if xoff {
                    port.paused_mask |= bit;
                } else {
                    port.paused_mask &= !bit;
                }
                if was != xoff {
                    self.emit(TraceEvent::PfcSwPause { sw: s.0, port: pi, prio, on: xoff });
                }
                if !xoff {
                    let port = &self.switches[s.0 as usize].ports[pi as usize];
                    if !port.busy && !port.queues.is_empty() {
                        self.start_tx_switch(s, pi);
                    }
                }
            }
        }
    }

    /// PFC receive state of a host NIC (bit `p` set = priority `p` paused).
    pub fn host_paused_mask(&self, host: HostId) -> u8 {
        self.hosts[host.0 as usize].nic.as_ref().map_or(0, |nic| nic.paused_mask)
    }

    /// PFC receive state of a switch egress port.
    pub fn switch_port_paused_mask(&self, switch: SwitchId, port: u16) -> u8 {
        self.switches[switch.0 as usize].ports[port as usize].paused_mask
    }

    /// Run a transport handler on `host` with a fresh effects sink, then
    /// apply the effects (transmit packets, arm timers, record completions).
    fn with_transport<F>(&mut self, host: HostId, f: F)
    where
        F: FnOnce(&mut dyn Transport<P>, &mut Ctx<'_, P>),
    {
        let mut effects = std::mem::take(&mut self.effects);
        effects.clear();
        let now = self.now;
        let sanitize = self.san.is_some();
        {
            let trace = self.trace.as_deref_mut();
            let slot = &mut self.hosts[host.0 as usize];
            let transport = slot
                .transport
                .as_deref_mut()
                .unwrap_or_else(|| panic!("no transport installed on {host:?}")); // simlint: allow(panic_hygiene)
            let mut ctx = Ctx::with_trace(now, host, &mut effects, trace).with_sanitizer(sanitize);
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
        // assigned exactly as they always were. `effects` is a local moved
        // out of `self`, so packets drain straight into `host_enqueue`
        // without an intermediate collect; the buffers are handed back at
        // the end and reused across every transport invocation.
        // Retransmit notes first: they only bump counters (never touch the
        // queue), so draining them here cannot shift sequence numbers.
        for flow in effects.retransmits.drain(..) {
            self.retransmits_total += 1;
            if let Some(c) = self.retransmit_counts.get_mut(flow.0 as usize) {
                *c += 1;
            }
        }
        // Sanitizer notes likewise are ledger-only: the vec is empty unless
        // the sanitizer is installed (Ctx::san_note gates on it).
        for note in effects.san_notes.drain(..) {
            if let Some(s) = self.san.as_mut() {
                s.observe_note(now, note);
            }
        }
        for (at, token) in effects.timers.drain(..) {
            let at = at.max(now);
            self.schedule(at, Ev::Timer { host, token });
        }
        for flow in effects.completed.drain(..) {
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
        for pkt in effects.packets.drain(..) {
            self.host_enqueue(host, pkt);
        }
        self.effects = effects;
    }

    /// Enqueue a packet at a host NIC and kick the transmitter if idle.
    fn host_enqueue(&mut self, host: HostId, mut pkt: Packet<P>) {
        pkt.enq_at = self.now;
        if let Some(s) = self.san.as_mut() {
            s.observe_queue_push(host_port_key(host.0), pkt.wire_bytes as u64);
        }
        let slot = self.hosts[host.0 as usize].nic.as_mut().expect("host not cabled"); // simlint: allow(panic_hygiene)
        slot.queues.push(pkt);
        if !slot.busy {
            self.start_tx_host(host);
        }
    }

    /// Route + admission at a switch, kicking the egress transmitter.
    fn switch_forward(&mut self, switch: SwitchId, pkt: Packet<P>) {
        let si = switch.0 as usize;
        let sw = &self.switches[si];
        assert!(
            sw.route_offsets.len() > 1,
            "switch {switch:?} has no route table (did you call build_routes?)"
        );
        let d = pkt.dst.0 as usize;
        let (lo, hi) = (sw.route_offsets[d] as usize, sw.route_offsets[d + 1] as usize);
        let candidates = &sw.route_ports[lo..hi];
        assert!(
            !candidates.is_empty(),
            "switch {switch:?} has no route to {:?} (did you call build_routes?)",
            pkt.dst
        );
        let pi = candidates[(pkt.flow.path_hash() % candidates.len() as u64) as usize] as usize;
        // INT telemetry observes the egress port state before enqueue.
        let (qlen, qlen_high, tx_bytes, tx_high, rate) = {
            let port = &self.switches[si].ports[pi];
            let link = &self.links[port.link.0 as usize];
            (
                port.queues.total_bytes(),
                port.queues.bytes_in_range(0..4),
                link.tx_bytes,
                link.tx_high_bytes,
                link.rate,
            )
        };
        let mut pkt = pkt;
        pkt.enq_at = self.now;
        pkt.payload.on_switch_hop(crate::packet::HopTelemetry {
            qlen_bytes: qlen,
            qlen_high_bytes: qlen_high,
            tx_bytes,
            tx_high_bytes: tx_high,
            ts: self.now,
            link_rate: rate,
        });
        let (tflow, tprio, tbytes) = (pkt.flow.0, pkt.priority, pkt.payload_bytes() as u64);
        let (twire, tecn) = (pkt.wire_bytes as u64, pkt.ecn.capable && !pkt.ecn.ce);
        let sw = &mut self.switches[si];
        let port = &mut sw.ports[pi];
        let evicted_before = port.counters.evicted;
        let outcome = enqueue_policy(&sw.cfg, &mut port.queues, &mut port.counters, pkt);
        let backlog = port.queues.total_bytes();
        let busy = port.busy;
        if self.san.is_some() {
            let key = switch_port_key(switch.0, pi as u16);
            let evicted = port.counters.evicted != evicted_before;
            let qpkts = port.queues.len() as u64;
            // ECN consistency inputs for a marked admission: the rule (if
            // any) at this priority and the scoped backlog the mark
            // decision saw (marking happens pre-push, so subtract the
            // packet's own wire bytes from the post-push scoped backlog).
            let mark_inputs = match outcome {
                EnqueueOutcome::Queued { marked: true } => {
                    let rule = sw.cfg.ecn[tprio as usize];
                    let thr = if tecn { rule.map(|r| r.threshold_bytes) } else { None };
                    let scoped = match rule.map(|r| r.scope) {
                        Some(MarkScope::Queue) => port.queues.bytes_at(tprio),
                        Some(MarkScope::Range(lo, hi)) => port.queues.bytes_in_range(lo..hi),
                        _ => port.queues.total_bytes(),
                    };
                    Some((scoped.saturating_sub(twire), thr))
                }
                _ => None,
            };
            let wire = match outcome {
                EnqueueOutcome::Queued { .. } => Some(twire),
                EnqueueOutcome::Trimmed => Some(crate::packet::TRIMMED_BYTES as u64),
                EnqueueOutcome::Dropped => None,
            };
            if let Some(s) = self.san.as_mut() {
                if let Some(w) = wire {
                    s.observe_queue_push(key, w);
                }
                if evicted {
                    s.observe_queue_resync(key, backlog, qpkts);
                }
                if let Some((scoped, thr)) = mark_inputs {
                    s.observe_ecn_mark(self.now, key, scoped, thr);
                }
            }
        }
        if self.trace.is_some() {
            let (sw, port) = (switch.0, pi as u16);
            match outcome {
                EnqueueOutcome::Dropped => self.emit(TraceEvent::Drop {
                    sw,
                    port,
                    flow: tflow,
                    prio: tprio,
                    bytes: tbytes,
                }),
                EnqueueOutcome::Trimmed => {
                    self.emit(TraceEvent::Trim { sw, port, flow: tflow, prio: tprio })
                }
                EnqueueOutcome::Queued { marked } => {
                    self.emit(TraceEvent::Enqueue {
                        sw,
                        port,
                        flow: tflow,
                        prio: tprio,
                        qlen: backlog,
                    });
                    if marked {
                        self.emit(TraceEvent::EcnMark {
                            sw,
                            port,
                            flow: tflow,
                            prio: tprio,
                            qlen: backlog,
                        });
                    }
                }
            }
        }
        // PFC thresholds see the post-admission backlog (push-out evictions
        // may also have drained other priorities below XON, so this runs
        // on every outcome).
        self.pfc_update(switch, pi);
        match outcome {
            EnqueueOutcome::Dropped => {}
            EnqueueOutcome::Queued { .. } | EnqueueOutcome::Trimmed => {
                if !busy {
                    self.start_tx_switch(switch, pi as u16);
                }
            }
        }
    }

    /// Begin serializing the head-of-line packet at a host NIC.
    fn start_tx_host(&mut self, host: HostId) {
        let slot = self.hosts[host.0 as usize].nic.as_mut().expect("host not cabled"); // simlint: allow(panic_hygiene)
        let Some(pkt) = slot.queues.pop_unpaused(slot.paused_mask) else { return };
        slot.busy = true;
        let link_id = slot.link;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.queue_delay_ns.record(self.now.saturating_since(pkt.enq_at).as_nanos());
        }
        if let Some(s) = self.san.as_mut() {
            s.observe_queue_pop(self.now, host_port_key(host.0), pkt.wire_bytes as u64);
        }
        self.transmit(NodeId::Host(host), 0, link_id, pkt);
    }

    fn start_tx_switch(&mut self, switch: SwitchId, port: u16) {
        // A stalled switch admits (and drops) but never starts serializing;
        // backlogged ports are kicked again when the stall ends.
        if let Some(fs) = self.faults.as_ref() {
            if fs.stalled.get(switch.0 as usize).copied().unwrap_or(0) > 0 {
                return;
            }
        }
        let slot = &mut self.switches[switch.0 as usize].ports[port as usize];
        let Some(pkt) = slot.queues.pop_unpaused(slot.paused_mask) else { return };
        slot.busy = true;
        let link_id = slot.link;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.queue_delay_ns.record(self.now.saturating_since(pkt.enq_at).as_nanos());
        }
        if let Some(s) = self.san.as_mut() {
            s.observe_queue_pop(self.now, switch_port_key(switch.0, port), pkt.wire_bytes as u64);
        }
        self.emit(TraceEvent::Dequeue { sw: switch.0, port, flow: pkt.flow.0, prio: pkt.priority });
        // The dequeue may have drained this port's backlog through XON.
        self.pfc_update(switch, port as usize);
        self.transmit(NodeId::Switch(switch), port, link_id, pkt);
    }

    fn transmit(&mut self, node: NodeId, port: u16, link_id: LinkId, pkt: Packet<P>) {
        if let Some(s) = self.san.as_mut() {
            s.observe_tx_start(self.now, san_port_key(node, port));
        }
        let link = &mut self.links[link_id.0 as usize];
        link.tx_bytes += pkt.wire_bytes as u64;
        link.tx_packets += 1;
        if pkt.priority < 4 {
            link.tx_high_bytes += pkt.wire_bytes as u64;
        }
        let ser = link.rate.serialization_time(pkt.wire_bytes as u64);
        let arrive_at = self.now + ser + link.delay;
        let to = link.to;
        // The fault layer destroys packets *at serialization time*: the
        // sender still pays the full serialization delay (TxDone fires as
        // usual) but no Deliver is scheduled — the bits die on the wire.
        if self.faults.is_some() && self.fault_loses_packet(link_id, &pkt) {
            if let Some(s) = self.san.as_mut() {
                s.observe_fault_drop();
            }
            self.emit(TraceEvent::FaultDrop {
                link: link_id.0,
                flow: pkt.flow.0,
                prio: pkt.priority,
                bytes: pkt.wire_bytes as u64,
            });
            self.schedule(self.now + ser, Ev::TxDone { node, port });
            return;
        }
        let pkt = self.pool.insert(pkt);
        if let Some(s) = self.san.as_mut() {
            s.observe_alloc(self.now, pkt.0 as usize);
        }
        self.schedule(arrive_at, Ev::Deliver { to, pkt });
        self.schedule(self.now + ser, Ev::TxDone { node, port });
    }

    fn tx_done(&mut self, node: NodeId, port: u16) {
        if let Some(s) = self.san.as_mut() {
            s.observe_tx_done(self.now, san_port_key(node, port));
        }
        match node {
            NodeId::Host(h) => {
                let slot = self.hosts[h.0 as usize].nic.as_mut().expect("host not cabled"); // simlint: allow(panic_hygiene)
                slot.busy = false;
                if !slot.queues.is_empty() {
                    self.start_tx_host(h);
                }
            }
            NodeId::Switch(s) => {
                let slot = &mut self.switches[s.0 as usize].ports[port as usize];
                slot.busy = false;
                if !slot.queues.is_empty() {
                    self.start_tx_switch(s, port);
                }
            }
        }
    }
    // simlint: hot-path-end

    fn take_sample(&mut self, idx: u32) {
        let now = self.now;
        let (interval, until, target) = {
            let s = &self.samplers[idx as usize];
            (s.interval, s.until, s.target)
        };
        if let SampleTarget::Telemetry = target {
            self.telemetry_sample();
            // Rearm only while flows are outstanding — a deterministic
            // condition — so the queue drains and `AllFlowsDone` still
            // fires exactly as it would without telemetry.
            if self.flows_completed < self.flows.len() {
                self.schedule(now + interval, Ev::Sample(idx));
            }
            return;
        }
        let sample = match target {
            SampleTarget::Link(l) => {
                Sample { at: now, value: self.links[l.0 as usize].tx_bytes, per_priority: [0; 8] }
            }
            SampleTarget::Port(sw, p) => {
                let q = &self.switches[sw.0 as usize].ports[p as usize].queues;
                let mut per = [0u64; 8];
                for (i, slot) in per.iter_mut().enumerate() {
                    *slot = q.bytes_at(i as u8);
                }
                Sample { at: now, value: q.total_bytes(), per_priority: per }
            }
            SampleTarget::Telemetry => unreachable!("telemetry target handled above"),
        };
        self.samplers[idx as usize].samples.push(sample);
        if now + interval <= until {
            self.schedule(now + interval, Ev::Sample(idx));
        }
    }

    /// One telemetry tick: snapshot fabric state into the series table.
    /// Strictly read-only with respect to simulation state — the only
    /// mutations are to the telemetry ledgers themselves — which is what
    /// keeps telemetry-enabled runs byte-identical (DESIGN.md §14).
    fn telemetry_sample(&mut self) {
        // Detach the box so the borrow checker lets us walk `self` while
        // filling the series; reattached below.
        let Some(mut t) = self.telemetry.take() else { return };
        let now = self.now;
        let at = now.0;
        // Every completed flow started, so started - completed = live;
        // O(1) where a scan over `flows` would cost O(n) per tick.
        let live_flows = self.flows_started - self.flows_completed;
        t.series[IDX_FLOWS_LIVE].push(at, live_flows as f64);
        let pool = self.pool.stats();
        t.series[IDX_POOL_LIVE].push(at, pool.live as f64);
        t.series[IDX_POOL_HIT].push(at, pool.hit_rate());
        let mut cc = CcSnapshot::default();
        for host in &self.hosts {
            if let Some(transport) = host.transport.as_deref() {
                cc.add(&transport.cc_snapshot());
            }
        }
        t.series[IDX_CC_CWND].push(at, cc.cwnd_bytes as f64);
        t.series[IDX_CC_INFLIGHT].push(at, cc.inflight_bytes as f64);
        let mut idx = t.port_base;
        for sw in &self.switches {
            for port in &sw.ports {
                let backlog = port.queues.total_bytes();
                t.series[idx].push(at, backlog as f64);
                t.series[idx + 1].push(at, port.queues.len() as f64);
                t.queue_depth_bytes.record(backlog);
                idx += 2;
            }
        }
        // Utilization = bytes the link moved this window over the bytes it
        // could have moved; capped at 1.0 because a serialization that
        // straddles the window boundary books its bytes at start-of-tx.
        let window = now.saturating_since(t.last_sample_at);
        for (li, link) in self.links.iter().enumerate() {
            let tx = link.tx_bytes;
            let delta = tx - t.last_link_tx[li];
            t.last_link_tx[li] = tx;
            let capacity = link.rate.bytes_in(window);
            let util = if capacity == 0 { 0.0 } else { (delta as f64 / capacity as f64).min(1.0) };
            t.series[t.link_base + li].push(at, util);
        }
        t.last_sample_at = now;
        t.samples_taken += 1;
        self.telemetry = Some(t);
    }

    // ---------------------------------------------------------------
    // Sanitizer audits (cadence-driven; see crate::sanitizer)
    // ---------------------------------------------------------------

    /// Count one dispatched event against the sanitizer cadence; when an
    /// audit is due, run it and flush. Returns true when the run must stop
    /// with [`StopReason::SanViolation`].
    fn san_tick(&mut self) -> bool {
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

    /// Cross-check the sanitizer ledger against the engine's real state.
    fn san_audit(&mut self, quiescent: bool) {
        let Some(mut san) = self.san.take() else { return };
        let now = self.now;
        san.audit_pool(now, self.pool.stats().live, quiescent);
        for (hi, slot) in self.hosts.iter().enumerate() {
            if let Some(nic) = &slot.nic {
                san.audit_port(
                    now,
                    host_port_key(hi as u32),
                    nic.queues.total_bytes(),
                    nic.queues.len() as u64,
                    nic.busy,
                    nic.queues.audit_counters(),
                );
            }
        }
        for (si, sw) in self.switches.iter().enumerate() {
            for (pi, port) in sw.ports.iter().enumerate() {
                san.audit_port(
                    now,
                    switch_port_key(si as u32, pi as u16),
                    port.queues.total_bytes(),
                    port.queues.len() as u64,
                    port.busy,
                    port.queues.audit_counters(),
                );
            }
        }
        san.audit_faults(now, self.faults.as_ref().map_or(0, |fs| fs.drops));
        self.san = Some(san);
    }

    /// Emit every not-yet-reported violation as a `SanViolation` trace
    /// event (stamped with its detection time); returns true when any
    /// violation has ever been recorded.
    fn san_flush(&mut self) -> bool {
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

/// Sanitizer ledger key for an egress port (host NICs always use port 0).
fn san_port_key(node: NodeId, port: u16) -> u64 {
    match node {
        NodeId::Host(h) => host_port_key(h.0),
        NodeId::Switch(s) => switch_port_key(s.0, port),
    }
}

/// Deliberate state-corruption hooks for the simsan selftest suite
/// (`tests/sanitizer.rs`): each seeds exactly one corruption class that
/// the sanitizer must flag. Compiled only for tests and the
/// `simsan-selftest` feature — release artifacts never contain them.
#[cfg(any(test, feature = "simsan-selftest"))]
impl<P: Payload> Simulator<P> {
    /// Leak one pooled packet buffer: a slot vanishes from the free list
    /// without its packet ever being delivered, so `pool_stats().live`
    /// inflates relative to the sanitizer's ledger. No-op until at least
    /// one packet has cycled through the pool.
    pub fn corrupt_pool_leak(&mut self) {
        self.pool.free.pop();
    }

    /// Replay a free of an already-freed pool slot into the sanitizer's
    /// ledger — the event stream a double-free bug would produce. No-op
    /// until at least one slot has been freed or the sanitizer is off.
    pub fn corrupt_pool_double_free(&mut self) {
        let now = self.now;
        let slot = self.pool.free.first().copied();
        if let (Some(slot), Some(s)) = (slot, self.san.as_mut()) {
            s.observe_free(now, slot as usize);
        }
    }

    /// Push two queue entries with the *same* `(time, seq)` key, breaking
    /// the strictly-increasing sequence numbers the FIFO tie-break relies
    /// on. The payload is an out-of-range fault op, which dispatches as a
    /// no-op. Do not combine with an installed fault schedule.
    pub fn corrupt_tie_break(&mut self) {
        let entry = QEntry { at: self.now, seq: self.seq, ev: Ev::Fault(u32::MAX) };
        self.queue.push(entry); // simlint: allow(event_order)
        self.queue.push(entry); // simlint: allow(event_order)
        self.seq += 1;
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

    /// Bump the fault layer's drop counter without any packet having been
    /// destroyed, leaving a drop the `FaultReport` cannot attribute.
    /// No-op unless a fault schedule is installed.
    pub fn corrupt_fault_attribution(&mut self) {
        if let Some(fs) = self.faults.as_mut() {
            fs.drops += 1;
        }
    }
}
