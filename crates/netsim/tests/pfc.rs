//! PFC backpressure behaviour: pausing under incast, lossless operation,
//! upstream propagation, determinism, and the deadlock a cyclic buffer
//! dependency makes.

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::packet::segment;
use netsim::{
    star, FlowId, HostId, LeafSpineParams, NodeId, Packet, Payload, PfcConfig, Rate, RunLimits,
    SanLevel, SimDuration, SimTime, Simulator, StopReason, SwitchConfig, SwitchId, Topology,
};

#[derive(Clone, Debug)]
struct Hdr {
    size: u64,
}
impl Payload for Hdr {}

/// Blast sender + byte-counting receiver (no congestion control): the
/// worst case for a shallow buffer, and exactly what PFC must absorb.
struct Blast {
    rx: std::collections::BTreeMap<FlowId, (u64, u64)>,
    /// The priority this host sends at.
    prio: u8,
}

impl Blast {
    fn boxed() -> Box<Self> {
        Self::at(0)
    }

    fn at(prio: u8) -> Box<Self> {
        Box::new(Blast { rx: std::collections::BTreeMap::new(), prio })
    }
}

impl Transport<Hdr> for Blast {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hdr>) {
        for (_off, len) in segment(flow.size_bytes) {
            let hdr = Hdr { size: flow.size_bytes };
            ctx.send(Packet::data(flow.id, flow.src, flow.dst, len, hdr).with_priority(self.prio));
        }
    }
    fn on_packet(&mut self, pkt: Packet<Hdr>, ctx: &mut Ctx<'_, Hdr>) {
        let e = self.rx.entry(pkt.flow).or_insert((0, pkt.payload.size));
        e.0 += pkt.payload_bytes() as u64;
        if e.0 >= e.1 {
            ctx.flow_completed(pkt.flow);
        }
    }
    fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Hdr>) {}
}

fn incast_star(cfg: SwitchConfig) -> Topology<Hdr> {
    let mut topo = star::<Hdr>(4, Rate::gbps(10), SimDuration::from_micros(5), cfg);
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Blast::boxed());
    }
    // 3:1 incast into host 3: 200KB blasted per sender against a buffer
    // that cannot hold even one sender's burst.
    for src in 0..3 {
        topo.sim.add_flow(topo.hosts[src], topo.hosts[3], 200_000, SimTime::ZERO, 1);
    }
    topo
}

const BUF: u64 = 100_000;

/// Sliced run that records which hosts were ever paused (run() resumes,
/// so probing between slices observes transient pause state).
fn run_probing_pauses(topo: &mut Topology<Hdr>) -> (netsim::RunReport, [bool; 4]) {
    let mut paused = [false; 4];
    let mut report;
    let mut t = 50_000;
    loop {
        report = topo.sim.run(RunLimits { max_time: SimTime(t), max_events: u64::MAX });
        for (i, slot) in paused.iter_mut().enumerate() {
            *slot |= topo.sim.host_paused_mask(topo.hosts[i]) != 0;
        }
        if report.stop != StopReason::MaxTime {
            return (report, paused);
        }
        t += 50_000;
        assert!(t < 1_000_000_000, "incast never drained");
    }
}

#[test]
fn pfc_pauses_senders_and_prevents_incast_drops() {
    // Without PFC the 3:1 blast overflows the 100KB buffer.
    let mut lossy = incast_star(SwitchConfig::basic(BUF));
    let report = lossy.sim.run(RunLimits::default());
    assert!(report.flows_completed < 3, "blast senders never retransmit, so drops must show");
    assert!(lossy.sim.total_counters().dropped > 0);

    // With PFC the switch pauses the sending NICs instead, each on its
    // own ingress account, and nothing is lost — the backlog waits at the
    // hosts.
    let mut lossless = incast_star(SwitchConfig::basic(BUF).with_pfc(PfcConfig::for_buffer(BUF)));
    let (report, paused) = run_probing_pauses(&mut lossless);
    assert_eq!(report.flows_completed, 3, "PFC must make the incast lossless");
    assert_eq!(lossless.sim.total_counters().dropped, 0);
    assert_eq!(paused, [true, true, true, false], "each sender is paused, the receiver never");
    // Terminal state: every pause released once the fabric drained.
    for i in 0..4 {
        assert_eq!(lossless.sim.host_paused_mask(lossless.hosts[i]), 0);
    }
}

#[test]
fn pfc_propagates_upstream_across_switches() {
    let params = LeafSpineParams {
        n_leaves: 2,
        n_spines: 2,
        hosts_per_leaf: 2,
        edge_rate: Rate::gbps(10),
        core_rate: Rate::gbps(10),
        link_delay: SimDuration::from_micros(2),
    };
    let cfg = SwitchConfig::basic(BUF).with_pfc(PfcConfig::for_buffer(BUF));
    let mut topo = netsim::leaf_spine::<Hdr>(&params, cfg);
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Blast::boxed());
    }
    // Cross-rack 3:1 incast into the last host: the destination leaf's
    // host port congests, pausing the spines, whose own backlog then
    // pauses the source leaf — hop-by-hop backpressure.
    let dst = topo.hosts[3];
    for src in 0..3 {
        topo.sim.add_flow(topo.hosts[src], dst, 300_000, SimTime::ZERO, 1);
    }
    let mut spine_paused = false;
    let mut t = 50_000;
    let report = loop {
        let report = topo.sim.run(RunLimits { max_time: SimTime(t), max_events: u64::MAX });
        for &spine in &topo.spines.clone() {
            for p in 0..topo.sim.port_count(spine) {
                spine_paused |= topo.sim.switch_port_paused_mask(spine, p as u16) != 0;
            }
        }
        if report.stop != StopReason::MaxTime {
            break report;
        }
        t += 50_000;
        assert!(t < 2_000_000_000, "incast never drained");
    };
    assert_eq!(report.flows_completed, 3);
    assert_eq!(topo.sim.total_counters().dropped, 0, "hop-by-hop PFC keeps the fabric lossless");
    assert!(spine_paused, "the congested leaf must have paused a spine egress port");
}

#[test]
fn pfc_runs_are_deterministic_and_sanitizer_clean() {
    let digest = |sanitize: bool| {
        let mut topo = incast_star(SwitchConfig::basic(BUF).with_pfc(PfcConfig::for_buffer(BUF)));
        if sanitize {
            topo.sim.set_sanitizer(SanLevel::PerEvent);
        }
        let report = topo.sim.run(RunLimits::default());
        assert_eq!(report.flows_completed, 3);
        assert!(topo.sim.san_violations().is_empty(), "{:?}", topo.sim.san_violations());
        let times: Vec<_> = topo.sim.flows().iter().map(|f| topo.sim.completion(f.id)).collect();
        (report.events, times)
    };
    // Bit-identical rerun, and the sanitizer (whose observation hooks
    // must see pause-gated pops consistently) changes nothing.
    assert_eq!(digest(false), digest(false));
    assert_eq!(digest(false).1, digest(true).1);
}

/// A PFC switch is lossless whatever else it is configured to do: with
/// push-out on and a 20 KB buffer that four converging senders overrun, it
/// evicts nothing and drops nothing — the pauses bound each ingress, and
/// the per-event audit holds every account within its headroom.
#[test]
fn a_pfc_switch_never_evicts_or_tail_drops_even_with_push_out() {
    let pfc = PfcConfig { xoff_bytes: 12_000, xon_bytes: 8_000 };
    let cfg = SwitchConfig::basic(20_000).with_push_out(true).with_pfc(pfc);
    let mut topo = star::<Hdr>(5, Rate::gbps(10), SimDuration::from_micros(1), cfg);
    topo.sim.set_trace_sink(Box::new(netsim::trace::MemorySink::new()));
    topo.sim.set_sanitizer(SanLevel::PerEvent);
    for (i, &h) in topo.hosts.clone().iter().enumerate() {
        topo.sim.set_transport(h, Blast::at(if i < 2 { 7 } else { 0 }));
    }
    // Two P7 senders build the backlog; two P0 senders arrive later, the
    // arrivals a lossy push-out port would evict P7 for.
    let sink = topo.hosts[4];
    for (src, start) in [(0, 0), (1, 0), (2, 30_000), (3, 30_000)] {
        topo.sim.add_flow(topo.hosts[src], sink, 100_000, SimTime(start), 1);
    }
    let report = topo.sim.run(RunLimits::default());
    assert_eq!((report.stop, report.flows_completed), (StopReason::AllFlowsDone, 4));
    assert!(topo.sim.san_violations().is_empty(), "{:?}", topo.sim.san_violations());
    let c = topo.sim.total_counters();
    assert_eq!((c.evicted, c.dropped), (0, 0), "{c:?}");
    let trace = topo.sim.take_trace_sink().expect("installed");
    let events = trace.as_any().downcast_ref::<netsim::trace::MemorySink>().expect("memory");
    let deepest = events.events().iter().filter_map(|(_, ev)| match *ev {
        netsim::TraceEvent::Enqueue { qlen, .. } => Some(qlen),
        _ => None,
    });
    assert!(deepest.max() > Some(20_000), "the buffer is no limit: the pauses are");
}

/// Switches in a ring, one host each, every host blasting to the host two
/// hops clockwise: each ring link carries two flows, so every switch pauses
/// the one before it, and the pauses close a cycle. The buffer dependency
/// that up/down Clos routing cannot form — and the run must say so.
fn ring(senders: usize) -> (Simulator<Hdr>, netsim::RunReport) {
    const N: u32 = 5;
    let mut sim = Simulator::<Hdr>::new();
    let cfg = SwitchConfig::basic(30_000).with_pfc(PfcConfig::for_buffer(30_000));
    let (rate, delay) = (Rate::gbps(10), SimDuration::from_micros(1));
    for i in 0..N {
        sim.add_switch(cfg.clone());
        let h = sim.add_host();
        sim.connect(NodeId::Host(h), NodeId::Switch(SwitchId(i)), rate, delay);
        sim.set_transport(h, Blast::boxed());
    }
    for i in 0..N {
        sim.connect(
            NodeId::Switch(SwitchId(i)),
            NodeId::Switch(SwitchId((i + 1) % N)),
            rate,
            delay,
        );
    }
    sim.build_routes();
    for i in 0..senders as u32 {
        sim.add_flow(HostId(i), HostId((i + 2) % N), 2_000_000, SimTime::ZERO, 1);
    }
    sim.set_sanitizer(SanLevel::PerEpoch);
    let report = sim.run(RunLimits::default());
    assert!(sim.san_violations().is_empty(), "{:?}", sim.san_violations());
    (sim, report)
}

#[test]
fn a_cyclic_pause_dependency_stops_the_run_as_a_deadlock() {
    let (sim, report) = ring(5);
    assert_eq!(report.stop, StopReason::Deadlock);
    assert_eq!(report.flows_completed, 0);
    assert!(report.end_time < SimTime(100_000), "found as it forms: {:?}", report.end_time);
    assert_eq!(sim.total_counters().dropped, 0, "wedged, not lossy");
    for s in 0..5 {
        let paused = (0..sim.port_count(SwitchId(s)) as u16)
            .any(|p| sim.switch_port_paused_mask(SwitchId(s), p) != 0);
        assert!(paused, "switch {s} is a link of the cycle");
    }
    // One sender fewer leaves a ring link with one flow: no cycle, and the
    // same detector lets the run finish.
    let (_, report) = ring(4);
    assert_eq!((report.stop, report.flows_completed), (StopReason::AllFlowsDone, 4));
}
