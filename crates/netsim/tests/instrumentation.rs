//! Tests of the simulator's measurement machinery: telemetry series,
//! counters, CPU accounting and topology introspection.

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::packet::segment;
use netsim::{
    star, FlowId, NodeId, Packet, Payload, Rate, RunLimits, RunReport, SimDuration, SimTime,
    Simulator, StopReason, SwitchConfig, TelemetryConfig,
};

#[derive(Clone, Debug)]
struct Hdr {
    size: u64,
}
impl Payload for Hdr {}

struct Blast {
    rx: std::collections::HashMap<FlowId, (u64, u64)>,
    /// Busy-loop iterations per handler, to make CPU accounting visible.
    spin: u32,
    /// Send odd-numbered flows in the low-priority band (P5), the way PPT
    /// tags its opportunistic packets; everything else rides P0.
    tag_odd_flows_low: bool,
}

impl Transport<Hdr> for Blast {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hdr>) {
        let prio = if self.tag_odd_flows_low && flow.id.0 % 2 == 1 { 5 } else { 0 };
        for (_, len) in segment(flow.size_bytes) {
            let hdr = Hdr { size: flow.size_bytes };
            ctx.send(Packet::data(flow.id, flow.src, flow.dst, len, hdr).with_priority(prio));
        }
    }
    fn on_packet(&mut self, pkt: Packet<Hdr>, ctx: &mut Ctx<'_, Hdr>) {
        for _ in 0..self.spin {
            std::hint::black_box(0u64);
        }
        let e = self.rx.entry(pkt.flow).or_insert((0, pkt.payload.size));
        e.0 += pkt.payload_bytes() as u64;
        if e.0 >= e.1 {
            ctx.flow_completed(pkt.flow);
        }
    }
    fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Hdr>) {}
}

fn blast(spin: u32, tag_odd_flows_low: bool) -> Box<Blast> {
    Box::new(Blast { rx: Default::default(), spin, tag_odd_flows_low })
}

fn topo_with(spin: u32, tag_odd_flows_low: bool) -> netsim::Topology<Hdr> {
    let mut t =
        star::<Hdr>(3, Rate::gbps(10), SimDuration::from_micros(5), SwitchConfig::basic(1 << 24));
    for &h in &t.hosts.clone() {
        t.sim.set_transport(h, blast(spin, tag_odd_flows_low));
    }
    t
}

/// Run `sim` until its queue drains, under a bound of about twice what the
/// run needs: a run that cannot stop fails here instead of hanging.
fn run_done(sim: &mut Simulator<Hdr>, max_time_ns: u64, max_events: u64) -> RunReport {
    let report = sim.run(RunLimits { max_time: SimTime(max_time_ns), max_events });
    assert_eq!(report.stop, StopReason::AllFlowsDone, "{report:?}");
    report
}

#[test]
fn cpu_accounting_counts_handler_invocations() {
    let mut topo = topo_with(10, false);
    topo.sim.measure_cpu = true;
    topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 50 * 1460, SimTime::ZERO, 1);
    run_done(&mut topo.sim, 150_000, 400);
    let (tx_ns, tx_calls) = topo.sim.cpu_account(topo.hosts[0]);
    let (rx_ns, rx_calls) = topo.sim.cpu_account(topo.hosts[1]);
    // Sender: 1 flow-start call. Receiver: 50 packet deliveries.
    assert_eq!(tx_calls, 1);
    assert_eq!(rx_calls, 50);
    assert!(tx_ns > 0 && rx_ns > 0);
}

#[test]
fn cpu_accounting_is_off_by_default() {
    let mut topo = topo_with(0, false);
    topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1460, SimTime::ZERO, 1);
    run_done(&mut topo.sim, 25_000, 10);
    assert_eq!(topo.sim.cpu_account(topo.hosts[1]), (0, 0));
}

#[test]
fn port_series_split_backlog_by_priority_band() {
    let mut topo = topo_with(0, true);
    // Two senders into one host: P0 arrives at twice the drain rate and
    // backs up; host 1's P5 flow (its NIC serves P0 first) then lands
    // behind that backlog, so the shared egress port holds both bands.
    topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 200 * 1460, SimTime::ZERO, 1);
    topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 200 * 1460, SimTime::ZERO, 1);
    topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 200 * 1460, SimTime::ZERO, 1);
    let port = topo
        .sim
        .switch_port_towards(topo.leaves[0], NodeId::Host(topo.hosts[2]))
        .expect("port toward receiver");
    topo.sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_micros(10)));
    run_done(&mut topo.sim, 1_500_000, 5_000);
    let t = topo.sim.telemetry().expect("telemetry enabled");
    let total = t.port_queue_bytes(topo.leaves[0], port);
    let low = t.port_queue_lp_bytes(topo.leaves[0], port);
    assert!(!total.is_empty());
    assert_eq!(total.len(), low.len(), "both series tick together");
    let max_backlog = total.points().map(|p| p.value).fold(0.0, f64::max);
    assert!(max_backlog > 100_000.0, "burst should queue >100KB, saw {max_backlog}");
    // The low band is part of the total at every tick, and at some tick
    // both bands hold bytes.
    let mut both_bands_queued = false;
    for (all, lp) in total.points().zip(low.points()) {
        assert_eq!(all.at, lp.at);
        assert!(lp.value <= all.value, "low band {} exceeds total {}", lp.value, all.value);
        both_bands_queued |= lp.value > 0.0 && all.value > lp.value;
    }
    assert!(both_bands_queued, "both priority bands should be backlogged at once");
}

#[test]
fn link_counters_track_bytes_and_packets() {
    let mut topo = topo_with(0, false);
    let size = 10 * 1460u64;
    topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, 1);
    run_done(&mut topo.sim, 50_000, 80);
    let link = topo.sim.link(topo.sim.host_uplink(topo.hosts[0]));
    assert_eq!(link.tx_packets, 10);
    assert_eq!(link.tx_bytes, size + 10 * 40); // payload + headers
                                               // All at priority 0 => the high-band counter matches.
    assert_eq!(link.tx_high_bytes, link.tx_bytes);
}

#[test]
#[should_panic(expected = "no route")]
fn forwarding_without_routes_panics_clearly() {
    let mut sim = netsim::Simulator::<Hdr>::new();
    let sw = sim.add_switch(SwitchConfig::basic(1 << 20));
    let a = sim.add_host();
    let b = sim.add_host();
    sim.connect(NodeId::Host(a), NodeId::Switch(sw), Rate::gbps(1), SimDuration::from_micros(1));
    sim.connect(NodeId::Host(b), NodeId::Switch(sw), Rate::gbps(1), SimDuration::from_micros(1));
    // build_routes() deliberately not called.
    sim.set_transport(a, blast(0, false));
    sim.set_transport(b, blast(0, false));
    sim.add_flow(a, b, 100, SimTime::ZERO, 100);
    sim.run(RunLimits { max_time: SimTime(1_000_000), max_events: 100 });
}

#[test]
#[should_panic(expected = "already cabled")]
fn double_cabling_a_host_panics() {
    let mut sim = netsim::Simulator::<Hdr>::new();
    let sw = sim.add_switch(SwitchConfig::basic(1 << 20));
    let a = sim.add_host();
    sim.connect(NodeId::Host(a), NodeId::Switch(sw), Rate::gbps(1), SimDuration::from_micros(1));
    sim.connect(NodeId::Host(a), NodeId::Switch(sw), Rate::gbps(1), SimDuration::from_micros(1));
}
