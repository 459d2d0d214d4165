//! Engine invariants: conservation, determinism and ordering under
//! randomized topologies and workloads: deterministic seeded sweeps
//! driven by the in-tree [`Pcg32`].

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::packet::segment;
use netsim::{
    star, FlowId, LeafSpineParams, Packet, Payload, Pcg32, Rate, RunLimits, RunReport, SimDuration,
    SimTime, Simulator, StopReason, SwitchConfig, Topology,
};

#[derive(Clone, Debug)]
struct Hdr {
    size: u64,
}
impl Payload for Hdr {}

/// Blast sender + byte-counting receiver (no congestion control): on a
/// big-buffer fabric nothing may be lost.
struct Blast {
    rx: std::collections::BTreeMap<FlowId, (u64, u64)>,
}

impl Transport<Hdr> for Blast {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hdr>) {
        for (off, len) in segment(flow.size_bytes) {
            let _ = off;
            ctx.send(Packet::data(flow.id, flow.src, flow.dst, len, Hdr { size: flow.size_bytes }));
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

fn build_star(n: usize) -> Topology<Hdr> {
    let mut topo =
        star::<Hdr>(n, Rate::gbps(10), SimDuration::from_micros(5), SwitchConfig::basic(1 << 30));
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Box::new(Blast { rx: std::collections::BTreeMap::new() }));
    }
    topo
}

/// `1..=max_n` random `(size, start_ns)` pairs with `size` in
/// `[1, max_size)` and `start_ns` in `[0, max_start)`.
fn random_flows(rng: &mut Pcg32, max_n: usize, max_size: u64, max_start: u64) -> Vec<(u64, u64)> {
    let n = 1 + rng.gen_index(max_n);
    (0..n).map(|_| (1 + rng.gen_range(max_size - 1), rng.gen_range(max_start))).collect()
}

/// Run `sim` until its queue drains, under a bound of about twice what the
/// run needs: a run that cannot stop fails here instead of hanging.
fn run_done(sim: &mut Simulator<Hdr>, max_time_ns: u64, max_events: u64) -> RunReport {
    let report = sim.run(RunLimits { max_time: SimTime(max_time_ns), max_events });
    assert_eq!(report.stop, StopReason::AllFlowsDone, "{report:?}");
    report
}

/// Every flow completes on an over-provisioned star, regardless of sizes
/// and arrival times, and FCT >= the physical lower bound.
#[test]
fn all_flows_complete_and_respect_physics_seeded() {
    for seed in 0..24u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let flows = random_flows(&mut rng, 19, 2_000_000, 1_000_000);
        let n = 2 + rng.gen_index(4);
        let mut topo = build_star(n);
        let mut ids = Vec::new();
        for (i, &(size, start_ns)) in flows.iter().enumerate() {
            let src = i % n;
            let dst = (i + 1) % n;
            ids.push(topo.sim.add_flow(
                topo.hosts[src],
                topo.hosts[dst],
                size,
                SimTime(start_ns),
                size,
            ));
        }
        let report = run_done(&mut topo.sim, 20_000_000, 140_000);
        assert_eq!(report.flows_completed, flows.len(), "seed {seed}");
        for (id, &(size, start_ns)) in ids.iter().zip(flows.iter()) {
            let done = topo.sim.completion(*id).expect("completed flow has a completion time");
            let fct = done.saturating_since(SimTime(start_ns));
            // Lower bound: last byte serialized once at 10G + 2 hops prop.
            let min = Rate::gbps(10).serialization_time(size).as_nanos() / 2 + 10_000;
            assert!(
                fct.as_nanos() >= min.min(20_000),
                "seed {seed}: fct {fct:?} too fast for size {size}"
            );
        }
    }
}

/// Bit-identical reruns: equal inputs give equal completion times and
/// equal event counts.
#[test]
fn engine_is_deterministic_seeded() {
    for seed in 0..8u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let flows = random_flows(&mut rng, 11, 500_000, 200_000);
        let run = || {
            let mut topo = build_star(4);
            let ids: Vec<FlowId> = flows
                .iter()
                .enumerate()
                .map(|(i, &(size, t))| {
                    topo.sim.add_flow(
                        topo.hosts[i % 4],
                        topo.hosts[(i + 1) % 4],
                        size,
                        SimTime(t),
                        size,
                    )
                })
                .collect();
            let report = run_done(&mut topo.sim, 2_000_000, 17_000);
            let times: Vec<_> = ids.iter().map(|&id| topo.sim.completion(id)).collect();
            (report.events, times)
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}

/// Byte conservation at the switch: enqueued = delivered + dropped
/// (every admitted packet eventually leaves on a link).
#[test]
fn switch_counters_conserve_packets_seeded() {
    for seed in 0..12u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let n_flows = 1 + rng.gen_index(9);
        let sizes: Vec<u64> = (0..n_flows).map(|_| 1 + rng.gen_range(300_000 - 1)).collect();
        let mut topo = build_star(3);
        for (i, &size) in sizes.iter().enumerate() {
            topo.sim.add_flow(topo.hosts[i % 2], topo.hosts[2], size, SimTime::ZERO, size);
        }
        run_done(&mut topo.sim, 2_600_000, 8_500);
        let c = topo.sim.total_counters();
        assert_eq!(c.dropped, 0, "seed {seed}: no drops on a 1GB buffer");
        // Every data packet sent by hosts crossed exactly one switch.
        let host_tx: u64 =
            (0..3).map(|i| topo.sim.link(topo.sim.host_uplink(topo.hosts[i])).tx_packets).sum();
        assert_eq!(c.enqueued, host_tx, "seed {seed}");
    }
}

/// ECMP balance on a leaf-spine fabric: every spine carries traffic for
/// enough flows, and per-flow paths are consistent (no reordering across
/// spines for a single flow).
#[test]
fn ecmp_is_flow_consistent() {
    let params = LeafSpineParams {
        n_leaves: 2,
        n_spines: 4,
        hosts_per_leaf: 2,
        edge_rate: Rate::gbps(10),
        core_rate: Rate::gbps(40),
        link_delay: SimDuration::from_micros(1),
    };
    let mut topo = netsim::leaf_spine::<Hdr>(&params, SwitchConfig::basic(1 << 30));
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Box::new(Blast { rx: std::collections::BTreeMap::new() }));
    }
    // One multi-packet cross-rack flow: all packets must take one path,
    // so exactly one leaf->spine link sees them.
    topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 100 * 1460, SimTime::ZERO, 1);
    run_done(&mut topo.sim, 250_000, 1_200);
    let mut used_links = 0;
    for &spine in &topo.spines.clone() {
        let port = topo.sim.switch_port_towards(topo.leaves[0], netsim::NodeId::Switch(spine));
        if let Some(p) = port {
            if topo.sim.link(topo.sim.switch_port_link(topo.leaves[0], p)).tx_packets > 0 {
                used_links += 1;
            }
        }
    }
    assert_eq!(used_links, 1, "a single flow must stay on one ECMP path");
}
