//! Randomized-workload and failure-injection tests across the transport
//! family: deterministic seeded sweeps driven by the in-tree [`Pcg32`].

use netsim::{star, Pcg32, Rate, RunLimits, SimDuration, SimTime, StopReason, SwitchConfig};
use ppt_core::PptConfig;
use transports::{
    install, DctcpHcp, DctcpTransport, HomaCfg, HomaTransport, NdpCfg, NdpTransport, Ppt,
    PptTransport, Proto, TcpCfg,
};

type Topo = netsim::Topology<Proto>;

fn install_dctcp(topo: &mut Topo, tcp: &TcpCfg) {
    install(topo, || DctcpTransport::new(tcp.clone(), DctcpHcp, ()));
}

fn install_ppt(topo: &mut Topo, tcp: &TcpCfg, cfg: &PptConfig) {
    install(topo, || PptTransport::new(tcp.clone(), DctcpHcp, Ppt { cfg: *cfg }));
}

fn install_homa(topo: &mut Topo, cfg: &HomaCfg) {
    install(topo, || HomaTransport::new(cfg.clone(), netsim::MSS_BYTES));
}

fn install_ndp(topo: &mut Topo, watchdog: SimDuration) {
    let cfg = NdpCfg::new(topo.edge_rate, topo.base_rtt, watchdog);
    install(topo, || NdpTransport::new(cfg.clone(), netsim::MSS_BYTES));
}

/// Run a one-flow topology to completion within 100 ms and 10 000 events
/// (it needs at most 10 ms and 10 events): a sender that never falls silent
/// fails here instead of spinning.
fn run_done(topo: &mut Topo) {
    let report = topo.sim.run(RunLimits { max_time: SimTime(100_000_000), max_events: 10_000 });
    assert_eq!(report.stop, StopReason::AllFlowsDone, "the run hit its bound: {report:?}");
}

fn tcp(base_rtt: SimDuration) -> TcpCfg {
    TcpCfg::new(base_rtt)
}

fn random_sizes(rng: &mut Pcg32, max_n: usize, max_size: u64) -> Vec<u64> {
    let n = 1 + rng.gen_index(max_n);
    (0..n).map(|_| 1 + rng.gen_range(max_size - 1)).collect()
}

/// DCTCP delivers any mix of flow sizes losslessly over an ECN fabric.
#[test]
fn dctcp_random_workload_completes_seeded() {
    for seed in 0..6u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let sizes = random_sizes(&mut rng, 9, 3_000_000);
        let mut topo = star::<Proto>(
            4,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::dctcp(500_000, 60_000),
        );
        let t = tcp(topo.base_rtt);
        install_dctcp(&mut topo, &t);
        for (i, &size) in sizes.iter().enumerate() {
            topo.sim.add_flow(
                topo.hosts[i % 3],
                topo.hosts[3],
                size,
                SimTime(i as u64 * 30_000),
                size,
            );
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(120_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, sizes.len(), "seed {seed}");
    }
}

/// PPT delivers any mix of flow sizes and first-write patterns.
#[test]
fn ppt_random_workload_completes_seeded() {
    for seed in 0..6u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let n = 1 + rng.gen_index(9);
        let flows: Vec<(u64, u64)> = (0..n)
            .map(|_| (1 + rng.gen_range(3_000_000 - 1), 1 + rng.gen_range(3_000_000 - 1)))
            .collect();
        let rate = Rate::gbps(10);
        let mut topo = star::<Proto>(
            4,
            rate,
            SimDuration::from_micros(20),
            SwitchConfig::ppt(500_000, 60_000, 40_000),
        );
        let cfg = PptConfig::new(rate, topo.base_rtt);
        let t = tcp(topo.base_rtt);
        install_ppt(&mut topo, &t, &cfg);
        for (i, &(size, fw)) in flows.iter().enumerate() {
            let first_write = fw.min(size);
            topo.sim.add_flow(
                topo.hosts[i % 3],
                topo.hosts[3],
                size,
                SimTime(i as u64 * 30_000),
                first_write,
            );
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(120_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, flows.len(), "seed {seed}");
    }
}

/// Homa delivers any mix of message sizes (grants + timeout recovery).
#[test]
fn homa_random_workload_completes_seeded() {
    for seed in 0..6u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let sizes = random_sizes(&mut rng, 7, 2_000_000);
        let mut topo = star::<Proto>(
            4,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::basic(500_000),
        );
        install_homa(&mut topo, &HomaCfg::new(50_000));
        for (i, &size) in sizes.iter().enumerate() {
            topo.sim.add_flow(
                topo.hosts[i % 3],
                topo.hosts[3],
                size,
                SimTime(i as u64 * 40_000),
                size,
            );
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(120_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, sizes.len(), "seed {seed}");
    }
}

/// NDP delivers any mix of message sizes through the trim/pull path.
#[test]
fn ndp_random_workload_completes_seeded() {
    for seed in 0..6u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let sizes = random_sizes(&mut rng, 7, 2_000_000);
        let mut topo = star::<Proto>(
            4,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::ndp(120_000, 12_000),
        );
        install_ndp(&mut topo, SimDuration::from_millis(1));
        for (i, &size) in sizes.iter().enumerate() {
            topo.sim.add_flow(
                topo.hosts[i % 3],
                topo.hosts[3],
                size,
                SimTime(i as u64 * 40_000),
                size,
            );
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(120_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, sizes.len(), "seed {seed}");
    }
}

/// Failure injection: a brutally small switch buffer (4 packets) with no
/// ECN — heavy loss on every path. All TCP-family schemes must still
/// complete via SACK/RTO recovery.
#[test]
fn dctcp_survives_a_four_packet_buffer() {
    let mut topo = star::<Proto>(
        3,
        Rate::gbps(10),
        SimDuration::from_micros(20),
        SwitchConfig::basic(4 * 1500),
    );
    let t = tcp(topo.base_rtt);
    install_dctcp(&mut topo, &t);
    topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 1_000_000, SimTime::ZERO, 1);
    topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 1_000_000, SimTime::ZERO, 1);
    let report =
        topo.sim.run(RunLimits { max_time: SimTime(300_000_000_000), max_events: 2_000_000_000 });
    assert_eq!(report.flows_completed, 2);
    assert!(topo.sim.total_counters().dropped > 0);
}

/// Failure injection: PPT under the same starved buffer.
#[test]
fn ppt_survives_a_four_packet_buffer() {
    let rate = Rate::gbps(10);
    let mut topo = star::<Proto>(
        3,
        rate,
        SimDuration::from_micros(20),
        SwitchConfig::ppt(4 * 1500, 3_000, 1_500),
    );
    let cfg = PptConfig::new(rate, topo.base_rtt);
    let t = tcp(topo.base_rtt);
    install_ppt(&mut topo, &t, &cfg);
    topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 1_000_000, SimTime::ZERO, 1_000_000);
    topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 1_000_000, SimTime::ZERO, 1_000_000);
    let report =
        topo.sim.run(RunLimits { max_time: SimTime(300_000_000_000), max_events: 2_000_000_000 });
    assert_eq!(report.flows_completed, 2);
}

/// One-byte flows: the degenerate minimum for every scheme.
#[test]
fn one_byte_flows_work_everywhere() {
    // TCP family.
    let rate = Rate::gbps(10);
    let mut topo = star::<Proto>(
        2,
        rate,
        SimDuration::from_micros(20),
        SwitchConfig::ppt(200_000, 60_000, 40_000),
    );
    let cfg = PptConfig::new(rate, topo.base_rtt);
    let t = tcp(topo.base_rtt);
    install_ppt(&mut topo, &t, &cfg);
    let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1, SimTime::ZERO, 1);
    run_done(&mut topo);
    assert!(topo.sim.completion(f).is_some());

    // Homa.
    let mut topo =
        star::<Proto>(2, rate, SimDuration::from_micros(20), SwitchConfig::basic(200_000));
    install_homa(&mut topo, &HomaCfg::new(50_000));
    let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1, SimTime::ZERO, 1);
    run_done(&mut topo);
    assert!(topo.sim.completion(f).is_some());

    // NDP.
    let mut topo =
        star::<Proto>(2, rate, SimDuration::from_micros(20), SwitchConfig::ndp(200_000, 12_000));
    install_ndp(&mut topo, SimDuration::from_millis(1));
    let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1, SimTime::ZERO, 1);
    run_done(&mut topo);
    assert!(topo.sim.completion(f).is_some());
}

/// A 50MB elephant through PPT (exercises deep interval sets, repeated
/// α rounds, many LCP loop generations).
#[test]
fn fifty_megabyte_elephant_completes() {
    let rate = Rate::gbps(10);
    let mut topo = star::<Proto>(
        2,
        rate,
        SimDuration::from_micros(20),
        SwitchConfig::ppt(200_000, 60_000, 40_000),
    );
    let cfg = PptConfig::new(rate, topo.base_rtt);
    let t = tcp(topo.base_rtt);
    install_ppt(&mut topo, &t, &cfg);
    let size = 50 << 20;
    let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
    let report =
        topo.sim.run(RunLimits { max_time: SimTime(300_000_000_000), max_events: 2_000_000_000 });
    assert_eq!(report.flows_completed, 1);
    let fct = topo.sim.completion(f).expect("elephant completed");
    let ideal = Rate::gbps(10).serialization_time(size).as_nanos();
    assert!(
        fct.as_nanos() < 2 * ideal,
        "elephant too slow: {}ms vs ideal {}ms",
        fct.as_millis_f64(),
        ideal / 1_000_000
    );
}
