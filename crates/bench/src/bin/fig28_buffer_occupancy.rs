//! Fig 28 (appendix F): switch buffer occupancy split between the high-
//! and low-priority groups under different ECN thresholds — PPT's LCP
//! keeps a small, stable low-priority footprint, RC3's does not.

use ppt::harness::{run_experiment, star_bottleneck, Experiment, Scheme, TopoKind};
use ppt::netsim::SimDuration;
use ppt::stats::occupancy_split;
use ppt::workloads::{incast, SizeDistribution, WorkloadSpec};

fn main() {
    bench::banner(
        "Fig 28",
        "Buffer occupancy by priority group vs ECN threshold",
        "2->1 at 40G, 120KB port buffer, Web Search, same K for both groups; 200us samples, whole run",
    );
    let topo = TopoKind::Star { n: 3, rate_gbps: 40, delay_us: 4 };
    let spec = WorkloadSpec::new(
        SizeDistribution::web_search(),
        0.8,
        topo.edge_rate(),
        bench::n_flows(400),
        bench::seed(),
    );
    let flows = incast(2, &spec);
    let telemetry = bench::whole_run_telemetry(SimDuration::from_micros(200));
    println!(
        "{:<10} {:<10} {:>12} {:>12} {:>12} {:>10}",
        "K(%buf)", "scheme", "high avg(B)", "low avg(B)", "total avg(B)", "low share"
    );
    for frac in [0.6, 0.8] {
        let k = (120_000.0 * frac) as u64;
        for scheme in [Scheme::Dctcp, Scheme::Rc3, Scheme::Ppt] {
            let name = scheme.name();
            let mut exp = Experiment::new(topo, scheme, flows.clone()).with_telemetry(telemetry);
            exp.env.port_buffer = 120_000;
            exp.env.k_high = k;
            exp.env.k_low = k;
            let sim = run_experiment(&exp).sim;
            let (sw, port) = star_bottleneck(&sim, 2).unwrap();
            let t = sim.telemetry().unwrap();
            let (total, low) = (t.port_queue_bytes(sw, port), t.port_queue_lp_bytes(sw, port));
            assert_eq!(total.evicted(), 0, "the ring must hold the whole run");
            let split = occupancy_split(total, low);
            let share = if split.total_avg_bytes > 0.0 {
                split.low_avg_bytes / split.total_avg_bytes
            } else {
                0.0
            };
            println!(
                "{:<10.0} {:<10} {:>12.0} {:>12.0} {:>12.0} {:>9.1}%",
                frac * 100.0,
                name,
                split.high_avg_bytes,
                split.low_avg_bytes,
                split.total_avg_bytes,
                share * 100.0
            );
        }
        println!();
    }
    println!("paper: PPT's low-priority queue holds 2.6-3.1% of occupancy; RC3's 17.4-30.2%");
}
