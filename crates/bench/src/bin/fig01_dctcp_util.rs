//! Fig 1: DCTCP's bottleneck link utilization fluctuates well below the
//! offered load.
//!
//! 2 senders -> 1 receiver at 40G, ECN K = 120KB, Web Search at 0.5 load;
//! utilization sampled every 100us in steady state.

use ppt::harness::{run_experiment, star_bottleneck, Experiment, Scheme, TopoKind};
use ppt::netsim::SimDuration;
use ppt::stats::{mean_utilization, utilization_series};
use ppt::workloads::{incast, SizeDistribution, WorkloadSpec};

fn main() {
    bench::banner(
        "Fig 1",
        "Link utilization of DCTCP under Web Search at 0.5 load",
        "2->1 at 40G, K=120KB, 100us samples over the whole run (ideal utilization: 50%)",
    );
    let topo = TopoKind::Star { n: 3, rate_gbps: 40, delay_us: 10 };
    let spec = WorkloadSpec::new(
        SizeDistribution::web_search(),
        0.5,
        topo.edge_rate(),
        bench::n_flows(600),
        bench::seed(),
    );
    let flows = incast(2, &spec);
    let telemetry = bench::whole_run_telemetry(SimDuration::from_micros(100));
    let mut exp = Experiment::new(topo, Scheme::Dctcp, flows).with_telemetry(telemetry);
    exp.env.k_high = 120_000;
    exp.env.port_buffer = 1_000_000;

    // One point with a custom series extraction, run via the sweep
    // layer's generic primitive (the simulator stays on the worker; only
    // the utilization series comes back).
    let mut results = ppt::sweep::run_points(1, bench::jobs(), |_| {
        let sim = run_experiment(&exp).sim;
        let (sw, port) = star_bottleneck(&sim, 2).unwrap();
        let util = sim.telemetry().unwrap().link_util(sim.switch_port_link(sw, port));
        assert_eq!(util.evicted(), 0, "the ring must hold the whole run");
        utilization_series(util)
    });
    let series = results.pop().unwrap();
    // Busy-period statistics (past a 2 ms warm-up): with Poisson arrivals at load 0.5 the link
    // is legitimately idle between flows; the paper's point is that
    // *while flows are transmitting* DCTCP's window cuts drag the link
    // down toward half of what it could carry. We therefore report the
    // utilization distribution over busy samples.
    let busy: Vec<f64> = series
        .iter()
        .filter(|p| p.at_ns >= 2_000_000 && p.utilization > 0.05)
        .map(|p| p.utilization)
        .collect();
    println!("busy samples: {}", busy.len());
    let mut sorted = busy.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
    println!(
        "busy-period utilization p10/p25/p50/p90: {:.3}/{:.3}/{:.3}/{:.3}",
        pct(0.1),
        pct(0.25),
        pct(0.5),
        pct(0.9)
    );
    println!("busy-period mean: {:.3}", busy.iter().sum::<f64>() / busy.len() as f64);
    let mean = mean_utilization(&series);
    println!("overall mean utilization: {mean:.3} (offered load 0.5)");
    println!("\npaper: DCTCP fluctuates between ~0.25 and ~0.5 while busy");
}
