//! Fig 20: link utilization — PPT matches the hypothetical DCTCP and
//! beats plain DCTCP (which dips to ~25%).

use ppt::harness::{run_experiment, star_bottleneck, Experiment, Scheme, TopoKind};
use ppt::netsim::SimDuration;
use ppt::stats::{mean_utilization, utilization_series};
use ppt::workloads::{incast, SizeDistribution, WorkloadSpec};

fn main() {
    bench::banner(
        "Fig 20",
        "Link utilization: DCTCP vs hypothetical vs PPT",
        "2->1 at 40G, Web Search, load 0.5 (ideal 50%); 100us samples over the whole run",
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
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "mean util", "busy mean", "busy p10", "busy p25"
    );
    for scheme in [Scheme::Dctcp, Scheme::Hypothetical(1.0), Scheme::Ppt] {
        let name = scheme.name();
        let mut exp = Experiment::new(topo, scheme, flows.clone()).with_telemetry(telemetry);
        exp.env.k_high = 120_000;
        exp.env.k_low = 100_000;
        exp.env.port_buffer = 1_000_000;
        let sim = run_experiment(&exp).sim;
        let (sw, port) = star_bottleneck(&sim, 2).unwrap();
        let util = sim.telemetry().unwrap().link_util(sim.switch_port_link(sw, port));
        assert_eq!(util.evicted(), 0, "the ring must hold the whole run");
        let series = utilization_series(util);
        // Busy-period statistics (see fig01 for why: Poisson idle gaps
        // are not the scheme's fault).
        let busy: Vec<f64> = series
            .iter()
            .filter(|p| p.at_ns >= 2_000_000 && p.utilization > 0.05)
            .map(|p| p.utilization)
            .collect();
        let mut sorted = busy.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p10, p25) = (sorted[sorted.len() / 10], sorted[sorted.len() / 4]);
        let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            mean_utilization(&series),
            busy_mean,
            p10,
            p25
        );
    }
    println!("\npaper: PPT ≈ hypothetical ≈ 0.5; DCTCP dips to 0.25 (1.8x lower)");
}
