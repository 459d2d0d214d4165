//! Fig 19: kernel datapath processing overhead, PPT vs DCTCP.
//!
//! Substitution (see DESIGN.md §6): the paper measures kernel-space CPU%
//! on the testbed. Here we measure wall-clock nanoseconds spent inside
//! each transport's event handlers per simulated host, normalized per
//! handled event — the same claim ("PPT's extra logic costs <1% over
//! DCTCP") expressed in the simulator's terms.

use ppt::harness::{run_experiment_with, Experiment, Scheme, TopoKind};
use ppt::netsim::HostId;
use ppt::workloads::SizeDistribution;

fn main() {
    bench::banner(
        "Fig 19",
        "[Testbed] transport processing overhead, PPT vs DCTCP",
        "15-host testbed, Web Search; wall-clock ns per transport event (CPU substitute)",
    );
    let topo = TopoKind::PaperTestbed;
    println!(
        "{:<8} {:<8} {:>16} {:>16} {:>12}",
        "load", "scheme", "cpu-ns total", "events", "ns/event"
    );
    for &load in &[0.3, 0.5, 0.7] {
        let flows = bench::workload_all_to_all(
            topo,
            SizeDistribution::web_search(),
            load,
            bench::n_flows(400),
        );
        let mut per_scheme = Vec::new();
        for scheme in [Scheme::Dctcp, Scheme::Ppt] {
            let name = scheme.name();
            let exp = Experiment::new(topo, scheme, flows.clone());
            let sim = run_experiment_with(&exp, |t| t.sim.measure_cpu = true).sim;
            let (ns, calls): (u64, u64) = (0..sim.host_count())
                .map(|h| sim.cpu_account(HostId(h as u32)))
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
            println!(
                "{:<8} {:<8} {:>16} {:>16} {:>12.1}",
                load,
                name,
                ns,
                calls,
                ns as f64 / calls as f64
            );
            per_scheme.push(ns as f64 / calls as f64);
        }
        println!(
            "         -> PPT / DCTCP per-event cost ratio: {:.3} (paper: <1% CPU gap)",
            per_scheme[1] / per_scheme[0]
        );
    }
}
