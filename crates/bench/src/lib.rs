#![forbid(unsafe_code)]
//! Shared support for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary prints the same series/rows its figure plots. Scale knobs
//! are environment variables so CI can run cheap versions:
//!
//! * `PPT_FLOWS` — flows per experiment point (default varies per figure)
//! * `PPT_SEED`  — workload seed (default 42)
//! * `PPT_JOBS`  — sweep worker threads (default 1; output is identical
//!   for any value, only wall-clock changes)

use ppt::harness::{run_experiment, Experiment, Scheme, TelemetrySpec, TopoKind};
use ppt::netsim::SimDuration;
use ppt::stats::FctSummary;
use ppt::sweep::{PointResult, SweepSpec};
use ppt::workloads::{all_to_all, incast, FlowSpec, SizeDistribution, WorkloadSpec};

/// Flows per experiment point (env-overridable).
pub fn n_flows(default: usize) -> usize {
    std::env::var("PPT_FLOWS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Workload seed (env-overridable).
pub fn seed() -> u64 {
    std::env::var("PPT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

/// Sweep worker threads (env-overridable).
pub fn jobs() -> usize {
    std::env::var("PPT_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// Print the standard experiment banner.
pub fn banner(id: &str, what: &str, setup: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("setup: {setup}");
    println!("================================================================");
}

/// Print the standard FCT table header.
pub fn fct_header() {
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "scheme", "overall(us)", "small avg", "small p99", "large avg", "done%"
    );
}

/// Print one FCT row.
pub fn fct_row(name: &str, s: &FctSummary, completion: f64) {
    println!(
        "{:<24} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8.1}",
        name,
        s.overall_avg_us,
        s.small_avg_us,
        s.small_p99_us,
        s.large_avg_us,
        completion * 100.0
    );
}

/// Build an all-to-all workload for a topology.
pub fn workload_all_to_all(
    topo: TopoKind,
    dist: SizeDistribution,
    load: f64,
    flows: usize,
) -> Vec<FlowSpec> {
    let spec = WorkloadSpec::new(dist, load, topo.edge_rate(), flows, seed());
    all_to_all(topo.hosts(), &spec)
}

/// Build an N-to-1 incast workload (senders 0..n, sink n).
pub fn workload_incast(
    topo: TopoKind,
    dist: SizeDistribution,
    load: f64,
    flows: usize,
    senders: usize,
) -> Vec<FlowSpec> {
    let spec = WorkloadSpec::new(dist, load, topo.edge_rate(), flows, seed());
    incast(senders, &spec)
}

/// Run one scheme over a workload and print its FCT row.
pub fn run_and_print(topo: TopoKind, scheme: Scheme, flows: &[FlowSpec]) -> FctSummary {
    let name = scheme.name();
    let outcome = run_experiment(&Experiment::new(topo, scheme, flows.to_vec()));
    let s = outcome.fct.summary();
    fct_row(&name, &s, outcome.completion_ratio);
    s
}

/// Run a scheme set over one workload through the shared sweep runner
/// ([`ppt::sweep`], `PPT_JOBS` workers) and print the FCT rows — always
/// in scheme order, whatever the completion order was.
pub fn sweep_and_print(topo: TopoKind, schemes: &[Scheme], flows: &[FlowSpec]) -> Vec<PointResult> {
    let mut spec = SweepSpec::new().jobs(jobs());
    for scheme in schemes {
        spec = spec.point(scheme.name(), Experiment::new(topo, scheme.clone(), flows.to_vec()));
    }
    let results = spec.run();
    for r in &results {
        fct_row(&r.label, &r.fct.summary(), r.completion_ratio);
    }
    results
}

/// Telemetry at `interval` with an 8192-point ring — room for every tick
/// of the sub-second microbenchmark runs (Figs 1, 20, 28), which assert
/// `evicted() == 0` so their statistics cover each run whole.
pub fn whole_run_telemetry(interval: SimDuration) -> TelemetrySpec {
    TelemetrySpec { series_capacity: 1 << 13, ..TelemetrySpec::new(interval) }
}

/// The standard six-scheme comparison of the large-scale figures.
pub fn large_scale_schemes() -> Vec<Scheme> {
    vec![Scheme::Ndp, Scheme::Aeolus, Scheme::Homa, Scheme::Rc3, Scheme::Dctcp, Scheme::Ppt]
}

/// The testbed comparison set (§6.1).
pub fn testbed_schemes() -> Vec<Scheme> {
    vec![Scheme::Homa, Scheme::Rc3, Scheme::Dctcp, Scheme::Ppt]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_have_defaults() {
        assert!(n_flows(123) >= 1);
        let _ = seed();
    }

    #[test]
    fn workload_builders_produce_flows() {
        let topo = TopoKind::Star { n: 4, rate_gbps: 10, delay_us: 20 };
        let w = workload_all_to_all(topo, SizeDistribution::web_search(), 0.5, 10);
        assert_eq!(w.len(), 10);
        let i = workload_incast(topo, SizeDistribution::web_search(), 0.5, 10, 3);
        assert!(i.iter().all(|f| f.dst == 3));
    }
}
