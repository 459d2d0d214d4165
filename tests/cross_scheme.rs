//! Cross-crate integration: every scheme survives the same mixed workload
//! end to end — no stalls, no lost flows, sane counters.

use ppt::harness::{run_experiment, Experiment, Scheme, TopoKind};
use ppt::workloads::{all_to_all, incast, SizeDistribution, WorkloadSpec};

fn small_workload(topo: TopoKind, n_flows: usize, seed: u64) -> Vec<ppt::workloads::FlowSpec> {
    let spec =
        WorkloadSpec::new(SizeDistribution::web_search(), 0.4, topo.edge_rate(), n_flows, seed);
    all_to_all(topo.hosts(), &spec)
}

#[test]
fn every_scheme_completes_an_all_to_all_workload() {
    let topo = TopoKind::Star { n: 6, rate_gbps: 10, delay_us: 20 };
    let flows = small_workload(topo, 60, 3);
    for scheme in Scheme::all() {
        let name = scheme.name();
        let outcome = run_experiment(&Experiment::new(topo, scheme, flows.clone()));
        assert!(
            outcome.completion_ratio > 0.999,
            "{name}: only {:.1}% of flows completed",
            outcome.completion_ratio * 100.0
        );
        assert!(outcome.fct.overall_avg_us() > 0.0, "{name}: empty FCTs");
    }
}

#[test]
fn every_scheme_survives_poisson_incast() {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 40, 11);
    let flows = incast(7, &spec);
    for scheme in Scheme::all() {
        let name = scheme.name();
        let outcome = run_experiment(&Experiment::new(topo, scheme, flows.clone()));
        assert!(
            outcome.completion_ratio > 0.999,
            "{name}: incast stalled at {:.1}%",
            outcome.completion_ratio * 100.0
        );
    }
}

#[test]
fn schemes_work_on_the_leaf_spine_fabric() {
    // A trimmed-down leaf-spine sanity pass (the full 144-host fabric is
    // exercised by `pptlab figure` in release mode).
    let topo = TopoKind::Oversubscribed;
    let spec = WorkloadSpec::new(SizeDistribution::memcached_w1(), 0.3, topo.edge_rate(), 150, 17);
    let flows = all_to_all(topo.hosts(), &spec);
    for scheme in [Scheme::Dctcp, Scheme::Ppt, Scheme::Homa] {
        let name = scheme.name();
        let outcome = run_experiment(&Experiment::new(topo, scheme, flows.clone()));
        assert!(
            outcome.completion_ratio > 0.999,
            "{name} on leaf-spine: {:.1}%",
            outcome.completion_ratio * 100.0
        );
    }
}

#[test]
fn memcached_workload_runs_on_proactive_schemes() {
    let topo = TopoKind::Star { n: 6, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::memcached_w1(), 0.5, topo.edge_rate(), 200, 29);
    let flows = all_to_all(topo.hosts(), &spec);
    for scheme in [Scheme::Homa, Scheme::Aeolus, Scheme::Ndp, Scheme::Ppt] {
        let name = scheme.name();
        let outcome = run_experiment(&Experiment::new(topo, scheme, flows.clone()));
        assert!(outcome.completion_ratio > 0.999, "{name}: memcached stalled");
        // All flows are <=100KB: there must be no "large" bin.
        assert!(
            outcome.fct.large_avg_us().is_nan(),
            "{name}: large flows in a small-only workload"
        );
    }
}

#[test]
fn ppt_works_on_a_fat_tree() {
    // k=4 fat-tree, 16 hosts, PPT vs DCTCP across pods.
    let topo = TopoKind::FatTree { k: 4, edge_gbps: 10 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.4, topo.edge_rate(), 80, 61);
    let flows = all_to_all(topo.hosts(), &spec);
    for scheme in [Scheme::Ppt, Scheme::Dctcp] {
        let name = scheme.name();
        let outcome = run_experiment(&Experiment::new(topo, scheme, flows.clone()));
        assert!(
            outcome.completion_ratio > 0.999,
            "{name} on fat-tree: {:.1}%",
            outcome.completion_ratio * 100.0
        );
    }
}
