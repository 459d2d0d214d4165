//! Directional paper claims, verified end to end at small scale. Absolute
//! numbers differ from the paper's testbed; the *orderings* are the
//! claims under test here.

use ppt::harness::{run_experiment, star_bottleneck, Experiment, Scheme, TelemetrySpec, TopoKind};
use ppt::netsim::SimDuration;
use ppt::stats::{mean_utilization, utilization_series};
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

fn websearch(topo: TopoKind, load: f64, n: usize, seed: u64) -> Vec<ppt::workloads::FlowSpec> {
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), load, topo.edge_rate(), n, seed);
    all_to_all(topo.hosts(), &spec)
}

/// §1/§6: PPT reduces the overall average FCT vs DCTCP.
#[test]
fn ppt_beats_dctcp_overall() {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let flows = websearch(topo, 0.5, 150, 21);
    let dctcp = run_experiment(&Experiment::new(topo, Scheme::Dctcp, flows.clone()));
    let ppt = run_experiment(&Experiment::new(topo, Scheme::Ppt, flows));
    assert!(
        ppt.fct.overall_avg_us() < dctcp.fct.overall_avg_us(),
        "ppt={:.1}us dctcp={:.1}us",
        ppt.fct.overall_avg_us(),
        dctcp.fct.overall_avg_us()
    );
}

/// §6.1: PPT's small flows beat DCTCP's by a wide margin (priorities).
#[test]
fn ppt_small_flows_beat_dctcp_small_flows() {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let flows = websearch(topo, 0.6, 200, 33);
    let dctcp = run_experiment(&Experiment::new(topo, Scheme::Dctcp, flows.clone()));
    let ppt = run_experiment(&Experiment::new(topo, Scheme::Ppt, flows));
    assert!(
        ppt.fct.small_avg_us() < dctcp.fct.small_avg_us(),
        "ppt={:.1}us dctcp={:.1}us",
        ppt.fct.small_avg_us(),
        dctcp.fct.small_avg_us()
    );
}

/// §2.3/Fig 20: PPT's bottleneck utilization beats DCTCP's under load.
#[test]
fn ppt_utilization_exceeds_dctcp() {
    let topo = TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 20 };
    // Two senders into one receiver, continuous backlogged-ish traffic.
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, 13);
    let flows = ppt::workloads::incast(2, &spec);

    let mut utils = Vec::new();
    for scheme in [Scheme::Dctcp, Scheme::Ppt] {
        let exp = Experiment::new(topo, scheme, flows.clone())
            .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(100)));
        let sim = run_experiment(&exp).sim;
        let (sw, port) = star_bottleneck(&sim, 2).unwrap();
        let link = sim.switch_port_link(sw, port);
        let series = utilization_series(sim.telemetry().unwrap().link_util(link));
        utils.push(mean_utilization(&series));
    }
    assert!(utils[1] > utils[0], "PPT util {:.3} must exceed DCTCP util {:.3}", utils[1], utils[0]);
}

/// §6 headline: PPT must not starve large flows (its large-flow FCT stays
/// in DCTCP's ballpark or better).
#[test]
fn ppt_does_not_starve_large_flows() {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let flows = websearch(topo, 0.5, 150, 17);
    let dctcp = run_experiment(&Experiment::new(topo, Scheme::Dctcp, flows.clone()));
    let ppt = run_experiment(&Experiment::new(topo, Scheme::Ppt, flows));
    assert!(
        ppt.fct.large_avg_us() < dctcp.fct.large_avg_us() * 1.3,
        "ppt large={:.1}us dctcp large={:.1}us",
        ppt.fct.large_avg_us(),
        dctcp.fct.large_avg_us()
    );
}

/// Fig 3's left edge: under-filling (50% × MW) must not beat full filling.
#[test]
fn underfilling_loses_to_full_filling() {
    let topo = TopoKind::Star { n: 6, rate_gbps: 10, delay_us: 20 };
    let flows = websearch(topo, 0.5, 120, 77);
    let full = run_experiment(&Experiment::new(topo, Scheme::PptFill(1.0), flows.clone()));
    let under = run_experiment(&Experiment::new(topo, Scheme::PptFill(0.5), flows));
    assert!(
        full.fct.overall_avg_us() <= under.fct.overall_avg_us() * 1.05,
        "full={:.1}us under={:.1}us",
        full.fct.overall_avg_us(),
        under.fct.overall_avg_us()
    );
}

/// ROADMAP tiny-buffer question: with every buffer-denominated knob 10×
/// smaller (1 MB → 100 KB port buffers, K scaled alongside), does PPT's
/// LCP still find spare capacity? Claim under test: low-priority traffic
/// still completes (the ECN-guarded loop backs off instead of drowning),
/// and goodput degrades gracefully — the shallow fabric's FCTs stay within
/// a small factor of the deep-buffer baseline rather than collapsing.
#[test]
fn ppt_lcp_survives_the_tiny_buffer_regime() {
    use ppt::harness::run_experiment_traced;
    use ppt::stats::analyze_lcp;

    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let flows = websearch(topo, 0.5, 150, 55);

    let deep = run_experiment(&Experiment::new(topo, Scheme::Ppt, flows.clone()));
    assert_eq!(deep.completion_ratio, 1.0, "deep-buffer baseline must be clean");

    let mut tiny_exp = Experiment::new(topo, Scheme::Ppt, flows);
    tiny_exp.env = tiny_exp.env.clone().scale_buffers(0.1);
    assert_eq!(tiny_exp.env.port_buffer, 100_000);
    let (tiny, trace) = run_experiment_traced(&tiny_exp);

    // LCP still completes its low-priority traffic: every flow finishes,
    // and the low loop actually ran (opened and closed by flow completion,
    // not starved out by the shallow queues).
    assert_eq!(tiny.completion_ratio, 1.0, "flows lost in the tiny-buffer regime");
    let lcp = analyze_lcp(&trace.events, topo.base_rtt());
    assert!(!lcp.loops.is_empty(), "LCP never opened at 10x smaller buffers");
    assert!(
        lcp.closed_flow_done > 0,
        "no LCP loop survived to completion: {} expired, {} no-lp-acks",
        lcp.closed_expired,
        lcp.closed_no_lp_acks
    );

    // Graceful degradation: the shallow fabric costs something (more
    // marks/drops are expected) but overall FCT stays within 2x of the
    // deep-buffer run instead of collapsing.
    assert!(
        tiny.fct.overall_avg_us() < deep.fct.overall_avg_us() * 2.0,
        "tiny-buffer FCT collapsed: tiny={:.1}us deep={:.1}us",
        tiny.fct.overall_avg_us(),
        deep.fct.overall_avg_us()
    );
}

/// §6: RC3's aggressive low loops drop heavily under incast while PPT's
/// ECN-guarded loop does not.
#[test]
fn rc3_drops_more_low_priority_than_ppt_under_incast() {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.6, topo.edge_rate(), 80, 91);
    let flows = ppt::workloads::incast(7, &spec);
    let rc3 = run_experiment(&Experiment::new(topo, Scheme::Rc3, flows.clone()));
    let ppt = run_experiment(&Experiment::new(topo, Scheme::Ppt, flows));
    assert!(
        rc3.counters.dropped > ppt.counters.dropped,
        "rc3 drops={} ppt drops={}",
        rc3.counters.dropped,
        ppt.counters.dropped
    );
}
