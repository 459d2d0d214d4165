//! Directional paper claims, verified end to end at small scale. Absolute
//! numbers differ from the paper's testbed; the *orderings* are the
//! claims under test here. Every claim is a row of one table, judged by
//! the same `verdict` as the figures' claim lines.

use ppt::core::PptKnobs;
use ppt::figures::{change, verdict, Band, Column, Metric, Verdict};
use ppt::harness::{
    run_experiment, run_experiment_traced, star_bottleneck, Experiment, Outcome, Scheme,
    TelemetrySpec, TopoKind,
};
use ppt::netsim::SimDuration;
use ppt::stats::{analyze_lcp, mean_utilization, utilization_series};
use ppt::workloads::{all_to_all, incast, SizeDistribution, WorkloadSpec};

/// What a claim reads from each of its two runs.
#[derive(Clone, Copy, Debug)]
enum Measure {
    /// One FCT column, µs.
    Fct(Column),
    /// Mean utilisation of the link out of the switch port that faces host
    /// 2, sampled every 100 µs.
    Utilization,
    /// Packets the switches dropped.
    Drops,
}

/// One side of a comparison: a scheme in the topology's environment, or
/// with every buffer-denominated knob of it scaled by `buffers`.
struct Side {
    scheme: Scheme,
    buffers: Option<f64>,
}

const fn side(scheme: Scheme) -> Side {
    Side { scheme, buffers: None }
}

/// One claim: on a Web Search workload at `load` over a 10 G star of
/// `hosts` — all-to-all, or `incast` senders into the next host — the
/// percent change of `measure` on the `row` run against the `base` run
/// must fall in `band`.
struct Claim {
    name: &'static str,
    hosts: usize,
    load: f64,
    flows: usize,
    seed: u64,
    incast: Option<usize>,
    row: Side,
    base: Side,
    measure: Measure,
    band: Band,
}

/// Strictly below the base: `row < base`, as a change.
const BELOW: Band = Band { lo: f64::NEG_INFINITY, hi: 0.0, open: true };

const CLAIMS: &[Claim] = &[
    // §1/§6: PPT reduces the overall average FCT vs DCTCP.
    Claim {
        name: "ppt_beats_dctcp_overall",
        hosts: 8,
        load: 0.5,
        flows: 150,
        seed: 21,
        incast: None,
        row: side(Scheme::Ppt),
        base: side(Scheme::Dctcp),
        measure: Measure::Fct(Column::Overall),
        band: BELOW,
    },
    // §6.1: PPT's small flows beat DCTCP's by a wide margin (priorities).
    Claim {
        name: "ppt_small_flows_beat_dctcp_small_flows",
        hosts: 8,
        load: 0.6,
        flows: 200,
        seed: 33,
        incast: None,
        row: side(Scheme::Ppt),
        base: side(Scheme::Dctcp),
        measure: Measure::Fct(Column::SmallAvg),
        band: BELOW,
    },
    // §6 headline: PPT must not starve large flows (its large-flow FCT
    // stays under 1.3× DCTCP's).
    Claim {
        name: "ppt_does_not_starve_large_flows",
        hosts: 8,
        load: 0.5,
        flows: 150,
        seed: 17,
        incast: None,
        row: side(Scheme::Ppt),
        base: side(Scheme::Dctcp),
        measure: Measure::Fct(Column::LargeAvg),
        band: Band { lo: f64::NEG_INFINITY, hi: 30.0, open: true },
    },
    // Fig 3's left edge: under-filling (50% × MW) must not beat full
    // filling by more than 5 %.
    Claim {
        name: "underfilling_loses_to_full_filling",
        hosts: 6,
        load: 0.5,
        flows: 120,
        seed: 77,
        incast: None,
        row: side(Scheme::Lcp(PptKnobs { fill: 1.0, ..PptKnobs::PAPER })),
        base: side(Scheme::Lcp(PptKnobs { fill: 0.5, ..PptKnobs::PAPER })),
        measure: Measure::Fct(Column::Overall),
        band: Band { lo: f64::NEG_INFINITY, hi: 5.0, open: false },
    },
    // §2.3/Fig 20: PPT's bottleneck utilization beats DCTCP's under load:
    // two senders into one receiver, DCTCP's strictly below PPT's.
    Claim {
        name: "ppt_utilization_exceeds_dctcp",
        hosts: 3,
        load: 0.5,
        flows: 60,
        seed: 13,
        incast: Some(2),
        row: side(Scheme::Dctcp),
        base: side(Scheme::Ppt),
        measure: Measure::Utilization,
        band: BELOW,
    },
    // §6: RC3's aggressive low loops drop heavily under incast while PPT's
    // ECN-guarded loop does not: PPT's drops strictly below RC3's.
    Claim {
        name: "rc3_drops_more_low_priority_than_ppt_under_incast",
        hosts: 8,
        load: 0.6,
        flows: 80,
        seed: 91,
        incast: Some(7),
        row: side(Scheme::Ppt),
        base: side(Scheme::Rc3),
        measure: Measure::Drops,
        band: BELOW,
    },
    // The tiny-buffer regime: with every buffer-denominated knob 10×
    // smaller (1 MB → 100 KB port buffers, K scaled alongside) the shallow
    // fabric costs something, but PPT's overall FCT stays under 2× the
    // deep-buffer run's instead of collapsing.
    Claim {
        name: "ppt_lcp_survives_the_tiny_buffer_regime",
        hosts: 8,
        load: 0.5,
        flows: 150,
        seed: 55,
        incast: None,
        row: Side { scheme: Scheme::Ppt, buffers: Some(0.1) },
        base: side(Scheme::Ppt),
        measure: Measure::Fct(Column::Overall),
        band: Band { lo: f64::NEG_INFINITY, hi: 100.0, open: true },
    },
];

impl Claim {
    fn topo(&self) -> TopoKind {
        TopoKind::Star { n: self.hosts, rate_gbps: 10, delay_us: 20 }
    }

    /// The experiment of one side.
    fn experiment(&self, side: &Side) -> Experiment {
        let topo = self.topo();
        let dist = SizeDistribution::web_search();
        let spec = WorkloadSpec::new(dist, self.load, topo.edge_rate(), self.flows, self.seed);
        let flows = match self.incast {
            Some(senders) => incast(senders, &spec),
            None => all_to_all(topo.hosts(), &spec),
        };
        let mut exp = Experiment::new(topo, side.scheme.clone(), flows);
        if let Some(factor) = side.buffers {
            exp.env = exp.env.clone().scale_buffers(factor);
        }
        if let Measure::Utilization = self.measure {
            exp = exp.with_telemetry(TelemetrySpec::new(SimDuration::from_micros(100)));
        }
        exp
    }

    fn read(&self, outcome: &Outcome) -> f64 {
        match self.measure {
            Measure::Fct(column) => column.of(&outcome.fct.summary()),
            Measure::Utilization => {
                let sim = &outcome.sim;
                let (sw, port) = star_bottleneck(sim, 2).expect("a port faces host 2");
                let link = sim.switch_port_link(sw, port);
                let telemetry = sim.telemetry().expect("telemetry is on");
                mean_utilization(&utilization_series(telemetry.link_util(link)))
            }
            Measure::Drops => outcome.counters.dropped as f64,
        }
    }
}

/// Run the row of [`CLAIMS`] named `name`, require its verdict to hold, and
/// return the row's and the base's outcomes.
fn check(name: &str) -> [Outcome; 2] {
    let c = CLAIMS.iter().find(|c| c.name == name).expect("a row of CLAIMS");
    let [row, base] = [&c.row, &c.base].map(|side| run_experiment(&c.experiment(side)));
    let (r, b) = (c.read(&row), c.read(&base));
    let pct = change(r, b);
    assert_eq!(
        verdict(pct, c.band),
        Verdict::Holds,
        "{name}: {:?} {} {r:.3} vs {} {b:.3} = {pct:+.2}%, band {:?}",
        c.measure,
        c.row.scheme.name(),
        c.base.scheme.name(),
        c.band
    );
    [row, base]
}

#[test]
fn ppt_beats_dctcp_overall() {
    check("ppt_beats_dctcp_overall");
}

#[test]
fn ppt_small_flows_beat_dctcp_small_flows() {
    check("ppt_small_flows_beat_dctcp_small_flows");
}

#[test]
fn ppt_does_not_starve_large_flows() {
    check("ppt_does_not_starve_large_flows");
}

#[test]
fn underfilling_loses_to_full_filling() {
    check("underfilling_loses_to_full_filling");
}

#[test]
fn ppt_utilization_exceeds_dctcp() {
    check("ppt_utilization_exceeds_dctcp");
}

#[test]
fn rc3_drops_more_low_priority_than_ppt_under_incast() {
    check("rc3_drops_more_low_priority_than_ppt_under_incast");
}

/// Beside its FCT bound, the tiny-buffer row's claim is that LCP still
/// finds spare capacity: low-priority traffic still completes (the
/// ECN-guarded loop backs off instead of drowning).
#[test]
fn ppt_lcp_survives_the_tiny_buffer_regime() {
    let name = "ppt_lcp_survives_the_tiny_buffer_regime";
    let [tiny, deep] = check(name);
    assert_eq!(deep.completion_ratio, 1.0, "deep-buffer baseline must be clean");

    // LCP still completes its low-priority traffic: every flow finishes,
    // and the low loop actually ran (opened and closed by flow completion,
    // not starved out by the shallow queues).
    assert_eq!(tiny.completion_ratio, 1.0, "flows lost in the tiny-buffer regime");
    let c = CLAIMS.iter().find(|c| c.name == name).expect("a row of CLAIMS");
    let tiny_exp = c.experiment(&c.row);
    assert_eq!(tiny_exp.env.port_buffer, 100_000);
    let (_, trace) = run_experiment_traced(&tiny_exp);
    let lcp = analyze_lcp(&trace.events, c.topo().base_rtt());
    assert!(!lcp.loops.is_empty(), "LCP never opened at 10x smaller buffers");
    assert!(
        lcp.closed_flow_done > 0,
        "no LCP loop survived to completion: {} expired, {} no-lp-acks",
        lcp.closed_expired,
        lcp.closed_no_lp_acks
    );
}
