//! The names this benchmark fixes: end-to-end metrics with their bounds,
//! per-layer metrics, and the shared statistics helpers.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! (`names_match_benchmark_json`) keeps the two from drifting, and
//! `pptbench benchmark-json` prints the file from these tables.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A host-side metric a user of the simulator would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// The bounds are what this machine resolves, not what one would wish
/// for: ten runs of a time metric spread by up to 14 % even in reference
/// seconds (up to 35 % raw), ten runs of peak RSS by up to 2.6 %, and the
/// driver refuses a benchmark whose spread exceeds its bound. See the README's
/// "Steadiness".
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// A metric of a single layer, from the traced pass. No bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A pure function of simulated state: must repeat exactly between
    /// two runs of the same code and seed. (Most are the same for every
    /// seed too; sampler tick counts and the encoded stream's size follow
    /// the seed's time shift.)
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: false }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower, exact: true }
}

const fn ratio(name: &'static str, better: Better, exact: bool) -> Layer {
    Layer { name, unit: "ratio", better, exact }
}

/// Schemes with a `transports.<id>.ns_per_pkt` kernel, in table order.
pub const KERNEL_SCHEMES: [&str; 7] = ["dctcp", "ppt", "hpcc", "powertcp", "swift", "ndp", "homa"];

pub const PER_LAYER: [Layer; 81] = [
    // Stage spans around the harness's own public calls.
    timing("workloads.generate_ms", "ms"),
    timing("netsim.topology.build_ms", "ms"),
    timing("transports.install_ms", "ms"),
    timing("workloads.install_flows_ms", "ms"),
    timing("netsim.engine.run_ms", "ms"),
    timing("stats.fct.collect_ms", "ms"),
    timing("stats.telemetry.summarize_ms", "ms"),
    timing("trace.sink_copy_ms", "ms"),
    timing("trace.encode_ms", "ms"),
    timing("stats.lcp.analyze_ms", "ms"),
    timing("ppt.harness.self_ms", "ms"),
    // Inside `run`, from the engine's public self-profiler.
    count("netsim.engine.deliver_count", "count"),
    count("netsim.engine.tx_done_count", "count"),
    count("netsim.engine.timer_count", "count"),
    count("netsim.engine.flow_start_count", "count"),
    count("netsim.engine.sample_count", "count"),
    timing("netsim.engine.deliver_ns_per_ev", "ns/ev"),
    timing("netsim.engine.tx_done_ns_per_ev", "ns/ev"),
    timing("netsim.engine.timer_ns_per_ev", "ns/ev"),
    timing("netsim.engine.flow_start_ns_per_ev", "ns/ev"),
    timing("netsim.engine.sample_ns_per_ev", "ns/ev"),
    ratio("netsim.engine.prof_coverage", Better::Higher, false),
    ratio("netsim.engine.trace_overhead_ratio", Better::Lower, false),
    // Exact counts of the simulated run.
    count("netsim.engine.events", "count"),
    timing("netsim.engine.ns_per_event", "ns/ev"),
    count("netsim.engine.events_per_mb", "ev/MB"),
    ratio("netsim.engine.timer_event_share", Better::Lower, true),
    count("netsim.engine.pool_peak_pkts", "pkts"),
    ratio("netsim.engine.pool_hit_rate", Better::Higher, true),
    count("netsim.switch.enqueued", "count"),
    count("netsim.switch.marked", "count"),
    count("netsim.switch.dropped", "count"),
    count("netsim.switch.trimmed", "count"),
    count("netsim.switch.evicted", "count"),
    count("transports.tx_packets", "count"),
    count("transports.retransmits", "count"),
    ratio("transports.completion_ratio", Better::Higher, true),
    count("transports.fct_avg_us", "us"),
    count("transports.fct_small_p99_us", "us"),
    count("transports.fct_large_avg_us", "us"),
    count("trace.events_emitted", "count"),
    count("trace.jsonl_mb", "MB"),
    count("netsim.telemetry.samples", "count"),
    // Kernels: one layer at a time, workload-independent.
    timing("netsim.sched.hold_ns.occ64", "ns/op"),
    timing("netsim.sched.hold_ns.occ4096", "ns/op"),
    timing("netsim.sched.far_ns", "ns/op"),
    timing("netsim.queue.push_pop_ns", "ns/op"),
    timing("netsim.switch.enqueue_ns.under", "ns/op"),
    timing("netsim.switch.enqueue_ns.mark", "ns/op"),
    timing("netsim.switch.enqueue_ns.full", "ns/op"),
    timing("transports.common.interval_insert_ns.inorder", "ns/op"),
    timing("transports.common.interval_insert_ns.tailfirst", "ns/op"),
    timing("transports.common.first_gap_ns.fragmented", "ns/op"),
    timing("transports.dctcp.ns_per_pkt", "ns/pkt"),
    timing("transports.ppt.ns_per_pkt", "ns/pkt"),
    timing("transports.hpcc.ns_per_pkt", "ns/pkt"),
    timing("transports.powertcp.ns_per_pkt", "ns/pkt"),
    timing("transports.swift.ns_per_pkt", "ns/pkt"),
    timing("transports.ndp.ns_per_pkt", "ns/pkt"),
    timing("transports.homa.ns_per_pkt", "ns/pkt"),
    count("transports.dctcp.events_per_pkt", "ev/pkt"),
    count("transports.ppt.events_per_pkt", "ev/pkt"),
    count("transports.hpcc.events_per_pkt", "ev/pkt"),
    count("transports.powertcp.events_per_pkt", "ev/pkt"),
    count("transports.swift.events_per_pkt", "ev/pkt"),
    count("transports.ndp.events_per_pkt", "ev/pkt"),
    count("transports.homa.events_per_pkt", "ev/pkt"),
    timing("core.alpha_round_ns", "ns/op"),
    timing("core.min_tracker_ns", "ns/op"),
    timing("core.ack_clock_ns", "ns/op"),
    timing("core.tagger_ns", "ns/op"),
    timing("trace.encode_line_ns", "ns/op"),
    timing("trace.hist_record_ns", "ns/op"),
    timing("workloads.sample_ns", "ns/op"),
    timing("workloads.gen_ns_per_flow", "ns/flow"),
    timing("stats.fct.summary_ns_per_flow", "ns/flow"),
    ratio("netsim.sanitizer.overhead_ratio", Better::Lower, false),
    ratio("netsim.telemetry.overhead_ratio", Better::Lower, false),
    ratio("ppt.sweep.speedup_jobs2", Better::Higher, false),
    timing("pptlab.startup_ms", "ms"),
    timing("pptlab.cli_overhead_ms", "ms"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Median of a sample; the mean of the two middle values when even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's spread rule uses the same).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let quantile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), quantile(3))
}

/// Median, quartiles, extremes and count of the timed repetitions of one
/// metric.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    pub fn of(values: &[f64]) -> Stat {
        let (q1, q3) = quartiles(values);
        Stat {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// Own spread: the distance between the quartiles as a share of the
    /// median.
    pub fn spread(&self) -> f64 {
        if self.median > 0.0 {
            (self.q3 - self.q1) / self.median
        } else {
            0.0
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("median", Json::num(self.median)),
            ("q1", Json::num(self.q1)),
            ("q3", Json::num(self.q3)),
            ("min", Json::num(self.min)),
            ("max", Json::num(self.max)),
            ("n", Json::num(self.n as f64)),
            ("unit", Json::str(unit)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Stat> {
        let field = |key: &str| v.get(key)?.as_f64();
        Some(Stat {
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
            min: field("min")?,
            max: field("max")?,
            n: field("n")? as usize,
        })
    }
}

/// The contract file, generated from the tables above.
pub fn benchmark_json() -> Json {
    let workloads = crate::workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::num(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmarks/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmarks")])),
        ("run_seconds", Json::num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("per_layer", Json::Arr(layers)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let s = Stat::of(&[1.0, 1.1, 0.9]);
        assert_eq!((s.median, s.min, s.max, s.n), (1.0, 0.9, 1.1, 3));
        assert_eq!(Stat::from_json(&s.to_json("s")).unwrap().median, 1.0);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Stat::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]; one value has no spread.
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(Stat::of(&[3.0]).spread(), 0.0);
    }

    /// The contract's limits on names, units and counts.
    #[test]
    fn tables_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workload::ALL.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for id in KERNEL_SCHEMES {
            assert!(layer(&format!("transports.{id}.ns_per_pkt")).is_some());
            assert!(layer(&format!("transports.{id}.events_per_pkt")).is_some());
        }
    }
}
