//! The experiment, re-issued stage by stage with a span around each.
//!
//! [`run_staged`] makes the same public calls, in the same order, as
//! `ppt::harness::run_experiment_with` (switch config → topology build →
//! scheme install → flow install → observers → the 256-event flight
//! recorder → `Simulator::run` → FCT collection), so the layer boundaries
//! can be timed from outside without touching the program. The traced
//! pass checks that it produces the same FCT digest as the real door.
//!
//! [`construct`] is the part before `Simulator::run`: what `setup_s`
//! measures.

use std::time::Instant;

use ppt::harness::{Experiment, TelemetrySummary, TraceData, FLIGHT_RECORDER_EVENTS};
use ppt::netsim::{
    PoolStats, PortCounters, RunLimits, RunReport, SanLevel, SimDuration, TelemetryConfig, Topology,
};
use ppt::stats::{analyze_lcp, FctStats, FctSummary};
use ppt::trace::{FlightRecorder, MemorySink, ProfKind};
use ppt::transports::Proto;
use ppt::workloads::install_flows;

use crate::json::Json;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans are kept in memory and written out when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, rep: u32) -> usize {
        let at = self.now_ns();
        self.spans.push(Span { name, start_ns: at, end_ns: at, parent, rep });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        rep: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), rep);
        let out = f();
        self.close(id);
        out
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::ms).sum();
        self.spans[id].ms() - children
    }

    /// Total milliseconds of spans called `name` in repetition `rep`.
    pub fn sum_ms(&self, name: &str, rep: u32) -> f64 {
        self.spans.iter().filter(|s| s.name == name && s.rep == rep).map(Span::ms).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::num(s.start_ns as f64)),
                        ("end_ns", Json::num(s.end_ns as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                        ("rep", Json::num(s.rep as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Span names, shared with the metric table.
pub mod names {
    pub const REPETITION: &str = "repetition";
    pub const EXPERIMENT: &str = "ppt.harness.experiment";
    pub const GENERATE: &str = "workloads.generate";
    pub const BUILD: &str = "netsim.topology.build";
    pub const INSTALL: &str = "transports.install";
    pub const INSTALL_FLOWS: &str = "workloads.install_flows";
    pub const RUN: &str = "netsim.engine.run";
    pub const COLLECT: &str = "stats.fct.collect";
    pub const SUMMARIZE: &str = "stats.telemetry.summarize";
    pub const SINK_COPY: &str = "trace.sink_copy";
    pub const ENCODE: &str = "trace.encode";
    pub const ANALYZE: &str = "stats.lcp.analyze";
}

/// Which observers ride along with a staged run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observers {
    /// simsan at its per-epoch cadence.
    pub sanitize: bool,
    /// Capture every event in a `MemorySink`, then encode and analyse it.
    pub capture: bool,
    /// Telemetry sampler interval; `None` leaves telemetry off.
    pub telemetry: Option<SimDuration>,
    /// The engine's wall-clock self-profiler (needs `telemetry`).
    pub prof: bool,
}

/// FNV-1a over the `(size, completion time)` record of every completed
/// flow, in flow order: two runs with the same digest produced the same
/// FCTs. Completion *times*, not instants, so the digest is also the same
/// for every `--seed` (see [`crate::workload`]).
pub fn fct_digest(sim: &ppt::netsim::Simulator<Proto>) -> u64 {
    let mut h = Fnv::new();
    for (flow, done) in sim.completions() {
        h.u64(flow.size_bytes);
        h.u64(done.as_nanos() - flow.start.as_nanos());
    }
    h.finish()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(data);
    h.finish()
}

/// What the captured event stream amounted to.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceOut {
    pub events: u64,
    pub jsonl_bytes: u64,
    pub jsonl_hash: u64,
}

/// Everything one staged experiment yields for the per-layer metrics.
pub struct Staged {
    pub report: RunReport,
    pub fct: FctSummary,
    pub digest: u64,
    pub offered_bytes: u64,
    pub counters: PortCounters,
    pub pool: PoolStats,
    pub retransmits: u64,
    pub tx_packets: u64,
    pub san_violations: usize,
    pub samples: u64,
    pub prof: Option<[(ProfKind, u64, u64); 6]>,
    pub trace: Option<TraceOut>,
}

/// Build the topology, install the scheme and register the flows: every
/// step of an experiment before `Simulator::run`.
pub fn construct(exp: &Experiment, rec: &mut Recorder, parent: usize, rep: u32) -> Topology<Proto> {
    let mut topo =
        rec.time(names::BUILD, parent, rep, || exp.topo.build(exp.scheme.switch_config(&exp.env)));
    rec.time(names::INSTALL, parent, rep, || {
        exp.scheme.install(&mut topo, &exp.env).expect("benchmark schemes install in one pass")
    });
    rec.time(names::INSTALL_FLOWS, parent, rep, || {
        install_flows(&mut topo.sim, &topo.hosts, &exp.flows)
    });
    topo
}

/// Run one experiment stage by stage under `obs`.
pub fn run_staged(
    exp: &Experiment,
    obs: Observers,
    rec: &mut Recorder,
    parent: usize,
    rep: u32,
) -> Staged {
    let root = rec.open(names::EXPERIMENT, Some(parent), rep);
    let mut topo = construct(exp, rec, root, rep);

    // Observers, in the harness's order: caller hook (sink, sanitizer),
    // telemetry, then the default flight recorder when nothing captures.
    if obs.capture {
        topo.sim.set_trace_sink(Box::new(MemorySink::new()));
    }
    if obs.sanitize {
        topo.sim.set_sanitizer(SanLevel::PerEpoch);
    }
    if let Some(interval) = obs.telemetry {
        let cfg = TelemetryConfig::new(interval);
        topo.sim.enable_telemetry(if obs.prof { cfg.with_prof() } else { cfg });
    }
    if !topo.sim.trace_enabled() {
        topo.sim.set_trace_sink(Box::new(FlightRecorder::new(FLIGHT_RECORDER_EVENTS)));
    }

    let limits = RunLimits { max_time: exp.max_time, max_events: exp.max_events };
    let report = rec.time(names::RUN, root, rep, || topo.sim.run(limits));

    let (fct, counters) = rec.time(names::COLLECT, root, rep, || {
        let fct = FctStats::from_sim(&topo.sim).summary();
        std::hint::black_box(FctStats::completion_ratio(&topo.sim));
        (fct, topo.sim.total_counters())
    });
    // The harness digests telemetry (per-series oscillation analysis
    // included) before it returns, whether or not the caller reads it.
    rec.time(names::SUMMARIZE, root, rep, || {
        std::hint::black_box(topo.sim.telemetry().map(TelemetrySummary::from_telemetry));
    });

    let captured = obs.capture.then(|| {
        // `run_experiment_traced_with` copies the sink's events out
        // before handing them to the caller; so does this.
        let events = rec.time(names::SINK_COPY, root, rep, || {
            topo.sim
                .take_trace_sink()
                .and_then(|sink| {
                    sink.as_any().downcast_ref::<MemorySink>().map(|mem| mem.events().to_vec())
                })
                .unwrap_or_default()
        });
        let data = TraceData { events };
        let jsonl = rec.time(names::ENCODE, root, rep, || data.to_jsonl());
        rec.time(names::ANALYZE, root, rep, || {
            std::hint::black_box(analyze_lcp(&data.events, exp.topo.base_rtt()));
        });
        (data, jsonl)
    });
    rec.close(root);

    // Bookkeeping for the benchmark's own checks: outside the experiment
    // span, so it never counts as harness time.
    let trace = captured.map(|(data, jsonl)| TraceOut {
        events: data.events.len() as u64,
        jsonl_bytes: jsonl.len() as u64,
        jsonl_hash: hash_bytes(jsonl.as_bytes()),
    });
    let sim = &topo.sim;
    let tx_packets =
        (0..sim.link_count()).map(|i| sim.link(ppt::netsim::LinkId(i as u32)).tx_packets).sum();
    Staged {
        report,
        fct,
        digest: fct_digest(sim),
        offered_bytes: exp.flows.iter().map(|f| f.size_bytes).sum(),
        counters,
        pool: sim.pool_stats(),
        retransmits: sim.fault_report().retransmits,
        tx_packets,
        san_violations: sim.san_violations().len(),
        samples: sim.telemetry().map_or(0, |t| t.samples_taken()),
        prof: sim.telemetry().and_then(|t| t.prof_breakdown()),
        trace,
    }
}
