//! The experiment harness: build a topology, install a scheme, inject a
//! workload, run, and collect FCT statistics — the loop every figure of
//! the paper runs.

use std::any::Any;
use std::path::{Path, PathBuf};

use netsim::trace::{
    FlightRecorder, JsonObject, LogHistogram, MemorySink, MetricsRegistry, ProfKind, TraceSink,
};
use netsim::{
    FatTreeParams, FaultSchedule, LeafSpineParams, Rate, RunLimits, SanLevel, Shape, SimDuration,
    SimTime, SwitchConfig, Topology,
};
use transports::{
    install, DctcpHcp, ExpressPassCfg, Halfback, HomaCfg, HpccHcp, MwRecorder, NdpCfg, Oracle,
    PiasCfg, PowerTcpHcp, Ppt, Proto, Pull, Rc3Cfg, SwiftHcp, Tcp10, TcpCfg, Window,
};
use workloads::FlowSpec;

use dcn_stats::{FctStats, SeriesAnalysis};
use ppt_core::{PptConfig, PptKnobs};

/// Ring capacity of the flight recorder an abnormal run is replayed
/// under: enough to show the final few RTTs of activity before the stop.
pub const FLIGHT_RECORDER_EVENTS: usize = 256;

/// Everything scheme installation needs to know about the environment.
#[derive(Clone, Debug)]
pub struct SchemeEnv {
    /// Edge (host) link rate.
    pub edge_rate: Rate,
    /// Base round-trip time.
    pub base_rtt: SimDuration,
    /// Per-port switch buffer, bytes.
    pub port_buffer: u64,
    /// ECN threshold for DCTCP / the HCP queues.
    pub k_high: u64,
    /// ECN threshold for the LCP queues.
    pub k_low: u64,
    /// Homa/Aeolus/NDP first-window ("RTTbytes").
    pub rtt_bytes: u64,
    /// Minimum RTO.
    pub min_rto: SimDuration,
    /// TCP send buffer (PPT identification + tail reach).
    pub send_buffer: u64,
    /// NDP trim threshold.
    pub trim_threshold: u64,
    /// Run switches in PFC backpressure mode (per-priority XOFF/XON
    /// pause, thresholds derived from the port buffer). Off by default;
    /// `pptlab --switch pfc` sets exactly this field.
    pub pfc: bool,
}

impl SchemeEnv {
    /// Defaults from the paper's Table 3 scaled to an environment.
    pub fn new(edge_rate: Rate, base_rtt: SimDuration) -> Self {
        let (k_high, k_low) = ppt_core::ppt_thresholds(edge_rate, base_rtt);
        SchemeEnv {
            edge_rate,
            base_rtt,
            port_buffer: 120_000,
            k_high,
            k_low,
            rtt_bytes: netsim::bdp_bytes(edge_rate, base_rtt).max(10 * netsim::MSS_BYTES as u64),
            min_rto: SimDuration::from_millis(10),
            send_buffer: 2 << 20,
            trim_threshold: 8 * netsim::MTU_BYTES as u64,
            pfc: false,
        }
    }

    /// Scale every buffer-denominated knob by `factor` — the tiny-buffer
    /// regime study (ROADMAP: do PPT's LCP gains survive shallow
    /// buffers?). The port buffer, both ECN thresholds, and the trim
    /// threshold shrink together; each stays at least one MTU and the
    /// thresholds never exceed the buffer.
    pub fn scale_buffers(mut self, factor: f64) -> Self {
        let scale = |v: u64| ((v as f64 * factor) as u64).max(netsim::MTU_BYTES as u64);
        self.port_buffer = scale(self.port_buffer);
        self.k_high = scale(self.k_high).min(self.port_buffer);
        self.k_low = scale(self.k_low).min(self.port_buffer);
        self.trim_threshold = scale(self.trim_threshold).min(self.port_buffer);
        self
    }

    /// The paper's 15-host 10 G testbed (§6.1, Table 3): 80 µs RTT,
    /// RTOmin 10 ms, K = 100 KB / 80 KB, big (50 MB-class) buffers.
    pub fn paper_testbed() -> Self {
        let mut env = Self::new(Rate::gbps(10), SimDuration::from_micros(80));
        env.port_buffer = 1_000_000; // 50MB / 54 ports ≈ ~1MB per port
        env.k_high = 100_000;
        env.k_low = 80_000;
        env.rtt_bytes = 50_000;
        env
    }

    /// The paper's large-scale simulation settings (§6.2): 120 KB port
    /// buffers, K = 96 KB / 86 KB, RTTbytes = 45 KB, 2 GB send buffers.
    pub fn paper_sim(edge_rate: Rate, base_rtt: SimDuration) -> Self {
        let mut env = Self::new(edge_rate, base_rtt);
        env.port_buffer = 120_000;
        env.k_high = 96_000;
        env.k_low = 86_000;
        env.rtt_bytes = 45_000;
        env.min_rto = SimDuration::from_millis(1);
        env.send_buffer = 2 << 30;
        env
    }

    /// TCP mechanics derived from this environment.
    pub fn tcp_cfg(&self) -> TcpCfg {
        let mut cfg = TcpCfg::new(self.base_rtt);
        cfg.min_rto = self.min_rto;
        cfg
    }

    /// PPT configuration derived from this environment.
    pub fn ppt_cfg(&self) -> PptConfig {
        let mut cfg = PptConfig::new(self.edge_rate, self.base_rtt);
        cfg.send_buffer_bytes = self.send_buffer;
        cfg
    }
}

/// Why [`Scheme::install`] could not install a scheme in a single pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallError {
    /// `Hypothetical` needs an oracle recording pass before it can be
    /// installed; run it through [`run_experiment`] (or the sweep layer),
    /// which performs the two-pass §2.3 construction automatically.
    NeedsTwoPass,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::NeedsTwoPass => {
                write!(f, "scheme needs the two-pass run_experiment()/sweep runner")
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// Every scheme the paper evaluates, PPT's ablations as [`Scheme::Lcp`] knobs.
#[derive(Clone, Debug, PartialEq)]
pub enum Scheme {
    Dctcp,
    /// Table 1 baseline: loss-based TCP with a 10-MSS initial window.
    Tcp10,
    /// Table 1 baseline: TCP-10 + line-rate first RTT for short flows.
    Halfback,
    /// Table 1 baseline: credit-scheduled proactive transport.
    ExpressPass,
    /// PPT: the LCP layer over DCTCP at one setting of the knobs the paper
    /// varies ([`Scheme::Ppt`] sets them as the paper runs it).
    Lcp(PptKnobs),
    Rc3,
    /// Fig 24: RC3 with the low-priority buffer capped to a fraction of
    /// the port buffer.
    Rc3BufferCap(f64),
    Pias,
    Homa,
    Aeolus,
    Ndp,
    Hpcc,
    /// ROADMAP item 4: window control from in-flight power (queue +
    /// throughput gradient) over HPCC's INT telemetry.
    PowerTcp,
    /// Appendix B: PPT's LCP + scheduling layered over HPCC, with
    /// priority-aware INT.
    HpccPpt,
    Swift,
    /// Fig 14: PPT layered over the Swift-like transport.
    SwiftPpt,
    /// §2.3: oracle gap-filler at `fraction × MW` (runs a DCTCP recording
    /// pass automatically).
    Hypothetical(f64),
}

impl Scheme {
    /// PPT as the paper runs it; a constant, not a variant, so `Scheme::Ppt`
    /// still names it in a `static` or `const` (pptbench's tables) and calls.
    #[allow(non_upper_case_globals)]
    pub const Ppt: Scheme = Scheme::Lcp(PptKnobs::PAPER);

    /// Every scheme, the three parameterised variants at one
    /// representative value each: the rows of [`crate::spec::SCHEMES`].
    pub fn all() -> Vec<Scheme> {
        crate::spec::SCHEMES.iter().map(|(.., scheme)| scheme.clone()).collect()
    }

    /// Display name matching the paper's figures (see [`crate::spec::SCHEMES`]).
    pub fn name(&self) -> String {
        crate::spec::scheme_name(self)
    }

    /// The switch configuration this scheme requires. With `env.pfc`
    /// set, PFC backpressure (thresholds derived from the port buffer)
    /// is layered on top of whatever the scheme asked for, which makes
    /// the switch lossless: push-out and the buffer limit stop applying,
    /// range caps and trimming do not (DESIGN.md §15.1).
    pub fn switch_config(&self, env: &SchemeEnv) -> SwitchConfig {
        let cfg = self.base_switch_config(env);
        if env.pfc {
            let pfc = netsim::PfcConfig::for_buffer(cfg.port_buffer_bytes);
            cfg.with_pfc(pfc)
        } else {
            cfg
        }
    }

    fn base_switch_config(&self, env: &SchemeEnv) -> SwitchConfig {
        match self {
            Scheme::Dctcp | Scheme::Pias => SwitchConfig::dctcp(env.port_buffer, env.k_high),
            Scheme::Tcp10 | Scheme::Halfback | Scheme::ExpressPass => {
                SwitchConfig::basic(env.port_buffer)
            }
            Scheme::Lcp(_) | Scheme::SwiftPpt | Scheme::Rc3 | Scheme::Hypothetical(_) => {
                SwitchConfig::ppt(env.port_buffer, env.k_high, env.k_low)
            }
            Scheme::Rc3BufferCap(frac) => SwitchConfig::ppt(env.port_buffer, env.k_high, env.k_low)
                .with_range_cap(4, 8, (env.port_buffer as f64 * frac) as u64),
            Scheme::Homa => transports::homa_switch_config(env.port_buffer, false),
            Scheme::Aeolus => transports::homa_switch_config(env.port_buffer, true),
            Scheme::Ndp => SwitchConfig::ndp(env.port_buffer, env.trim_threshold),
            Scheme::Hpcc | Scheme::PowerTcp | Scheme::Swift => SwitchConfig::basic(env.port_buffer),
            Scheme::HpccPpt => {
                // No ECN for the INT-driven HCP band; PPT's low threshold
                // for the LCP band; push-out protection.
                let mut cfg = SwitchConfig::basic(env.port_buffer).with_push_out(true);
                for p in 4..8 {
                    cfg.ecn[p] = Some(netsim::EcnRule {
                        threshold_bytes: env.k_low,
                        scope: netsim::MarkScope::Port,
                    });
                }
                cfg
            }
        }
    }

    /// Install the scheme on every host of a built topology.
    ///
    /// Errors with [`InstallError::NeedsTwoPass`] for the `Hypothetical`
    /// variant, which requires the oracle recording pass that
    /// [`run_experiment`] and the sweep runner perform automatically.
    pub fn install(&self, topo: &mut Topology<Proto>, env: &SchemeEnv) -> Result<(), InstallError> {
        let (tcp, ppt) = (env.tcp_cfg(), env.ppt_cfg());
        let (rate, rtt, mss) = (topo.edge_rate, topo.base_rtt, netsim::MSS_BYTES);
        match self {
            Scheme::Dctcp => install(topo, || Window::new(tcp.clone(), DctcpHcp, ())),
            Scheme::Tcp10 => install(topo, || Window::new(tcp.clone(), Tcp10, ())),
            Scheme::Halfback => install(topo, || Window::new(tcp.clone(), Halfback, ())),
            Scheme::ExpressPass => {
                let cfg = ExpressPassCfg::new(rate, env.min_rto);
                install(topo, || Pull::new(cfg.clone(), mss))
            }
            Scheme::Lcp(knobs) => {
                let ppt = Ppt { cfg: PptConfig { knobs: *knobs, ..ppt } };
                install(topo, || Window::new(tcp.clone(), DctcpHcp, ppt))
            }
            Scheme::Rc3 | Scheme::Rc3BufferCap(_) => {
                let bdp_bytes = netsim::bdp_bytes(env.edge_rate, env.base_rtt);
                let cfg = Rc3Cfg { bdp_bytes, send_buffer_bytes: 2 << 30 };
                install(topo, || Window::new(tcp.clone(), DctcpHcp, cfg.clone()))
            }
            Scheme::Pias => {
                install(topo, || Window::new(tcp.clone(), DctcpHcp, PiasCfg::default()))
            }
            Scheme::Homa | Scheme::Aeolus => {
                let mut cfg = HomaCfg::new(env.rtt_bytes);
                cfg.aeolus = *self == Scheme::Aeolus;
                cfg.resend_timeout = env.min_rto;
                install(topo, || Pull::new(cfg.clone(), mss))
            }
            Scheme::Ndp => {
                let cfg = NdpCfg::new(rate, rtt, env.min_rto);
                install(topo, || Pull::new(cfg.clone(), mss))
            }
            Scheme::Hpcc => install(topo, || Window::new(tcp.clone(), HpccHcp::new(rate, rtt), ())),
            Scheme::PowerTcp => {
                install(topo, || Window::new(tcp.clone(), PowerTcpHcp::new(rate, rtt), ()))
            }
            Scheme::HpccPpt => {
                let hcp = HpccHcp::new(rate, rtt).with_high_band_only();
                install(topo, || Window::new(tcp.clone(), hcp, Ppt { cfg: ppt }))
            }
            Scheme::Swift => install(topo, || Window::new(tcp.clone(), SwiftHcp, ())),
            Scheme::SwiftPpt => {
                install(topo, || Window::new(tcp.clone(), SwiftHcp, Ppt { cfg: ppt }))
            }
            Scheme::Hypothetical(_) => return Err(InstallError::NeedsTwoPass),
        }
        Ok(())
    }
}

/// Which topology an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoKind {
    /// `n` hosts on one switch.
    Star { n: usize, rate_gbps: u64, delay_us: u64 },
    /// The §6.1 testbed: 15 hosts, 10 G, ~80 µs RTT.
    PaperTestbed,
    /// The §6.2 oversubscribed fabric: 144 hosts, 40/100 G.
    Oversubscribed,
    /// Appendix E: 144 hosts, 10/40 G, 1:1.
    NonOversubscribed,
    /// §6.3.2: 144 hosts, 100/400 G.
    HighSpeed,
    /// A k-ary fat-tree (k³/4 hosts) — beyond the paper's two-tier
    /// fabrics, for scale-out studies.
    FatTree { k: usize, edge_gbps: u64 },
}

impl TopoKind {
    /// The parameters of this topology's build, from which every count
    /// and rate below is derived.
    pub fn shape(&self) -> Shape {
        let us = SimDuration::from_micros;
        // The paper's 144-server fabric: 9 leaves × 16 hosts, 4 spines, 2 µs links.
        let paper_fabric = |edge_gbps, core_gbps| {
            Shape::LeafSpine(LeafSpineParams {
                n_leaves: 9,
                n_spines: 4,
                hosts_per_leaf: 16,
                edge_rate: Rate::gbps(edge_gbps),
                core_rate: Rate::gbps(core_gbps),
                link_delay: us(2),
            })
        };
        match *self {
            TopoKind::Star { n, rate_gbps, delay_us } => {
                Shape::Star { hosts: n, rate: Rate::gbps(rate_gbps), link_delay: us(delay_us) }
            }
            TopoKind::PaperTestbed => {
                Shape::Star { hosts: 15, rate: Rate::gbps(10), link_delay: us(20) }
            }
            TopoKind::Oversubscribed => paper_fabric(40, 100),
            TopoKind::NonOversubscribed => paper_fabric(10, 40),
            TopoKind::HighSpeed => paper_fabric(100, 400),
            TopoKind::FatTree { k, edge_gbps } => Shape::FatTree(FatTreeParams {
                k,
                edge_rate: Rate::gbps(edge_gbps),
                aggregate_rate: Rate::gbps(edge_gbps * 4),
                core_rate: Rate::gbps(edge_gbps * 4),
                link_delay: us(1),
            }),
        }
    }

    /// Build the topology with the given per-port switch config.
    pub fn build(&self, cfg: SwitchConfig) -> Topology<Proto> {
        self.shape().build(cfg)
    }

    /// Edge rate of the topology (for load calculations).
    pub fn edge_rate(&self) -> Rate {
        self.shape().edge_rate()
    }

    /// Host count.
    pub fn hosts(&self) -> usize {
        self.shape().hosts()
    }

    /// Switch count, as [`Self::build`] would make it.
    pub fn switches(&self) -> usize {
        self.shape().switches()
    }

    /// Base RTT of the topology.
    pub fn base_rtt(&self) -> SimDuration {
        self.shape().base_rtt()
    }

    /// A `SchemeEnv` with the paper's parameters for this topology.
    pub fn env(&self) -> SchemeEnv {
        match self {
            TopoKind::PaperTestbed | TopoKind::Star { .. } => {
                let mut env = SchemeEnv::paper_testbed();
                env.edge_rate = self.edge_rate();
                env.base_rtt = self.base_rtt();
                env
            }
            _ => SchemeEnv::paper_sim(self.edge_rate(), self.base_rtt()),
        }
    }
}

/// Continuous-telemetry knobs for an experiment: the engine's own
/// config, cloned with the experiment into sweep points.
pub use netsim::TelemetryConfig as TelemetrySpec;

/// A fully-described experiment.
#[derive(Clone, Debug)]
pub struct Experiment {
    pub topo: TopoKind,
    pub scheme: Scheme,
    pub env: SchemeEnv,
    pub flows: Vec<FlowSpec>,
    /// Faults to inject during the main run; `None` ⇒ clean network. The
    /// DCTCP recording pass of a `Hypothetical` scheme runs on a clean
    /// network, so its MW oracle is the one a fault-free run would use.
    pub faults: Option<FaultSchedule>,
    /// Continuous telemetry for the main run; `None` ⇒ off. The oracle
    /// recording pass of `Hypothetical` schemes is never telemetered.
    pub telemetry: Option<TelemetrySpec>,
    /// Audit the main run with simsan at this cadence; `None` ⇒ off. A
    /// `pre_run` hook that installed a sanitizer keeps its own cadence,
    /// and the `Hypothetical` oracle pass is never sanitized.
    pub sanitize: Option<SanLevel>,
    /// Where an abnormal stop writes its flight-recorder dump, one file
    /// per run; `None` ⇒ stderr.
    pub dump_dir: Option<PathBuf>,
    /// Wall stop (simulated); generous defaults cover stragglers.
    pub max_time: SimTime,
    pub max_events: u64,
}

impl Experiment {
    /// New experiment with the topology's default environment.
    pub fn new(topo: TopoKind, scheme: Scheme, flows: Vec<FlowSpec>) -> Self {
        Experiment {
            env: topo.env(),
            topo,
            scheme,
            flows,
            faults: None,
            telemetry: None,
            sanitize: None,
            dump_dir: None,
            max_time: SimTime(30_000_000_000), // 30s simulated
            max_events: 4_000_000_000,
        }
    }

    /// Attach a fault schedule to the experiment.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enable continuous telemetry on the main run.
    pub fn with_telemetry(mut self, telemetry: TelemetrySpec) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// What an experiment run produced.
pub struct Outcome {
    /// Per-flow FCTs of completed flows.
    pub fct: FctStats,
    /// Fraction of flows that completed.
    pub completion_ratio: f64,
    /// Aggregate switch counters (drops, marks, trims).
    pub counters: netsim::PortCounters,
    /// The simulator (for post-hoc inspection: samplers, links, raw
    /// telemetry via [`netsim::Simulator::telemetry`]).
    pub sim: netsim::Simulator<Proto>,
    /// Engine report.
    pub report: netsim::RunReport,
    /// Telemetry summary, when the experiment enabled telemetry.
    pub telemetry: Option<TelemetrySummary>,
}

/// `Send`-able digest of what a run's sampler counted: the interval, the
/// ticks, the three histograms and the optional profile rows. Everything
/// except `prof` is a pure function of simulated state, so its JSON
/// encoding is byte-identical across reruns and sweep job counts (DESIGN.md
/// §14). The per-series analysis is not in it: it is made where it is
/// printed, by [`dcn_stats::analyze_all`] over the run's series.
#[derive(Clone, Debug)]
pub struct TelemetrySummary {
    /// Sampling interval used.
    pub interval: SimDuration,
    /// Sampler ticks taken.
    pub samples: u64,
    /// Flow completion times, nanoseconds.
    pub fct_ns: LogHistogram,
    /// Per-packet queueing delay, nanoseconds.
    pub queue_delay_ns: LogHistogram,
    /// Sampled per-port queue depth, bytes.
    pub queue_depth_bytes: LogHistogram,
    /// Wall-clock dispatch profile `(kind, count, total_ns)` rows when
    /// the profiler ran — machine noise, excluded from goldens.
    pub prof: Option<Vec<(ProfKind, u64, u64)>>,
}

impl TelemetrySummary {
    /// Digest the engine's telemetry state.
    pub fn from_telemetry(t: &netsim::Telemetry) -> Self {
        TelemetrySummary {
            interval: t.interval(),
            samples: t.samples_taken(),
            fct_ns: t.fct_hist().clone(),
            queue_delay_ns: t.queue_delay_hist().clone(),
            queue_depth_bytes: t.queue_depth_hist().clone(),
            prof: t.prof_breakdown().map(|rows| rows.to_vec()),
        }
    }

    /// Deterministic JSON encoding for `pptlab report`, with `series` (the
    /// run's [`dcn_stats::analyze_all`]) as its per-series block. Profile
    /// rows are wall-clock noise, so they only appear when `include_prof`
    /// is set — default report output stays byte-comparable.
    pub fn to_json(&self, series: &[SeriesAnalysis], include_prof: bool) -> String {
        let mut block = String::from("[");
        for (i, a) in series.iter().enumerate() {
            if i > 0 {
                block.push(',');
            }
            let mut obj = JsonObject::new()
                .str("name", &a.name)
                .u64("points", a.points as u64)
                .u64("evicted", a.evicted)
                .f64("mean", a.mean)
                .f64("min", a.min)
                .f64("max", a.max)
                .f64("peak_to_peak", a.peak_to_peak);
            if let Some(p) = a.period_ns {
                obj = obj.u64("period_ns", p).f64("period_strength", a.period_strength);
            }
            block.push_str(&obj.bool("oscillating", a.oscillating).finish());
        }
        block.push(']');
        let mut obj = JsonObject::new()
            .u64("interval_ns", self.interval.as_nanos())
            .u64("samples", self.samples)
            .raw("series", &block)
            .raw("fct_ns", &self.fct_ns.to_json())
            .raw("queue_delay_ns", &self.queue_delay_ns.to_json())
            .raw("queue_depth_bytes", &self.queue_depth_bytes.to_json());
        if include_prof {
            if let Some(rows) = &self.prof {
                let mut prof = String::from("[");
                for (i, (kind, count, total_ns)) in rows.iter().enumerate() {
                    if i > 0 {
                        prof.push(',');
                    }
                    prof.push_str(
                        &JsonObject::new()
                            .str("kind", kind.as_str())
                            .u64("count", *count)
                            .u64("total_ns", *total_ns)
                            .finish(),
                    );
                }
                prof.push(']');
                obj = obj.raw("prof", &prof);
            }
        }
        obj.finish()
    }
}

/// A star's one switch and its egress port toward host `receiver` (the
/// bottleneck of the N-to-1 microbenchmarks, Figs 1, 20, 28), for the
/// typed [`netsim::Telemetry`] lookups; `None` if no port faces it.
pub fn star_bottleneck(
    sim: &netsim::Simulator<Proto>,
    receiver: u32,
) -> Option<(netsim::SwitchId, u16)> {
    let sw = netsim::SwitchId(0);
    let port = sim.switch_port_towards(sw, netsim::NodeId::Host(netsim::HostId(receiver)))?;
    Some((sw, port))
}

/// Run an experiment end to end. `Hypothetical` schemes automatically run
/// the plain-DCTCP recording pass on an identical topology + workload
/// first (the §2.3 construction).
pub fn run_experiment(exp: &Experiment) -> Outcome {
    run_experiment_with(exp, |_| {})
}

/// [`run_experiment`] with a pre-run hook for installing samplers.
///
/// The run carries no trace sink unless `pre_run` installs one, so every
/// emission site is one untaken branch. A run that stops abnormally is
/// then run a second time, identically, with a [`FlightRecorder`]
/// attached, and the tail of that replay is dumped: determinism is the
/// black box. An abnormal run costs twice; a normal one pays nothing.
/// `pre_run` is therefore called once per pass.
pub fn run_experiment_with<F>(exp: &Experiment, pre_run: F) -> Outcome
where
    F: Fn(&mut Topology<Proto>),
{
    let (topo, report) = run_once(exp, &pre_run);
    // A sink `pre_run` installed saw the run itself; nothing to replay.
    if !report.is_abnormal() || topo.sim.trace_enabled() {
        return collect_outcome(exp, topo, report);
    }
    // The first pass is dropped before the second starts and the second is
    // what the caller gets — the same state, by determinism, and the same
    // warning — so a run stopped for running away is never held twice.
    drop(topo);
    let recorder = FlightRecorder::new(FLIGHT_RECORDER_EVENTS);
    let (outcome, recorder) = run_into(exp, recorder, &pre_run);
    debug_assert_eq!(outcome.report, report, "{}: the replay diverged", exp.scheme.name());
    if let Some(rec) = recorder {
        dump_flight_recorder(exp, &rec);
    }
    outcome
}

/// One pass of an experiment, from an empty topology to the stopped
/// simulator. `Hypothetical` schemes run their recording pass first.
fn run_once<F>(exp: &Experiment, pre_run: F) -> (Topology<Proto>, netsim::RunReport)
where
    F: FnOnce(&mut Topology<Proto>),
{
    let tcp = exp.env.tcp_cfg();
    let mut topo = exp.topo.build(exp.scheme.switch_config(&exp.env));
    if let Scheme::Hypothetical(frac) = exp.scheme {
        // Recording pass: plain DCTCP on the same topology & flows.
        let rec = MwRecorder::default();
        let mut pass = exp.topo.build(Scheme::Dctcp.switch_config(&exp.env));
        install(&mut pass, || Window::new(tcp.clone(), DctcpHcp, ()).with_mw_recorder(rec.clone()));
        workloads::install_flows(&mut pass.sim, &pass.hosts, &exp.flows);
        pass.sim.run(RunLimits { max_time: exp.max_time, max_events: exp.max_events });
        install(&mut topo, || Window::new(tcp.clone(), DctcpHcp, Oracle::new(&rec, frac)));
    } else if let Err(e) = exp.scheme.install(&mut topo, &exp.env) {
        // Unreachable by construction: the only erroring variant is
        // Hypothetical, and the branch above always takes it.
        debug_assert!(false, "{}: {e}", exp.scheme.name());
        eprintln!("warning: {}: {e}; hosts left without transports", exp.scheme.name());
    }
    workloads::install_flows(&mut topo.sim, &topo.hosts, &exp.flows);
    pre_run(&mut topo);
    // A pre_run hook that already installed a sanitizer keeps its cadence.
    if let Some(level) = exp.sanitize.filter(|_| !topo.sim.sanitizer_enabled()) {
        topo.sim.set_sanitizer(level);
    }
    if let Some(faults) = exp.faults.as_ref().filter(|faults| !faults.is_empty()) {
        topo.sim.set_fault_schedule(faults.clone());
    }
    if let Some(spec) = &exp.telemetry {
        topo.sim.enable_telemetry(*spec);
    }
    let report = topo.sim.run(RunLimits { max_time: exp.max_time, max_events: exp.max_events });
    (topo, report)
}

/// Collect what a stopped run leaves behind, saying on stderr if it
/// stopped abnormally.
fn collect_outcome(exp: &Experiment, topo: Topology<Proto>, report: netsim::RunReport) -> Outcome {
    if report.is_abnormal() {
        warn_abnormal(exp, &topo.sim, &report);
    }
    let fct = FctStats::from_sim(&topo.sim);
    let completion_ratio = FctStats::completion_ratio(&topo.sim);
    let counters = topo.sim.total_counters();
    let telemetry = topo.sim.telemetry().map(TelemetrySummary::from_telemetry);
    Outcome { fct, completion_ratio, counters, sim: topo.sim, report, telemetry }
}

/// Report an abnormal stop on stderr.
fn warn_abnormal(exp: &Experiment, sim: &netsim::Simulator<Proto>, report: &netsim::RunReport) {
    // `AllFlowsDone` only says the queue drained; with flows left over
    // that is the abnormality, so name it for what happened.
    let reason = match report.stop {
        netsim::StopReason::AllFlowsDone => "queue_drained",
        stop => stop.as_str(),
    };
    eprintln!(
        "warning: {} run stopped abnormally: reason={reason} flows={}/{}",
        exp.scheme.name(),
        report.flows_completed,
        report.flows_total,
    );
    if sim.faults_enabled() {
        let f = report.faults;
        eprintln!(
            "fault context: {} injected drops, {} retransmits, max stall {} ns, \
             {} goodput bytes during faults",
            f.fault_drops,
            f.retransmits,
            f.max_stall.as_nanos(),
            f.goodput_during_fault_bytes,
        );
    }
    if report.stop == netsim::StopReason::SanViolation {
        for v in sim.san_violations() {
            eprintln!(
                "san violation: check={} at={} subject={} expected={} actual={}",
                v.check.as_str(),
                v.at.0,
                v.subject,
                v.expected,
                v.actual,
            );
        }
    }
}

/// Dump the tail of an abnormal run's replay as JSONL.
fn dump_flight_recorder(exp: &Experiment, rec: &FlightRecorder) {
    if rec.is_empty() {
        return;
    }
    // With a dump dir, the ring dump goes to its own file — parallel
    // sweep workers would otherwise interleave multi-line dumps on
    // shared stderr. Stderr is the default and the fallback.
    let written = exp.dump_dir.as_deref().and_then(|dir| {
        let path = dump_file_path(dir, exp);
        match std::fs::write(&path, rec.to_jsonl()) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("flight recorder: failed to write {}: {e}", path.display());
                None
            }
        }
    });
    let (len, seen) = (rec.len(), rec.total_seen());
    match written {
        Some(path) => {
            eprintln!("flight recorder: last {len} of {seen} events dumped to {}", path.display())
        }
        None => {
            eprintln!("flight recorder: last {len} of {seen} events:");
            eprint!("{}", rec.to_jsonl());
        }
    }
}

/// A collision-free dump file name: scheme + pid + a process-wide counter
/// (several sweep workers in one process may dump concurrently). Display
/// names carry `/`, spaces, `%` and `×` ("PPT w/o EWD", "PPT fill
/// 75%×MW"), so every run of non-alphanumerics becomes one `-`.
fn dump_file_path(dir: &Path, exp: &Experiment) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = exp.scheme.name();
    let slug: Vec<&str> =
        name.split(|c: char| !c.is_ascii_alphanumeric()).filter(|s| !s.is_empty()).collect();
    dir.join(format!("ppt-dump-{}-{}-{}.jsonl", slug.join("-"), std::process::id(), n))
}

/// Run `exp` with `sink` attached before `pre_run` runs, and take the sink
/// back as its type once the run stops (`None` if `pre_run` replaced it):
/// the workspace's one downcast of a sink.
fn run_into<S, F>(exp: &Experiment, sink: S, pre_run: F) -> (Outcome, Option<S>)
where
    S: TraceSink,
    F: FnOnce(&mut Topology<Proto>),
{
    let (mut topo, report) = run_once(exp, |topo: &mut Topology<Proto>| {
        topo.sim.set_trace_sink(Box::new(sink));
        pre_run(topo);
    });
    let sink = topo.sim.take_trace_sink().and_then(|sink| (sink as Box<dyn Any>).downcast().ok());
    (collect_outcome(exp, topo, report), sink.map(|sink| *sink))
}

/// Run an experiment with `sink` seeing every engine + transport event as it
/// happens, and hand the sink back with the outcome: with a sink that folds
/// ([`netsim::trace::JsonlWriter`], [`dcn_stats::LcpFold`], a pair of them)
/// the run holds no event. The stream records an abnormal stop: no replay.
pub fn run_experiment_into<S: TraceSink>(exp: &Experiment, sink: S) -> (Outcome, S) {
    let (outcome, sink) = run_into(exp, sink, |_| {});
    // Nothing but `run_into` installs a sink on this run.
    (outcome, sink.expect("the run's one sink comes back")) // simlint: allow(panic_hygiene)
}

/// A captured event stream from a traced run: the [`MemorySink`] the run
/// wrote, `(time_ns, event)` pairs in emission order in its `events`.
pub type TraceData = MemorySink;

/// [`run_experiment_into`] a [`MemorySink`]: full event capture. Same
/// experiment (topology, scheme, flows, seed) ⇒ identical event stream.
pub fn run_experiment_traced(exp: &Experiment) -> (Outcome, TraceData) {
    run_experiment_traced_with(exp, |_| {})
}

/// [`run_experiment_traced`] with a pre-run hook (runs after the memory
/// sink is installed — use it for samplers or [`netsim::Simulator::set_sanitizer`]).
/// Like [`run_experiment_into`], this door never replays and `pre_run` is
/// called once.
pub fn run_experiment_traced_with<F>(exp: &Experiment, pre_run: F) -> (Outcome, TraceData)
where
    F: FnOnce(&mut Topology<Proto>),
{
    let (outcome, sink) = run_into(exp, MemorySink::new(), pre_run);
    (outcome, sink.unwrap_or_default())
}

/// Distill an [`Outcome`] into a deterministic [`MetricsRegistry`]:
/// engine totals, per-port switch counters (quiet ports skipped), link
/// byte/packet counts, and the paper's FCT summary as gauges.
pub fn collect_metrics(outcome: &Outcome) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    let report = &outcome.report;
    m.set_counter("engine.events", report.events);
    m.set_counter("engine.end_time_ns", report.end_time.0);
    m.set_counter(&format!("engine.stop.{}", report.stop.as_str()), 1);
    m.set_counter("flows.total", report.flows_total as u64);
    m.set_counter("flows.completed", report.flows_completed as u64);
    m.set_gauge("flows.completion_ratio", outcome.completion_ratio);

    let t = &outcome.counters;
    m.set_counter("switch.total.enqueued", t.enqueued);
    m.set_counter("switch.total.dropped", t.dropped);
    m.set_counter("switch.total.trimmed", t.trimmed);
    m.set_counter("switch.total.marked", t.marked);
    m.set_counter("switch.total.evicted", t.evicted);
    m.set_counter("switch.total.dropped_bytes", t.dropped_bytes);

    let sim = &outcome.sim;
    for si in 0..sim.switch_count() {
        let sw = netsim::SwitchId(si as u32);
        for pi in 0..sim.port_count(sw) {
            let c = sim.port_counters(sw, pi as u16);
            if c.enqueued == 0 && c.dropped == 0 && c.trimmed == 0 && c.marked == 0 {
                continue;
            }
            let prefix = format!("sw{si}.port{pi}");
            m.set_counter(&format!("{prefix}.enqueued"), c.enqueued);
            if c.dropped > 0 {
                m.set_counter(&format!("{prefix}.dropped"), c.dropped);
            }
            if c.trimmed > 0 {
                m.set_counter(&format!("{prefix}.trimmed"), c.trimmed);
            }
            if c.marked > 0 {
                m.set_counter(&format!("{prefix}.marked"), c.marked);
            }
            if c.evicted > 0 {
                m.set_counter(&format!("{prefix}.evicted"), c.evicted);
            }
        }
    }
    let mut link_bytes = 0u64;
    let mut link_packets = 0u64;
    for li in 0..sim.link_count() {
        let l = sim.link(netsim::LinkId(li as u32));
        link_bytes += l.tx_bytes;
        link_packets += l.tx_packets;
    }
    m.set_counter("links.tx_bytes", link_bytes);
    m.set_counter("links.tx_packets", link_packets);

    let s = outcome.fct.summary();
    m.set_counter("fct.count.all", s.counts.0 as u64);
    m.set_counter("fct.count.small", s.counts.1 as u64);
    m.set_counter("fct.count.large", s.counts.2 as u64);
    m.set_gauge("fct.overall_avg_us", s.overall_avg_us);
    m.set_gauge("fct.small_avg_us", s.small_avg_us);
    m.set_gauge("fct.small_p99_us", s.small_p99_us);
    m.set_gauge("fct.large_avg_us", s.large_avg_us);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_are_unique() {
        let names: Vec<String> = Scheme::all().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scheme names");
    }

    #[test]
    fn switch_configs_are_well_formed() {
        let env = SchemeEnv::paper_sim(Rate::gbps(40), SimDuration::from_micros(12));
        for scheme in Scheme::all() {
            let cfg = scheme.switch_config(&env);
            assert!(cfg.port_buffer_bytes > 0, "{}: zero buffer", scheme.name());
            for rule in cfg.ecn.iter().flatten() {
                assert!(
                    rule.threshold_bytes <= cfg.port_buffer_bytes,
                    "{}: K above the buffer",
                    scheme.name()
                );
            }
            for cap in &cfg.range_caps {
                assert!(cap.lo < cap.hi && cap.hi as usize <= netsim::NUM_PRIORITIES);
            }
        }
    }

    #[test]
    fn env_pfc_layers_backpressure_on_every_scheme() {
        let mut env = SchemeEnv::paper_sim(Rate::gbps(40), SimDuration::from_micros(12));
        env.pfc = true;
        for scheme in Scheme::all() {
            let cfg = scheme.switch_config(&env);
            let pfc = cfg.pfc.unwrap_or_else(|| panic!("{}: env.pfc ignored", scheme.name()));
            assert!(pfc.xon_bytes < pfc.xoff_bytes, "{}: no hysteresis", scheme.name());
            assert!(pfc.xoff_bytes < cfg.port_buffer_bytes, "{}: no headroom", scheme.name());
        }
    }

    #[test]
    fn scale_buffers_shrinks_all_thresholds_consistently() {
        let env = SchemeEnv::paper_testbed().scale_buffers(0.1);
        assert_eq!(env.port_buffer, 100_000);
        assert_eq!(env.k_high, 10_000);
        assert_eq!(env.k_low, 8_000);
        assert!(env.trim_threshold <= env.port_buffer);
        // Extreme shrink floors at one MTU and keeps K ≤ buffer.
        let tiny = SchemeEnv::paper_testbed().scale_buffers(1e-9);
        assert_eq!(tiny.port_buffer, netsim::MTU_BYTES as u64);
        assert!(tiny.k_high <= tiny.port_buffer && tiny.k_low <= tiny.port_buffer);
    }

    #[test]
    fn topo_kinds_build_consistently() {
        for kind in [
            TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 5 },
            TopoKind::PaperTestbed,
            TopoKind::Oversubscribed,
            TopoKind::NonOversubscribed,
            TopoKind::HighSpeed,
            TopoKind::FatTree { k: 4, edge_gbps: 10 },
        ] {
            let topo = kind.build(SwitchConfig::basic(1 << 20));
            assert_eq!(topo.hosts.len(), kind.hosts(), "{kind:?}: host count");
            // Host `i` is `HostId(i)`: what lets a fault schedule name hosts
            // before the topology is built.
            for (i, &h) in topo.hosts.iter().enumerate() {
                assert_eq!(h, netsim::HostId(i as u32), "{kind:?}: host {i}");
            }
            assert_eq!(topo.edge_rate, kind.edge_rate(), "{kind:?}: edge rate");
            assert_eq!(topo.base_rtt, kind.base_rtt(), "{kind:?}: base rtt");
        }
    }

    #[test]
    fn envs_follow_the_paper_tables() {
        let tb = SchemeEnv::paper_testbed();
        assert_eq!(tb.k_high, 100_000);
        assert_eq!(tb.k_low, 80_000);
        assert_eq!(tb.rtt_bytes, 50_000);
        assert_eq!(tb.min_rto, SimDuration::from_millis(10));

        let sim = SchemeEnv::paper_sim(Rate::gbps(40), SimDuration::from_micros(12));
        assert_eq!(sim.port_buffer, 120_000);
        assert_eq!(sim.k_high, 96_000);
        assert_eq!(sim.k_low, 86_000);
        assert_eq!(sim.rtt_bytes, 45_000);
    }

    #[test]
    fn hypothetical_requires_two_pass_runner() {
        let mut topo =
            TopoKind::Star { n: 2, rate_gbps: 10, delay_us: 5 }.build(SwitchConfig::basic(1 << 20));
        let env = SchemeEnv::new(Rate::gbps(10), SimDuration::from_micros(20));
        let err = Scheme::Hypothetical(1.0).install(&mut topo, &env);
        assert_eq!(err, Err(InstallError::NeedsTwoPass));
        assert!(format!("{}", InstallError::NeedsTwoPass).contains("two-pass"));
        // Every other scheme installs in a single pass.
        for scheme in Scheme::all() {
            if matches!(scheme, Scheme::Hypothetical(_)) {
                continue;
            }
            let mut topo = TopoKind::Star { n: 2, rate_gbps: 10, delay_us: 5 }
                .build(SwitchConfig::basic(1 << 20));
            assert_eq!(scheme.install(&mut topo, &env), Ok(()), "{}", scheme.name());
        }
    }
}
