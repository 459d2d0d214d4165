//! Telemetry determinism contract (DESIGN.md §14): the sampler reads
//! state and never mutates it, so telemetered runs must reproduce the
//! pinned goldens byte-for-byte, and the sampled series / histograms /
//! report JSON must themselves be byte-identical across reruns and
//! worker counts.

use ppt::harness::{
    run_experiment, run_experiment_traced, Experiment, Scheme, TelemetrySpec, TelemetrySummary,
    TopoKind,
};
use ppt::netsim::{SimDuration, SimTime, TelemetryConfig};
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

/// FNV-1a 64-bit, matching `tests/determinism.rs`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The same pinned-seed traced scenario as
/// `determinism::pinned_seed_goldens_are_byte_identical`, but with the
/// telemetry sampler armed at 10 µs.
fn telemetered_golden_digests(scheme: Scheme, seed: u64) -> (u64, u64) {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    let exp = Experiment::new(topo, scheme, flows)
        .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(10)));
    let (outcome, trace) = run_experiment_traced(&exp);
    assert!(
        outcome.sim.telemetry().map(|t| t.samples_taken() > 0).unwrap_or(false),
        "telemetry must actually sample during the golden run"
    );
    let trace_hash = fnv1a64(trace.to_jsonl().as_bytes());
    let mut fct_buf = String::new();
    for r in outcome.fct.records() {
        fct_buf.push_str(&format!("{},{}\n", r.size_bytes, r.fct.as_nanos()));
    }
    (trace_hash, fnv1a64(fct_buf.as_bytes()))
}

/// The heart of the contract: arming the sampler must not move a single
/// byte of the pinned trace or FCT goldens. These are the exact digests
/// pinned in `tests/determinism.rs` for untelemetered runs — sampling
/// reads state, never mutates, and `Ev::Sample` dispatches emit nothing
/// into the packet path.
#[test]
fn telemetry_leaves_pinned_goldens_unchanged() {
    for (scheme, seed, want_trace, want_fct) in [
        (Scheme::Ppt, 42u64, 0xe9a4_e439_ac56_fe20_u64, 0x544f_c7e6_370c_f276_u64),
        (Scheme::Dctcp, 42, 0xf04a_9831_60e9_08d5, 0xdfbd_16a2_71d0_99be),
        (Scheme::Ndp, 7, 0xa624_4279_1c93_0e9f, 0x64cd_8caa_b1be_ec7b),
        (Scheme::Homa, 7, 0xd072_7754_f98c_10f5, 0xe4ec_42a4_cd20_bf42),
    ] {
        let name = scheme.name();
        let (trace_hash, fct_hash) = telemetered_golden_digests(scheme, seed);
        assert_eq!(
            (trace_hash, fct_hash),
            (want_trace, want_fct),
            "{name} seed {seed}: telemetry perturbed the goldens \
             (got trace={trace_hash:#018x} fct={fct_hash:#018x})"
        );
    }
}

/// A telemetered run's summary JSON (series analyses + histogram dumps),
/// which is what `pptlab report` prints per scheme.
fn summary_json(scheme: Scheme, seed: u64) -> String {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    let exp = Experiment::new(topo, scheme, flows)
        .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(10)));
    let outcome = run_experiment(&exp);
    outcome.telemetry.as_ref().expect("telemetry summary present").to_json(false)
}

/// The report JSON is itself deterministic: byte-identical when the same
/// point reruns, and byte-identical between `jobs = 1` and `jobs = 4` —
/// the property `pptlab report` relies on and `scripts/check.sh` smoke-
/// checks end to end.
#[test]
fn report_json_identical_across_reruns_and_job_counts() {
    use ppt::sweep::run_points;
    const POINTS: [(Scheme, u64); 3] = [(Scheme::Ppt, 42), (Scheme::Dctcp, 42), (Scheme::Ndp, 7)];
    let batch = |jobs: usize| {
        run_points(POINTS.len(), jobs, |i| summary_json(POINTS[i].0.clone(), POINTS[i].1))
    };
    let serial = batch(1);
    let rerun = batch(1);
    let parallel = batch(4);
    assert_eq!(serial, rerun, "report JSON diverged between reruns");
    assert_eq!(serial, parallel, "report JSON diverged between jobs=1 and jobs=4");
    for (i, json) in serial.iter().enumerate() {
        assert!(json.contains("\"series\""), "point {i}: summary lost its series block");
        assert!(json.contains("\"fct_ns\""), "point {i}: summary lost its FCT histogram");
    }
}

/// Raw sampled series + histograms (the `<id>.telemetry.jsonl` stream)
/// for one telemetered run.
fn raw_dump(scheme: Scheme, seed: u64, prof: bool) -> String {
    use ppt::harness::run_experiment_with;
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    let exp = Experiment::new(topo, scheme, flows);
    let outcome = run_experiment_with(&exp, |t| {
        let mut cfg = TelemetryConfig::new(SimDuration::from_micros(10));
        if prof {
            cfg = cfg.with_prof();
        }
        t.sim.enable_telemetry(cfg);
    });
    let mut out = String::new();
    // Never include profile rows: they are wall-clock and the one part of
    // telemetry that is *expected* to differ between runs (DESIGN.md §14.3).
    outcome.sim.telemetry().expect("telemetry enabled").dump_events(&mut out, false);
    out
}

/// The raw sample stream is byte-identical across reruns, and enabling
/// the wall-clock profiler changes none of it — profiling observes the
/// dispatch loop from outside the simulation and cannot leak into
/// sampled state.
#[test]
fn sampled_series_byte_identical_and_prof_invisible() {
    let plain_a = raw_dump(Scheme::Dctcp, 42, false);
    let plain_b = raw_dump(Scheme::Dctcp, 42, false);
    let profiled = raw_dump(Scheme::Dctcp, 42, true);
    assert!(!plain_a.is_empty(), "dump produced no sample rows");
    assert!(plain_a.contains("\"sample\""), "dump missing sample events");
    assert_eq!(plain_a, plain_b, "sample stream diverged between reruns");
    assert_eq!(plain_a, profiled, "profiler perturbed the sampled series");
}

/// With `dump_dir` set, an abnormal stop routes the flight-recorder ring
/// to its own file instead of interleaving on stderr — also for schemes
/// whose display name ("PPT w/o EWD") is not a usable file name.
#[test]
fn abnormal_stop_dump_routes_to_dump_dir() {
    for (case, scheme) in [Scheme::Ppt, Scheme::PptNoEwd].into_iter().enumerate() {
        let name = scheme.name();
        let dir = std::env::temp_dir().join(format!("ppt-dump-test-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dump dir");

        let topo = TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 20 };
        let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.3, topo.edge_rate(), 20, 42);
        let flows = all_to_all(topo.hosts(), &spec);
        let mut exp = Experiment::new(topo, scheme, flows);
        exp.dump_dir = Some(dir.clone());
        // Cut the run mid-flight: the first websearch arrival in this
        // scenario is at ~9.7 ms and the full run ends at ~54 ms, so 20 ms
        // guarantees recorded events AND unfinished flows.
        exp.max_time = SimTime(20_000_000);
        let outcome = run_experiment(&exp);
        assert!(outcome.report.is_abnormal(), "{name}: scenario must stop abnormally");

        let dumps: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dump dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(dumps.len(), 1, "{name}: want exactly one dump file, found {dumps:?}");
        let file = &dumps[0];
        assert!(file.starts_with("ppt-dump-") && file.ends_with(".jsonl"), "{name}: {file}");
        assert!(
            file.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
            "{name}: dump file name '{file}' is not shell- and path-safe"
        );
        let body = std::fs::read_to_string(dir.join(file)).expect("read dump file");
        assert!(!body.is_empty(), "{name}: dump file is empty");
        assert!(body.lines().all(|l| l.starts_with('{')), "{name}: dump file is not JSONL");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `TelemetrySummary` round-trips through `from_telemetry` with the
/// interval and sample count intact, analyzes every series, and says how
/// many samples each ring dropped before the analysis saw it.
#[test]
fn summary_reflects_sampler_state() {
    use ppt::harness::run_experiment_with;
    let topo = TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.3, topo.edge_rate(), 20, 42);
    let flows = all_to_all(topo.hosts(), &spec);
    let exp = Experiment::new(topo, Scheme::Dctcp, flows);
    // A ring far shorter than the run, so every series evicts.
    let ring = 64;
    let outcome = run_experiment_with(&exp, |t| {
        let cfg = TelemetryConfig::new(SimDuration::from_micros(10)).with_series_capacity(ring);
        t.sim.enable_telemetry(cfg);
    });
    let t = outcome.sim.telemetry().expect("telemetry enabled");
    let summary = TelemetrySummary::from_telemetry(t);
    assert_eq!(summary.interval, SimDuration::from_micros(10));
    assert_eq!(summary.samples, t.samples_taken());
    assert!(summary.samples > 0);
    assert_eq!(summary.series.len(), t.series().len());
    let json = summary.to_json(false);
    for (a, s) in summary.series.iter().zip(t.series()) {
        assert_eq!((a.points, a.evicted), (ring, s.evicted()), "{}", a.name);
        assert_eq!(a.points as u64 + a.evicted, summary.samples, "{}: one point a tick", a.name);
        let fields = format!("\"name\":\"{}\",\"points\":{ring},\"evicted\":{}", a.name, a.evicted);
        assert!(json.contains(&fields), "{}: report JSON hides the truncation", a.name);
    }
    assert_eq!(summary.fct_ns.count(), outcome.fct.records().len() as u64);
    assert!(summary.prof.is_none(), "prof must stay off unless requested");
}

/// A TCP-family flow keeps one live RTO timer and moves it (DESIGN.md
/// §10.1): without loss, the timers that dispatch are one re-sleep per
/// `min_rto` of a flow's lifetime plus the last one, which finds the flow
/// finished — not one per ACK, as when every pump scheduled its own.
#[test]
fn rto_timer_dispatches_follow_flow_lifetime_not_acks() {
    use ppt::harness::run_experiment_with;
    use ppt::trace::ProfKind;
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.3, topo.edge_rate(), 40, 42);
    let exp = Experiment::new(topo, Scheme::Dctcp, all_to_all(topo.hosts(), &spec));
    let min_rto = exp.env.min_rto.as_nanos();
    let outcome = run_experiment_with(&exp, |t| {
        t.sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_micros(100)).with_prof());
    });
    assert_eq!(outcome.completion_ratio, 1.0);
    assert_eq!(outcome.counters.dropped, 0, "the bound below is for a loss-free run");
    let prof = outcome.sim.telemetry().and_then(|t| t.prof_breakdown()).expect("profiler on");
    let count = |kind| prof.iter().find(|r| r.0 == kind).map_or(0, |r| r.1);
    // DCTCP arms no other timer, so every Timer dispatch is an RTO timer.
    // A timeout re-arms once more; count every retransmission as one.
    let lifetimes = outcome.fct.records().iter().map(|r| 1 + r.fct.as_nanos().div_ceil(min_rto));
    let bound = lifetimes.sum::<u64>() + outcome.report.faults.retransmits;
    let timers = count(ProfKind::Timer);
    assert!(timers > 0 && timers <= bound, "{timers} RTO timer dispatches, bound {bound}");
    assert!(timers * 20 < count(ProfKind::Deliver), "{timers} timers: back to one per ACK?");
}
