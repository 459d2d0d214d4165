//! Telemetry determinism contract (DESIGN.md §14): the sampler reads
//! state and never mutates it, so telemetered runs must reproduce the
//! pinned goldens byte-for-byte, and the sampled series / histograms /
//! report JSON must themselves be byte-identical across reruns and
//! worker counts.

use ppt::core::PptKnobs;
use ppt::harness::{
    run_experiment, run_experiment_traced, Experiment, Scheme, TelemetrySpec, TelemetrySummary,
    TopoKind,
};
use ppt::netsim::{SanLevel, SimDuration, SimTime, StopReason, TelemetryConfig};
use ppt::stats::analyze_all;
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
        (Scheme::Ndp, 7, 0x7acd_8402_dead_c899, 0xb3aa_baec_50cc_3ebd),
        (Scheme::Homa, 7, 0xc53b_7f40_97a1_92b5, 0x3dc3_da6d_a116_c414),
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
/// which is what `pptlab report` prints per scheme: the analysis is made
/// from the run's series, as `report` makes it.
fn summary_json(scheme: Scheme, seed: u64) -> String {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    let exp = Experiment::new(topo, scheme, flows)
        .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(10)));
    let outcome = run_experiment(&exp);
    let series = analyze_all(outcome.sim.telemetry().expect("telemetry enabled").series());
    outcome.telemetry.as_ref().expect("telemetry summary present").to_json(&series, false)
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
    let mut out = Vec::new();
    // Never include profile rows: they are wall-clock and the one part of
    // telemetry that is *expected* to differ between runs (DESIGN.md §14.3).
    outcome.sim.telemetry().expect("telemetry enabled").dump_events(&mut out, false);
    String::from_utf8(out).expect("the encoder writes ASCII")
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

/// The scenario of the abnormal-stop tests: three hosts, twenty Web
/// Search flows (the first arrives at ~9.7 ms, the run ends at ~54 ms).
fn dump_exp(scheme: Scheme, dir: &std::path::Path) -> Experiment {
    let topo = TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.3, topo.edge_rate(), 20, 42);
    let mut exp = Experiment::new(topo, scheme, all_to_all(topo.hosts(), &spec));
    exp.dump_dir = Some(dir.to_path_buf());
    exp
}

/// A fresh directory for one abnormal run's dump.
fn dump_dir(case: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppt-dump-test-{}-{case}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
}

/// The one dump file an abnormal run left in `dir`: its name and bytes.
fn only_dump(dir: &std::path::Path, name: &str) -> (String, String) {
    let dumps: Vec<String> = std::fs::read_dir(dir)
        .expect("read dump dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(dumps.len(), 1, "{name}: want exactly one dump file, found {dumps:?}");
    let body = std::fs::read_to_string(dir.join(&dumps[0])).expect("read dump file");
    std::fs::remove_dir_all(dir).ok();
    (dumps[0].clone(), body)
}

/// With `dump_dir` set, an abnormal stop routes the flight-recorder ring
/// to its own file instead of interleaving on stderr — also for schemes
/// whose display name ("PPT w/o EWD") is not a usable file name. The ring
/// is filled by a replay of the run (DESIGN.md §9): its bytes must be the
/// ones the recorder wrote when it rode along with every run — the hashes
/// were taken at the last commit that did that.
#[test]
fn abnormal_stop_dump_routes_to_dump_dir() {
    let no_ewd = Scheme::Lcp(PptKnobs { ewd: false, ..PptKnobs::PAPER });
    let cases = [(Scheme::Ppt, 0x2893_b740_874f_513b_u64), (no_ewd, 0xda9f_5522_8880_8532)];
    for (case, (scheme, want)) in cases.into_iter().enumerate() {
        let name = scheme.name();
        let dir = dump_dir(&format!("max-time-{case}"));
        let mut exp = dump_exp(scheme, &dir);
        // Cut the run mid-flight: 20 ms guarantees recorded events AND
        // unfinished flows.
        exp.max_time = SimTime(20_000_000);
        let outcome = run_experiment(&exp);
        assert!(outcome.report.is_abnormal(), "{name}: scenario must stop abnormally");
        assert!(!outcome.sim.trace_enabled(), "{name}: the recorder lives in the replay only");

        let (file, body) = only_dump(&dir, &name);
        assert!(file.starts_with("ppt-dump-") && file.ends_with(".jsonl"), "{name}: {file}");
        assert!(
            file.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
            "{name}: dump file name '{file}' is not shell- and path-safe"
        );
        assert!(!body.is_empty(), "{name}: dump file is empty");
        assert!(body.lines().all(|l| l.starts_with('{')), "{name}: dump file is not JSONL");
        assert_eq!(fnv1a64(body.as_bytes()), want, "{name}: the replayed tail moved");
    }
}

/// A run cut by its event budget replays to the same 256 lines the
/// always-on recorder printed to stderr for it (hash taken at that
/// commit; the file and stderr get the same text).
#[test]
fn max_events_stop_replays_to_the_recorded_tail() {
    let dir = dump_dir("max-events");
    let mut exp = dump_exp(Scheme::Dctcp, &dir);
    exp.max_events = 5_000;
    let outcome = run_experiment(&exp);
    assert_eq!(outcome.report.stop, StopReason::MaxEvents);
    assert_eq!(outcome.report.events, 5_000);
    let (_, body) = only_dump(&dir, "DCTCP");
    assert_eq!(body.lines().count(), 256);
    assert_eq!(fnv1a64(body.as_bytes()), 0x7aef_aea7_060b_bcb4, "the replayed tail moved");
}

/// A sanitizer stop replays to the same violation: the hook corrupts the
/// event queue before the run, the per-event audit stops it at once, and
/// the dump — written by the second pass, which `pre_run` corrupted the
/// same way — ends in the violation the first pass reported.
#[test]
fn san_violation_stop_replays_to_the_same_violation() {
    use ppt::harness::run_experiment_with;
    let dir = dump_dir("san");
    let exp = dump_exp(Scheme::Ppt, &dir);
    let outcome = run_experiment_with(&exp, |t| {
        t.sim.set_sanitizer(SanLevel::PerEvent);
        t.sim.corrupt_tie_break();
    });
    assert_eq!(outcome.report.stop, StopReason::SanViolation);
    let v = outcome.sim.san_violations().last().expect("a violation was recorded");
    let (_, body) = only_dump(&dir, "PPT");
    let want = format!(
        "\"ev\":\"san_violation\",\"check\":\"{}\",\"subject\":{},\"expected\":{},\"actual\":{}}}",
        v.check.as_str(),
        v.subject,
        v.expected,
        v.actual
    );
    let last = body.lines().last().expect("dump has lines");
    assert!(last.ends_with(&want), "dump ends in {last}, first pass saw {want}");
}

/// A run that ends normally is run once, without a sink: nothing is
/// recorded, so transports see `Ctx::tracing() == false`.
#[test]
fn a_normal_run_carries_no_recorder() {
    let dir = dump_dir("normal");
    let outcome = run_experiment(&dump_exp(Scheme::Ppt, &dir));
    assert!(!outcome.report.is_abnormal());
    assert!(!outcome.sim.trace_enabled(), "no sink was installed");
    assert_eq!(std::fs::read_dir(&dir).expect("read dump dir").count(), 0, "and nothing dumped");
    std::fs::remove_dir_all(&dir).ok();
}

/// `TelemetrySummary` round-trips through `from_telemetry` with the
/// interval and sample count intact, and its JSON, given the analysis of
/// every series, says how many samples each ring dropped before the
/// analysis saw it.
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
    let series = analyze_all(t.series());
    assert_eq!(series.len(), t.series().len());
    let json = summary.to_json(&series, false);
    for (a, s) in series.iter().zip(t.series()) {
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
