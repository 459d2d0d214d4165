//! The traced pass: per-layer metrics of one workload.
//!
//! Three kinds of reading, none of which feeds an end-to-end metric:
//!
//! 1. *Stage spans* — a few repetitions re-issued through
//!    [`crate::stages::run_staged`] with spans on and the profiler off;
//!    each stage reports the median over those repetitions.
//! 2. *Inside `run`* — one more repetition with the engine's public
//!    self-profiler on. Its per-kind times are checked against the span
//!    around `run` (`prof_coverage`), and its `run` span over the
//!    unprofiled median is the cost of profiling (`trace_overhead_ratio`).
//! 3. *Exact counts* of the simulated run.
//!
//! A last repetition goes through the real front door, to check that the
//! re-issued stages simulate exactly what the door does.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ppt::netsim::{SimDuration, StopReason};
use ppt::trace::ProfKind;

use crate::kernels;
use crate::measure::{check_repetitions, door_rep, Rep, Tally};
use crate::metrics::{median, PER_LAYER};
use crate::stages::{names, run_staged, Fnv, Observers, Recorder, Staged};
use crate::workload::{Door, Scale, Workload, OBSERVED_TELEMETRY_US};

/// The profiler rides on the telemetry sampler; where the workload does
/// not sample on its own, tick coarsely so sampling does not distort the
/// profile it carries.
const PROF_SAMPLER_INTERVAL: SimDuration = SimDuration(1_000_000);

/// An experiment span may spend this share of itself outside its stage
/// spans before the decomposition counts as incomplete.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.02;
/// Spans shorter than this are all timer noise; the share is not checked.
const MIN_CHECKED_SPAN_MS: f64 = 50.0;

pub struct PerLayerResult {
    /// One value per [`PER_LAYER`] entry, in table order.
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub problems: Vec<String>,
    pub spans: Recorder,
}

impl PerLayerResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Metric values by name, as they are measured.
type Values = BTreeMap<String, f64>;

/// Digest of a repetition: the experiment's own FCT digest, or a hash of
/// all of them when the repetition has several.
fn rep_digest(runs: &[Staged]) -> u64 {
    match runs {
        [one] => one.digest,
        many => {
            let mut h = Fnv::new();
            for r in many {
                h.u64(r.digest);
            }
            h.finish()
        }
    }
}

fn staged_rep(
    w: &Workload,
    seed: u64,
    scale: Scale,
    obs: Observers,
    rec: &mut Recorder,
    rep: u32,
) -> Vec<Staged> {
    let root = rec.open(names::REPETITION, None, rep);
    let exps = rec.time(names::GENERATE, root, rep, || w.generate(seed, scale));
    let runs = exps.iter().map(|exp| run_staged(exp, obs, rec, root, rep)).collect();
    rec.close(root);
    runs
}

/// Stage spans of repetitions `0..reps`: the median per stage, the
/// harness's self time, and the check that the stages account for it.
fn stage_metrics(rec: &Recorder, reps: u32, values: &mut Values, problems: &mut Vec<String>) {
    let median_over_reps =
        |per_rep: &dyn Fn(u32) -> f64| median(&(0..reps).map(per_rep).collect::<Vec<_>>());
    for (metric, span) in [
        ("workloads.generate_ms", names::GENERATE),
        ("netsim.topology.build_ms", names::BUILD),
        ("transports.install_ms", names::INSTALL),
        ("workloads.install_flows_ms", names::INSTALL_FLOWS),
        ("netsim.engine.run_ms", names::RUN),
        ("stats.fct.collect_ms", names::COLLECT),
        ("stats.telemetry.summarize_ms", names::SUMMARIZE),
        ("trace.sink_copy_ms", names::SINK_COPY),
        ("trace.encode_ms", names::ENCODE),
        ("stats.lcp.analyze_ms", names::ANALYZE),
    ] {
        values.insert(metric.into(), median_over_reps(&|r| rec.sum_ms(span, r)));
    }
    let experiments: Vec<usize> =
        (0..rec.spans.len()).filter(|&i| rec.spans[i].name == names::EXPERIMENT).collect();
    let self_ms = median_over_reps(&|r| {
        experiments.iter().filter(|&&i| rec.spans[i].rep == r).map(|&i| rec.self_ms(i)).sum()
    });
    values.insert("ppt.harness.self_ms".into(), self_ms);
    for &i in &experiments {
        let span = &rec.spans[i];
        let unattributed = rec.self_ms(i) / span.ms().max(f64::MIN_POSITIVE);
        if span.ms() >= MIN_CHECKED_SPAN_MS && unattributed > MAX_UNATTRIBUTED_SHARE {
            problems.push(format!(
                "rep {}: stage spans leave {:.1}% of a {:.1} ms experiment span unattributed",
                span.rep,
                unattributed * 100.0,
                span.ms()
            ));
        }
    }
}

/// The engine's per-event-kind profile of one repetition, against the
/// `run` span of that repetition and the unprofiled median.
fn profile_metrics(
    profiled: &[Staged],
    run_ms_profiled: f64,
    run_ms_plain: f64,
    values: &mut Values,
    problems: &mut Vec<String>,
) {
    // kind → (count, total ns), summed over the repetition's experiments.
    let mut rows: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for run in profiled {
        let Some(table) = run.prof else {
            problems.push("profiled run exposed no breakdown".into());
            continue;
        };
        for (kind, count, ns) in table {
            let row = rows.entry(kind.as_str()).or_default();
            row.0 += count;
            row.1 += ns;
        }
    }
    let row = |kind: ProfKind| rows.get(kind.as_str()).copied().unwrap_or((0, 0));
    for kind in [
        ProfKind::Deliver,
        ProfKind::TxDone,
        ProfKind::Timer,
        ProfKind::FlowStart,
        ProfKind::Sample,
    ] {
        let (label, (count, ns)) = (kind.as_str(), row(kind));
        values.insert(format!("netsim.engine.{label}_count"), count as f64);
        values.insert(
            format!("netsim.engine.{label}_ns_per_ev"),
            if count == 0 { 0.0 } else { ns as f64 / count as f64 },
        );
    }
    let profiled_ns: u64 = rows.values().map(|(_, ns)| ns).sum();
    // Sampler ticks exist only because the profiler needs telemetry on.
    let dispatched = rows.values().map(|(count, _)| count).sum::<u64>() - row(ProfKind::Sample).0;
    values
        .insert("netsim.engine.prof_coverage".into(), profiled_ns as f64 / (run_ms_profiled * 1e6));
    values.insert("netsim.engine.trace_overhead_ratio".into(), run_ms_profiled / run_ms_plain);
    values.insert(
        "netsim.engine.timer_event_share".into(),
        row(ProfKind::Timer).0 as f64 / dispatched.max(1) as f64,
    );
}

/// Exact counts of one unprofiled repetition, summed over its experiments.
fn count_metrics(runs: &[Staged], run_ms_plain: f64, values: &mut Values) {
    let sum = |f: &dyn Fn(&Staged) -> u64| -> f64 { runs.iter().map(f).sum::<u64>() as f64 };
    // Over several experiments (cli_sweep), the mean of the per-point
    // figures that have flows in the bin.
    let mean = |f: &dyn Fn(&Staged) -> f64| -> f64 {
        let finite: Vec<f64> = runs.iter().map(f).filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            0.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    };
    // Sampler ticks are not simulation: without them the count is also the
    // same for every `--seed` (the idle prefix before the first flow takes
    // a seed-dependent number of ticks).
    let events = sum(&|r| r.report.events - r.samples);
    let offered_mb = sum(&|r| r.offered_bytes) / 1e6;
    let pool_inserts = sum(&|r| r.pool.fresh + r.pool.recycled);
    let flows = sum(&|r| r.report.flows_total as u64);
    let mut put = |name: &str, v: f64| values.insert(name.into(), v);
    put("netsim.engine.events", events);
    put("netsim.engine.ns_per_event", run_ms_plain * 1e6 / events.max(1.0));
    put("netsim.engine.events_per_mb", events / offered_mb.max(f64::MIN_POSITIVE));
    put(
        "netsim.engine.pool_peak_pkts",
        runs.iter().map(|r| r.pool.fresh).max().unwrap_or(0) as f64,
    );
    put("netsim.engine.pool_hit_rate", sum(&|r| r.pool.recycled) / pool_inserts.max(1.0));
    put("netsim.switch.enqueued", sum(&|r| r.counters.enqueued));
    put("netsim.switch.marked", sum(&|r| r.counters.marked));
    put("netsim.switch.dropped", sum(&|r| r.counters.dropped));
    put("netsim.switch.trimmed", sum(&|r| r.counters.trimmed));
    put("netsim.switch.evicted", sum(&|r| r.counters.evicted));
    put("transports.tx_packets", sum(&|r| r.tx_packets));
    put("transports.retransmits", sum(&|r| r.retransmits));
    put("transports.completion_ratio", sum(&|r| r.report.flows_completed as u64) / flows.max(1.0));
    put("transports.fct_avg_us", mean(&|r| r.fct.overall_avg_us));
    put("transports.fct_small_p99_us", mean(&|r| r.fct.small_p99_us));
    put("transports.fct_large_avg_us", mean(&|r| r.fct.large_avg_us));
    put("trace.events_emitted", sum(&|r| r.trace.map_or(0, |t| t.events)));
    put("trace.jsonl_mb", sum(&|r| r.trace.map_or(0, |t| t.jsonl_bytes)) / 1e6);
    put("netsim.telemetry.samples", sum(&|r| r.samples));
}

/// One staged repetition as the shared output checks see it.
fn tally(runs: &[Staged], problems: &mut Vec<String>) -> Tally {
    let violations: usize = runs.iter().map(|r| r.san_violations).sum();
    if violations > 0 {
        problems.push(format!("simsan reported {violations} violations"));
    }
    Tally {
        flows_total: runs.iter().map(|r| r.report.flows_total as u64).sum(),
        flows_completed: runs.iter().map(|r| r.report.flows_completed as u64).sum(),
        clean_stop: runs.iter().all(|r| r.report.stop == StopReason::AllFlowsDone),
        digest: rep_digest(runs),
        jsonl_hash: runs[0].trace.map(|t| t.jsonl_hash),
    }
}

/// One repetition through the real front door: does it simulate what the
/// re-issued stages did? For `cli_sweep`, also prices the CLI around the
/// library (`pptlab.cli_overhead_ms`).
fn door_check(
    w: &Workload,
    seed: u64,
    scale: Scale,
    pptlab: &Path,
    staged: &[Staged],
    values: &mut Values,
    problems: &mut Vec<String>,
) -> Result<Rep, String> {
    let door = door_rep(w, seed, scale, Some(pptlab))?;
    problems.extend(door.problems.iter().map(|p| format!("door: {p}")));
    let mut cli_overhead_ms = 0.0;
    if w.door == Door::Cli {
        let agree = door.cli_fct_avg_us.len() == staged.len()
            && door.cli_fct_avg_us.iter().zip(staged).all(|(cli, run)| {
                let lib = run.fct.overall_avg_us;
                (cli - lib).abs() <= 1e-9 * lib.abs().max(1.0)
            });
        if !agree {
            problems.push("pptlab's per-point FCTs differ from the re-issued stages".into());
        }
        // The same grid through the library, alternating with the CLI:
        // the median of within-round differences, because a difference of
        // two readings taken minutes apart on this box can come out
        // negative.
        let rounds = if scale == Scale::Smoke { 1 } else { 3 };
        let mut differences = Vec::new();
        let mut cli_wall_s = door.wall_s;
        for round in 0..rounds {
            if round > 0 {
                cli_wall_s = door_rep(w, seed, scale, Some(pptlab))?.wall_s;
            }
            let t0 = Instant::now();
            for point in w.sweep_spec(seed, scale).jobs(1).run() {
                std::hint::black_box(point.fct.summary());
            }
            differences.push((cli_wall_s - t0.elapsed().as_secs_f64()) * 1e3);
        }
        cli_overhead_ms = median(&differences);
    } else if door.tally.digest != rep_digest(staged) {
        problems.push(format!(
            "re-issued stages digest {:016x} != front door {:016x}",
            rep_digest(staged),
            door.tally.digest
        ));
    }
    values.insert("pptlab.cli_overhead_ms".into(), cli_overhead_ms);
    Ok(door)
}

/// Measure `w` layer by layer. `kernel_values` are the readings of
/// [`kernels::run_all`], which do not depend on the workload and are
/// merged in so every run reports every per-layer metric.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    scale: Scale,
    pptlab: &Path,
    kernel_values: &[(String, f64)],
) -> Result<PerLayerResult, String> {
    let staged_reps: u32 = if scale == Scale::Smoke { 1 } else { 3 };
    let base = match w.door {
        Door::Observed => Observers {
            sanitize: true,
            capture: true,
            telemetry: Some(SimDuration::from_micros(OBSERVED_TELEMETRY_US)),
            prof: false,
        },
        _ => Observers::default(),
    };
    let mut rec = Recorder::new();
    let mut problems: Vec<String> = Vec::new();
    let mut values = Values::new();

    let reps: Vec<Vec<Staged>> =
        (0..staged_reps).map(|r| staged_rep(w, seed, scale, base, &mut rec, r)).collect();
    stage_metrics(&rec, staged_reps, &mut values, &mut problems);
    let run_ms_plain = values["netsim.engine.run_ms"];

    let profiler = Observers {
        telemetry: Some(base.telemetry.unwrap_or(PROF_SAMPLER_INTERVAL)),
        prof: true,
        ..base
    };
    let profiled = staged_rep(w, seed, scale, profiler, &mut rec, staged_reps);
    let run_ms_profiled = rec.sum_ms(names::RUN, staged_reps);
    profile_metrics(&profiled, run_ms_profiled, run_ms_plain, &mut values, &mut problems);

    count_metrics(&reps[0], run_ms_plain, &mut values);

    // Every repetition, staged, profiled or through the door, must have
    // simulated the same thing (the door is compared in `door_check`).
    let tallies: Vec<Tally> =
        reps.iter().chain([&profiled]).map(|runs| tally(runs, &mut problems)).collect();
    let (mut attempted, mut failed) = check_repetitions(&tallies, &mut problems);
    let door = door_check(w, seed, scale, pptlab, &reps[0], &mut values, &mut problems)?;
    attempted += door.tally.flows_total;
    failed += door.tally.flows_total - door.tally.flows_completed;

    let spawns = if scale == Scale::Smoke { 1 } else { 5 };
    values.insert("pptlab.startup_ms".into(), kernels::pptlab_startup_ms(pptlab, spawns)?);

    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let v = values
            .get(m.name)
            .or_else(|| kernel_values.iter().find(|(n, _)| n == m.name).map(|(_, v)| v))
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        // `+ 0.0` turns the -0 of an empty `sum()` into 0.
        ordered.push((m.name, if v.is_finite() { v + 0.0 } else { 0.0 }));
    }
    // The door's digest: the FCT digest checked above or, for `cli_sweep`,
    // the hash of the CLI's output — as in the untraced pass.
    Ok(PerLayerResult {
        values: ordered,
        attempted,
        failed,
        digest: door.tally.digest,
        problems,
        spans: rec,
    })
}
