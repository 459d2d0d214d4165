//! The untraced pass: timed repetitions through each workload's front
//! door, the set-up measurement, and the output checks.
//!
//! One repetition is the whole experiment as a user runs it: generate the
//! flows, run, summarise the FCTs (for `cli_sweep`, spawn → exit of
//! `pptlab`). Every repetition is bracketed by two runs of the reference
//! computation and reported in reference seconds (see [`crate::calib`]);
//! timings are medians over the repetitions that fit in `--seconds`.
//! Nothing here is traced or profiled.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use ppt::harness::{run_experiment, run_experiment_traced_with, Outcome};
use ppt::netsim::{SanLevel, StopReason};
use ppt::stats::analyze_lcp;

use crate::calib::{self, reference_seconds, Calibration};
use crate::json::Json;
use crate::metrics::{median, Stat};
use crate::procfs;
use crate::stages::{construct, fct_digest, hash_bytes, Recorder};
use crate::workload::{Door, Scale, Workload};

/// Fewest timed repetitions a median is taken over.
pub const MIN_REPS: usize = 3;

/// Set-up is measured in blocks of back-to-back constructions, each block
/// bracketed by calibrations like a repetition.
const SETUP_BLOCKS: usize = 3;
const SETUP_PER_BLOCK: usize = 21;

/// How long to run: until a time budget is spent, or a fixed count.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Reps(usize),
}

/// What the output checks need to know about one repetition, whichever
/// pass ran it.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    pub flows_total: u64,
    pub flows_completed: u64,
    /// Every run of the repetition ended with `AllFlowsDone`.
    pub clean_stop: bool,
    /// FCT digest (in-process) or hash of the CLI's output.
    pub digest: u64,
    /// Hash of the encoded event stream (`observed_ppt` only).
    pub jsonl_hash: Option<u64>,
}

impl Tally {
    fn of(outcome: &Outcome, jsonl_hash: Option<u64>) -> Tally {
        Tally {
            flows_total: outcome.report.flows_total as u64,
            flows_completed: outcome.report.flows_completed as u64,
            clean_stop: outcome.report.stop == StopReason::AllFlowsDone,
            digest: fct_digest(&outcome.sim),
            jsonl_hash,
        }
    }
}

/// The output checks every repetition of either pass must meet; returns
/// `(attempted, failed)` flows. Non-determinism is a failure, not noise:
/// a repetition whose digest differs from repetition 0 fails all of its
/// flows, as does one that did not end with `AllFlowsDone`.
pub fn check_repetitions(reps: &[Tally], problems: &mut Vec<String>) -> (u64, u64) {
    let first = reps[0];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.flows_total;
        let same = rep.digest == first.digest && rep.jsonl_hash == first.jsonl_hash;
        if !same {
            problems.push(format!(
                "rep {i}: digest {:016x} (events {:016x?}) differs from rep 0 {:016x} ({:016x?})",
                rep.digest, rep.jsonl_hash, first.digest, first.jsonl_hash
            ));
        }
        if !rep.clean_stop {
            problems.push(format!("rep {i}: a run did not end with AllFlowsDone"));
        }
        if rep.flows_completed < rep.flows_total {
            problems.push(format!(
                "rep {i}: {} of {} flows completed",
                rep.flows_completed, rep.flows_total
            ));
        }
        failed += if same && rep.clean_stop {
            rep.flows_total - rep.flows_completed
        } else {
            rep.flows_total
        };
    }
    (attempted, failed)
}

/// What one repetition through a front door produced.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak RSS while the repetition ran: this process's `VmHWM` (reset
    /// just before) for in-process doors, the polled child's for the CLI.
    pub peak_rss_mb: f64,
    pub tally: Tally,
    /// Per-point `overall_avg_us` as printed by `pptlab` (`cli_sweep`).
    pub cli_fct_avg_us: Vec<f64>,
    pub problems: Vec<String>,
}

/// Where the `pptlab` binary is: `PPTBENCH_PPTLAB`, else next to this
/// executable (one `cargo` target directory holds both).
pub fn locate_pptlab() -> Result<PathBuf, String> {
    if let Some(p) = std::env::var_os("PPTBENCH_PPTLAB") {
        let p = PathBuf::from(p);
        return if p.is_file() { Ok(p) } else { Err(format!("{} is not a file", p.display())) };
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // target/<profile>/pptbench, or target/<profile>/deps/pptbench-<hash>
    // under `cargo test`.
    for dir in exe.ancestors().skip(1).take(2) {
        let candidate = dir.join("pptlab");
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err("pptlab binary not found: build it (`cargo build --release -p pptlab`) into the same \
         target directory, or set PPTBENCH_PPTLAB"
        .into())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = procfs::self_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, procfs::self_cpu_s() - cpu0)
}

fn rep_plain(w: &Workload, seed: u64, scale: Scale) -> Rep {
    let (outcome, wall_s, cpu_s) = timed(|| {
        let exps = w.generate(seed, scale);
        let outcome = run_experiment(&exps[0]);
        std::hint::black_box(outcome.fct.summary());
        outcome
    });
    Rep {
        wall_s,
        cpu_s,
        peak_rss_mb: procfs::self_peak_rss_mb(),
        tally: Tally::of(&outcome, None),
        cli_fct_avg_us: Vec::new(),
        problems: Vec::new(),
    }
}

fn rep_observed(w: &Workload, seed: u64, scale: Scale) -> Rep {
    let ((outcome, jsonl), wall_s, cpu_s) = timed(|| {
        let exps = w.generate(seed, scale);
        let exp = &exps[0];
        let (outcome, trace) =
            run_experiment_traced_with(exp, |t| t.sim.set_sanitizer(SanLevel::PerEpoch));
        let jsonl = trace.to_jsonl();
        std::hint::black_box(analyze_lcp(&trace.events, exp.topo.base_rtt()));
        std::hint::black_box(outcome.fct.summary());
        (outcome, jsonl)
    });
    let peak_rss_mb = procfs::self_peak_rss_mb();
    let mut problems = Vec::new();
    if !outcome.sim.san_violations().is_empty() {
        problems.push(format!("simsan: {} violations", outcome.sim.san_violations().len()));
    }
    if outcome.telemetry.as_ref().map_or(0, |t| t.samples) == 0 {
        problems.push("telemetry took no samples".into());
    }
    if jsonl.is_empty() {
        problems.push("no events captured".into());
    }
    Rep {
        wall_s,
        cpu_s,
        peak_rss_mb,
        tally: Tally::of(&outcome, Some(hash_bytes(jsonl.as_bytes()))),
        cli_fct_avg_us: Vec::new(),
        problems,
    }
}

fn rep_cli(w: &Workload, seed: u64, scale: Scale, pptlab: &Path) -> Result<Rep, String> {
    let mut cmd = Command::new(pptlab);
    cmd.args(w.cli_args(seed, scale));
    let run = procfs::run_child(cmd).map_err(|e| format!("spawn {}: {e}", pptlab.display()))?;
    let mut problems = Vec::new();
    if !run.status.success() {
        problems.push(format!("pptlab exited with {}", run.status));
    }
    // One JSON line per grid point; a point completes all of its flows or
    // counts as failed in full (the CLI prints a ratio, not a stop reason).
    let per_point = w.flows(scale) as u64;
    let text = String::from_utf8_lossy(&run.stdout);
    let mut completed = 0u64;
    let mut points = 0u64;
    let mut fct = Vec::new();
    for line in text.lines() {
        points += 1;
        match Json::parse(line) {
            Ok(doc) => {
                if doc.get("completion_ratio").and_then(Json::as_f64) == Some(1.0) {
                    completed += per_point;
                } else {
                    problems.push(format!("point {points}: completion_ratio is not 1: {line}"));
                }
                fct.push(doc.get("overall_avg_us").and_then(Json::as_f64).unwrap_or(f64::NAN));
            }
            Err(e) => problems.push(format!("point {points}: {e}")),
        }
    }
    let expected = w.flows_per_rep(scale) as u64;
    if points * per_point != expected {
        problems.push(format!("pptlab printed {points} points, expected {}", expected / per_point));
    }
    Ok(Rep {
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        peak_rss_mb: run.peak_rss_mb,
        tally: Tally {
            flows_total: expected,
            flows_completed: completed.min(expected),
            clean_stop: run.status.success(),
            digest: hash_bytes(&run.stdout),
            jsonl_hash: None,
        },
        cli_fct_avg_us: fct,
        problems,
    })
}

/// One repetition of `w` through its front door.
pub fn door_rep(
    w: &Workload,
    seed: u64,
    scale: Scale,
    pptlab: Option<&Path>,
) -> Result<Rep, String> {
    match w.door {
        Door::Plain => Ok(rep_plain(w, seed, scale)),
        Door::Observed => Ok(rep_observed(w, seed, scale)),
        Door::Cli => rep_cli(w, seed, scale, pptlab.ok_or("cli_sweep needs the pptlab binary")?),
    }
}

/// Seconds from nothing to "ready to call `Simulator::run`" for the
/// experiments of one repetition of *every* workload: workload
/// generation, topology build (routes included), scheme install, flow
/// install.
///
/// The whole bundle, not the one workload being run: a single star
/// sets up in 15 µs, and a bound that is a share of 15 µs would reject a
/// change for adding five. Summed over the six workloads the figure is
/// about ten milliseconds, so work moved into set-up shows once it costs
/// a millisecond or two, whichever topology it lands on; each workload's
/// own stages are the per-layer `*.generate_ms` … `*.install_flows_ms`.
fn setup_once(seed: u64, scale: Scale) -> f64 {
    let mut rec = Recorder::new();
    let root = rec.open("setup", None, 0);
    let t0 = Instant::now();
    // Kept alive until the clock stops: tearing down is not setting up.
    let mut built = Vec::new();
    for w in &crate::workload::ALL {
        for exp in w.generate(seed, scale) {
            built.push(construct(&exp, &mut rec, root, 0));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Set-up time in `(reference seconds, raw seconds)`: per block, the
/// median of [`SETUP_PER_BLOCK`] constructions, so that a quantity of a
/// few milliseconds repeats; over the blocks, the usual statistics.
pub fn measure_setup(seed: u64, scale: Scale, mut before: Calibration) -> (Stat, Stat) {
    let per_block = match scale {
        Scale::Full => SETUP_PER_BLOCK,
        Scale::Smoke => 2,
    };
    let (mut reference, mut raw) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_BLOCKS {
        let samples: Vec<f64> = (0..per_block).map(|_| setup_once(seed, scale)).collect();
        let after = calib::run(scale);
        raw.push(median(&samples));
        reference.push(reference_seconds(median(&samples), before.wall_s, after.wall_s));
        before = after;
    }
    (Stat::of(&reference), Stat::of(&raw))
}

/// The end-to-end result of one workload. Times are reference seconds;
/// the `raw_*` fields are the same readings in this machine's seconds,
/// kept for the record and never compared against a bound.
pub struct EndToEndResult {
    pub wall_s: Stat,
    pub cpu_s: Stat,
    pub peak_rss_mb: Stat,
    pub setup_s: Stat,
    pub raw_wall_s: Stat,
    pub raw_cpu_s: Stat,
    pub raw_setup_s: Stat,
    /// Wall seconds of the calibration runs themselves.
    pub calibration_s: Stat,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub problems: Vec<String>,
}

impl EndToEndResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn stat(&self, name: &str) -> Stat {
        match name {
            "wall_s" => self.wall_s,
            "cpu_s" => self.cpu_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => self.setup_s,
            other => panic!("unknown end-to-end metric {other}"),
        }
    }

    /// The readings behind the metrics, in this machine's own seconds.
    pub fn raw(&self) -> [(&'static str, Stat); 4] {
        [
            ("raw_wall_s", self.raw_wall_s),
            ("raw_cpu_s", self.raw_cpu_s),
            ("raw_setup_s", self.raw_setup_s),
            ("calibration_s", self.calibration_s),
        ]
    }
}

/// Run the untraced pass of one workload.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    scale: Scale,
    budget: Budget,
    pptlab: Option<&Path>,
) -> Result<EndToEndResult, String> {
    let started = Instant::now();
    let mut calibrations = vec![calib::run(scale)];
    let mut reps: Vec<Rep> = Vec::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    loop {
        // Peak RSS per repetition: without the reset, `VmHWM` would also
        // count the calibration's buffer and everything before it.
        procfs::reset_peak_rss();
        let rep = door_rep(w, seed, scale, pptlab)?;
        let (before, after) = (calibrations[calibrations.len() - 1], calib::run(scale));
        walls.push(reference_seconds(rep.wall_s, before.wall_s, after.wall_s));
        cpus.push(reference_seconds(rep.cpu_s, before.cpu_s, after.cpu_s));
        calibrations.push(after);
        reps.push(rep);
        let done = match budget {
            Budget::Reps(n) => reps.len() >= n.max(1),
            Budget::Seconds(s) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
    let (setup_s, raw_setup_s) = measure_setup(seed, scale, calibrations[calibrations.len() - 1]);

    let mut problems: Vec<String> = Vec::new();
    let tallies: Vec<Tally> = reps.iter().map(|r| r.tally).collect();
    let (attempted, failed) = check_repetitions(&tallies, &mut problems);
    for (i, rep) in reps.iter().enumerate() {
        problems.extend(rep.problems.iter().map(|p| format!("rep {i}: {p}")));
    }
    let digest = tallies[0].digest;

    if w.door == Door::Observed {
        // Zero observer effect: the same experiment with every sink off
        // must produce the same FCTs.
        let mut plain = w.generate(seed, scale).remove(0);
        plain.telemetry = None;
        let unobserved = fct_digest(&run_experiment(&plain).sim);
        if unobserved != digest {
            problems.push(format!(
                "observer effect: unobserved digest {unobserved:016x} != observed {digest:016x}"
            ));
        }
    }

    let of = |f: &dyn Fn(&Rep) -> f64| Stat::of(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(EndToEndResult {
        wall_s: Stat::of(&walls),
        cpu_s: Stat::of(&cpus),
        peak_rss_mb: of(&|r| r.peak_rss_mb),
        setup_s,
        raw_wall_s: of(&|r| r.wall_s),
        raw_cpu_s: of(&|r| r.cpu_s),
        raw_setup_s,
        calibration_s: Stat::of(&calibrations.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
        attempted,
        failed,
        digest,
        problems,
    })
}
