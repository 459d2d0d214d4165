//! Result files: a *set* is every workload run once (each in its own
//! child process, one at a time), stamped with a manifest. `diff` compares
//! two sets against the benchmark's own bounds; `--stability` runs two
//! sets of the same code and fails when they disagree.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, Better, Stat, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::workload;

/// Directory for everything the benchmark writes (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../out")
}

pub fn write_out(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.encode_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Who and what produced a result file. `run.sh` exports the git revision
/// and compiler version; a bare binary says "unknown".
pub fn manifest(seed: u64, budget: &str, argv: &[String], loadavg_at_start: &str) -> Json {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("git_rev", Json::str(env("PPTBENCH_GIT_REV"))),
        ("rustc", Json::str(env("PPTBENCH_RUSTC"))),
        ("nproc", Json::num(procfs::nproc() as f64)),
        ("loadavg_at_start", Json::str(loadavg_at_start)),
        ("seed", Json::num(seed as f64)),
        ("budget", Json::str(budget)),
        ("argv", Json::Arr(argv.iter().map(Json::str).collect())),
    ])
}

/// What a set run is asked to do.
pub struct SetOptions {
    pub seed: u64,
    /// Passed through to each child: `["--seconds", "10"]` or `["--reps", "5"]`.
    pub budget_args: Vec<String>,
    pub traced: bool,
    /// One workload, or all of them.
    pub only: Option<String>,
    pub argv: Vec<String>,
}

/// The last stdout line of a child is the contract's result object; the
/// line starting with `detail ` carries what the contract has no key for.
fn child_lines(stdout: &[u8]) -> Result<(Json, Json), String> {
    let text = String::from_utf8_lossy(stdout);
    let result = text.lines().last().ok_or("child printed nothing")?;
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    Ok((Json::parse(result)?, Json::parse(detail)?))
}

fn run_child(workload: &str, trace: u8, opts: &SetOptions) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(&opts.budget_args)
        .args(["--trace", &trace.to_string()]);
    let run = procfs::run_child(cmd).map_err(|e| format!("spawn self: {e}"))?;
    if !run.status.success() {
        return Err(format!("{workload} --trace {trace}: child exited with {}", run.status));
    }
    child_lines(&run.stdout)
}

/// Run one set: every workload in its own child, untraced first, then
/// (with `traced`) the per-layer pass. Prints every metric by name with
/// its unit and returns the set document.
pub fn run_set(opts: &SetOptions) -> Result<Json, String> {
    let loadavg = procfs::loadavg();
    let mut workloads = Vec::new();
    for w in workload::ALL.iter().filter(|w| opts.only.as_deref().is_none_or(|o| o == w.name)) {
        println!("== {} ==", w.name);
        let (result, detail) = run_child(w.name, 0, opts)?;
        let mut correct = result.at("correct").as_bool() == Some(true);
        let mut problems: Vec<Json> = detail.at("problems").as_arr().to_vec();
        let mut entry = vec![
            ("attempted", result.at("attempted").clone()),
            ("failed", result.at("failed").clone()),
            ("digest", detail.at("digest").clone()),
            ("end_to_end", detail.at("stats").clone()),
            ("raw", detail.at("raw").clone()),
        ];
        for m in &END_TO_END {
            let stat = Stat::from_json(detail.at("stats").at(m.name))
                .ok_or_else(|| format!("{}: no {} in detail", w.name, m.name))?;
            println!(
                "  {:<44} {:>14.6} {:<8} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n={}",
                m.name, stat.median, m.unit, stat.q1, stat.q3, stat.min, stat.max, stat.n
            );
        }
        println!(
            "  {:<44} {:>14} / {} failed",
            "flows_attempted",
            result.at("attempted").as_f64().unwrap_or(0.0),
            result.at("failed").as_f64().unwrap_or(0.0),
        );
        if opts.traced {
            let (layers, layer_detail) = run_child(w.name, 1, opts)?;
            correct &= layers.at("correct").as_bool() == Some(true);
            problems.extend(layer_detail.at("problems").as_arr().iter().cloned());
            if layer_detail.at("digest") != detail.at("digest") {
                problems.push(Json::str("traced pass digest differs from untraced pass"));
                correct = false;
            }
            let per_layer = layers.at("metrics").clone();
            for m in &PER_LAYER {
                let v = per_layer.at(m.name).at("value").as_f64().unwrap_or(f64::NAN);
                println!("  {:<44} {:>14.4} {}", m.name, v, m.unit);
            }
            entry.push(("per_layer", per_layer));
        }
        for p in &problems {
            println!("  PROBLEM: {}", p.as_str().unwrap_or("?"));
        }
        println!("  {}", if correct { "output checks passed" } else { "OUTPUT CHECKS FAILED" });
        entry.push(("correct", Json::Bool(correct)));
        entry.push(("problems", Json::Arr(problems)));
        workloads.push((w.name, Json::obj(entry)));
    }
    if workloads.is_empty() {
        return Err(format!("no workload named {:?}", opts.only));
    }
    Ok(Json::obj([
        ("manifest", manifest(opts.seed, &opts.budget_args.join(" "), &opts.argv, &loadavg)),
        ("workloads", Json::obj(workloads)),
    ]))
}

pub fn set_is_correct(set: &Json) -> bool {
    set.at("workloads").as_obj().iter().all(|(_, w)| w.at("correct").as_bool() == Some(true))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// One side's own spread (quartile distance over median) exceeds the
    /// bound: the comparison cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against base `a` for one end-to-end metric.
pub fn judge(m: &metrics::EndToEnd, a: Stat, b: Stat) -> Verdict {
    if a.spread() > m.bound || b.spread() > m.bound {
        return Verdict::Unresolved;
    }
    let worse_by = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worse_by > m.bound * a.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// What a comparison of two sets found.
#[derive(Default)]
pub struct DiffSummary {
    pub worse: usize,
    pub unresolved: usize,
    /// Exact counts or digests that differ.
    pub exact_mismatches: usize,
    /// End-to-end medians further apart than the bound, in either
    /// direction (what `--stability` fails on).
    pub disagreements: usize,
}

/// Print the comparison of set `b` against base `a`.
pub fn diff(a: &Json, b: &Json) -> DiffSummary {
    let mut summary = DiffSummary::default();
    for (name, ea) in a.at("workloads").as_obj() {
        let Some(eb) = b.at("workloads").get(name) else {
            println!("== {name} == only in A");
            continue;
        };
        println!("== {name} ==");
        println!(
            "  {:<44} {:>14} {:>14} {:>18}  verdict",
            "end-to-end (median)", "A", "B", "B/A (base A)"
        );
        for m in &END_TO_END {
            let stat = |e: &Json| Stat::from_json(e.at("end_to_end").at(m.name));
            let (Some(sa), Some(sb)) = (stat(ea), stat(eb)) else { continue };
            let verdict = judge(m, sa, sb);
            let reverse = judge(m, sb, sa);
            match verdict {
                Verdict::Worse => summary.worse += 1,
                Verdict::Unresolved => summary.unresolved += 1,
                Verdict::Ok => {}
            }
            if verdict == Verdict::Worse || reverse == Verdict::Worse {
                summary.disagreements += 1;
            }
            println!(
                "  {:<44} {:>14.6} {:>14.6} {:>9.4} of {:<8.6}{} {} (bound {:.0}%, spreads {:.1}% / {:.1}%)",
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.median,
                m.unit,
                verdict.as_str(),
                m.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
            );
        }
        if ea.at("digest") != eb.at("digest") {
            summary.exact_mismatches += 1;
            println!(
                "  FCT digest differs: {} vs {}",
                ea.at("digest").encode(),
                eb.at("digest").encode()
            );
        }
        let (Some(la), Some(lb)) = (ea.get("per_layer"), eb.get("per_layer")) else { continue };
        println!("  {:<44} {:>14} {:>14} {:>18}", "per-layer", "A", "B", "B/A (base A)");
        for m in &PER_LAYER {
            let value = |l: &Json| l.at(m.name).at("value").as_f64();
            let (Some(va), Some(vb)) = (value(la), value(lb)) else { continue };
            let mismatch = m.exact && va != vb;
            if mismatch {
                summary.exact_mismatches += 1;
            }
            let ratio = if va != 0.0 { format!("{:.4}", vb / va) } else { "-".into() };
            println!(
                "  {:<44} {:>14.4} {:>14.4} {:>9} of {:<.4} {}{}",
                m.name,
                va,
                vb,
                ratio,
                va,
                m.unit,
                if mismatch { "  EXACT COUNT DIFFERS" } else { "" },
            );
        }
    }
    println!(
        "summary: {} worse, {} unresolved, {} exact mismatches",
        summary.worse, summary.unresolved, summary.exact_mismatches
    );
    summary
}

pub fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(median: f64, half_spread: f64) -> Stat {
        let (lo, hi) = (median - half_spread, median + half_spread);
        Stat { median, q1: lo, q3: hi, min: lo, max: hi, n: 5 }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let wall = metrics::end_to_end("wall_s").unwrap();
        let (inside, outside) = (1.0 + wall.bound / 2.0, 1.0 + wall.bound * 2.0);
        assert_eq!(judge(wall, stat(1.0, 0.01), stat(inside, 0.01)), Verdict::Ok);
        assert_eq!(judge(wall, stat(1.0, 0.01), stat(outside, 0.01)), Verdict::Worse);
        assert_eq!(judge(wall, stat(1.0, 0.01), stat(0.5, 0.01)), Verdict::Ok);
        assert_eq!(judge(wall, stat(1.0, wall.bound), stat(outside, 0.01)), Verdict::Unresolved);
    }

    fn set(wall: f64, events: f64, digest: &str) -> Json {
        let stats = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), stat(wall, 0.0).to_json(m.unit)))
                .collect(),
        );
        let layers = Json::obj([(
            "netsim.engine.events",
            Json::obj([("value", Json::num(events)), ("unit", Json::str("count"))]),
        )]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "star_dctcp",
                Json::obj([
                    ("digest", Json::str(digest)),
                    ("end_to_end", stats),
                    ("per_layer", layers),
                    ("correct", Json::Bool(true)),
                ]),
            )]),
        )])
    }

    #[test]
    fn diff_counts_regressions_and_exact_mismatches() {
        // 2 % apart is inside every bound, a factor of two outside.
        let same = diff(&set(1.0, 100.0, "ab"), &set(1.02, 100.0, "ab"));
        assert_eq!((same.worse, same.exact_mismatches, same.disagreements), (0, 0, 0));
        let moved = diff(&set(1.0, 100.0, "ab"), &set(2.0, 101.0, "cd"));
        assert_eq!(moved.worse, END_TO_END.len());
        assert_eq!(moved.exact_mismatches, 2);
        // An improvement beyond the bound is not "worse", but two sets of
        // the same code that far apart do disagree.
        let faster = diff(&set(2.0, 100.0, "ab"), &set(1.0, 100.0, "ab"));
        assert_eq!((faster.worse, faster.disagreements), (0, END_TO_END.len()));
        assert!(set_is_correct(&set(1.0, 1.0, "x")));
    }

    #[test]
    fn child_output_is_split_into_result_and_detail() {
        let out = b"wall_s 1.0 s\ndetail {\"digest\":\"ab\"}\n{\"correct\":true}\n";
        let (result, detail) = child_lines(out).unwrap();
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(detail.get("digest").and_then(Json::as_str), Some("ab"));
        assert!(child_lines(b"").is_err());
    }
}
