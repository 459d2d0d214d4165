#![forbid(unsafe_code)]
//! pptbench — the repository's benchmark (see `benchmarks/README.md`).
//!
//! ```text
//! pptbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! pptbench [--seed N] [--workload W] [--seconds S | --reps R] [--traced]
//!                                                          a set: every workload in its own child
//! pptbench --stability [--seed N] [--seconds S | --reps R] two sets of the same code must agree
//! pptbench diff A.json B.json                              compare two sets against the bounds
//! pptbench benchmark-json                                  print BENCHMARK.json from the tables
//! ```

use std::process::ExitCode;

mod calib;
mod json;
mod kernels;
mod measure;
mod metrics;
mod procfs;
mod report;
mod stages;
mod traced;
mod workload;

#[cfg(test)]
mod smoke;

use json::Json;
use measure::Budget;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use workload::Scale;

/// `--key value` pairs and bare `--flag`s, in the `pptlab` grammar.
struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            let key =
                tok.strip_prefix("--").ok_or_else(|| format!("expected --option, got '{tok}'"))?;
            let value = it.next_if(|next| !next.starts_with("--")).cloned();
            out.push((key.to_string(), value));
        }
        Ok(Args(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None if self.flag(key) => Err(format!("--{key} needs a value")),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn budget(&self) -> Result<Budget, String> {
        match (self.number::<usize>("reps")?, self.number::<f64>("seconds")?) {
            (Some(_), Some(_)) => Err("give --reps or --seconds, not both".into()),
            (Some(r), None) => Ok(Budget::Reps(r)),
            (None, s) => Ok(Budget::Seconds(s.unwrap_or(RUN_SECONDS as f64))),
        }
    }
}

fn metrics_json<'a>(values: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        values
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics),
    ])
    .encode()
}

fn print_detail(
    w: &workload::Workload,
    digest: u64,
    problems: &[String],
    extra: Vec<(&str, Json)>,
) {
    for p in problems {
        println!("PROBLEM: {p}");
    }
    let mut detail = vec![
        ("workload", Json::str(w.name)),
        ("digest", Json::str(format!("{digest:016x}"))),
        ("problems", Json::Arr(problems.iter().map(Json::str).collect())),
    ];
    detail.extend(extra);
    println!("detail {}", Json::obj(detail).encode());
}

fn run_untraced(w: &'static workload::Workload, seed: u64, budget: Budget) -> Result<(), String> {
    let pptlab = match w.door {
        workload::Door::Cli => Some(measure::locate_pptlab()?),
        _ => None,
    };
    let r = measure::end_to_end(w, seed, Scale::Full, budget, pptlab.as_deref())?;
    let stat_line = |name: &str, unit: &str, s: metrics::Stat| {
        println!(
            "{name} {} {unit} (q1 {} q3 {} min {} max {} n={})",
            s.median, s.q1, s.q3, s.min, s.max, s.n
        );
    };
    for m in &END_TO_END {
        stat_line(m.name, m.unit, r.stat(m.name));
    }
    for (name, s) in r.raw() {
        stat_line(name, "s", s);
    }
    println!("flows_attempted {} flows_failed {}", r.attempted, r.failed);
    let stats = END_TO_END.iter().map(|m| (m.name, r.stat(m.name).to_json(m.unit)));
    let raw = r.raw().into_iter().map(|(name, s)| (name, s.to_json("s")));
    print_detail(
        w,
        r.digest,
        &r.problems,
        vec![("stats", Json::obj(stats)), ("raw", Json::obj(raw))],
    );
    let metrics = metrics_json(END_TO_END.iter().map(|m| (m.name, r.stat(m.name).median, m.unit)));
    println!("{}", result_line(r.correct(), r.attempted, r.failed, metrics));
    Ok(())
}

fn run_traced(
    w: &'static workload::Workload,
    seed: u64,
    budget: Budget,
    argv: &[String],
) -> Result<(), String> {
    let loadavg = procfs::loadavg();
    let pptlab = measure::locate_pptlab()?;
    let seconds = match budget {
        Budget::Seconds(s) => s,
        Budget::Reps(_) => RUN_SECONDS as f64,
    };
    let kernel_values = kernels::run_all(&kernels::KernelBudget::for_seconds(seconds));
    let r = traced::per_layer(w, seed, Scale::Full, &pptlab, &kernel_values)?;
    for ((name, value), m) in r.values.iter().zip(&PER_LAYER) {
        println!("{name} {value} {}", m.unit);
    }
    let spans = Json::obj([
        ("manifest", report::manifest(seed, &format!("{budget:?}"), argv, &loadavg)),
        ("workload", Json::str(w.name)),
        ("spans", r.spans.to_json()),
    ]);
    let path = report::write_out(&format!("spans-{}.json", w.name), &spans)?;
    println!("spans written to {}", path.display());
    print_detail(w, r.digest, &r.problems, Vec::new());
    let metrics = metrics_json(
        r.values.iter().zip(&PER_LAYER).map(|((name, value), m)| (*name, *value, m.unit)),
    );
    println!("{}", result_line(r.correct(), r.attempted, r.failed, metrics));
    Ok(())
}

/// One workload, one pass, in this process: the driver's contract. The
/// verdict of the output checks travels in the result line (`correct`),
/// so the exit code is 0 whenever a result was printed.
fn run_one(args: &Args, argv: &[String]) -> Result<(), String> {
    let name = args.get("workload").ok_or("--workload needs a name")?;
    let w = workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = args.number("seed")?.unwrap_or(42);
    let budget = args.budget()?;
    match args.number::<u8>("trace")?.unwrap_or(0) {
        0 => run_untraced(w, seed, budget),
        _ => run_traced(w, seed, budget, argv),
    }
}

fn set_options(args: &Args, argv: &[String], traced: bool) -> Result<report::SetOptions, String> {
    let budget_args = match args.budget()? {
        Budget::Reps(r) => vec!["--reps".to_string(), r.to_string()],
        Budget::Seconds(s) => vec!["--seconds".to_string(), s.to_string()],
    };
    Ok(report::SetOptions {
        seed: args.number("seed")?.unwrap_or(42),
        budget_args,
        traced,
        only: args.get("workload").map(str::to_string),
        argv: argv.to_vec(),
    })
}

/// Seconds since the epoch, for result file names.
fn stamp() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("diff") => {
            let [_, a, b] = argv else { return Err("usage: pptbench diff A.json B.json".into()) };
            let summary = report::diff(&report::read_set(a)?, &report::read_set(b)?);
            Ok(if summary.worse + summary.exact_mismatches > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("benchmark-json") => {
            print!("{}", metrics::benchmark_json().encode_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let args = Args::parse(argv)?;
            if args.flag("trace") {
                run_one(&args, argv)?;
                return Ok(ExitCode::SUCCESS);
            }
            if args.flag("stability") {
                // Two full sets of the same code, per-layer pass included
                // (the exact counts live there).
                let opts = set_options(&args, argv, true)?;
                let (a, b) = (report::run_set(&opts)?, report::run_set(&opts)?);
                let pa = report::write_out("stability-a.json", &a)?;
                let pb = report::write_out("stability-b.json", &b)?;
                println!("sets written to {} and {}", pa.display(), pb.display());
                let summary = report::diff(&a, &b);
                let stable = summary.disagreements == 0
                    && summary.exact_mismatches == 0
                    && report::set_is_correct(&a)
                    && report::set_is_correct(&b);
                println!(
                    "stability: {}",
                    if stable { "the two sets agree" } else { "THE TWO SETS DISAGREE" }
                );
                return Ok(if stable { ExitCode::SUCCESS } else { ExitCode::FAILURE });
            }
            let opts = set_options(&args, argv, args.flag("traced"))?;
            let set = report::run_set(&opts)?;
            let path = report::write_out(&format!("set-{}.json", stamp()), &set)?;
            println!("set written to {}", path.display());
            Ok(if report::set_is_correct(&set) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
    }
}

fn main() -> ExitCode {
    procfs::scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pptbench: {e}");
            ExitCode::from(2)
        }
    }
}
