#![forbid(unsafe_code)]
//! pptlab — run any scheme/topology/workload combination from the shell.
//!
//! ```text
//! pptlab compare --schemes ppt,dctcp,homa --topo testbed --workload websearch \
//!                --load 0.5 --flows 600 --seed 42
//! pptlab trace --schemes ppt --workload websearch --seed 42 --out runs/
//! pptlab figure --ids all --jobs 2 --out results   # regenerate the paper
//! pptlab schemes            # list every scheme id
//! pptlab topos              # list topology ids
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ppt::figures::{self, FigureOpts, FIGURES};
use ppt::harness::{collect_metrics, run_experiment, run_experiment_traced};
use ppt::harness::{Outcome, TelemetrySummary, TraceData};
use ppt::spec::{parse_flows, Args, Run, SCHEMES, TOPOS, WORKLOADS};
use ppt::stats::{analyze_all, analyze_lcp, analyze_recovery, FctSummary, SeriesAnalysis};
use ppt::sweep::{run_points, run_stream, Cell};
use ppt::trace::JsonObject;

const USAGE: &str = "\
pptlab — PPT reproduction laboratory

USAGE:
  pptlab compare [OPTIONS]     run schemes on one workload and print FCT rows
  pptlab sweep [OPTIONS]       run a scheme x load x seed grid and print one row per point
  pptlab trace [OPTIONS]       record a traced run: events.jsonl + metrics.json
                               (+ telemetry.jsonl with --telemetry)
  pptlab faults [OPTIONS]      traced fault-injection run; one JSONL recovery summary per scheme
  pptlab report [OPTIONS]      telemetered run: series summaries, histogram percentiles,
                               oscillation flags and (with --prof) a profile breakdown
  pptlab gen [OPTIONS] > t.csv generate a flow trace as CSV on stdout
  pptlab figure --ids a,b|all  regenerate paper figures/tables (takes only --ids, --flows,
                               --seed, --jobs, --out); `--ids all --out results` is the paper
  pptlab figures               list figure ids (the stems of results/*.txt)
  pptlab schemes               list scheme ids
  pptlab topos                 list topology ids
  pptlab workloads             list workload ids

OPTIONS (compare, sweep, trace, faults, report — unless the flag names its
commands; an option a command does not take is an error, not ignored):
  --schemes a,b,c   comma-separated `pptlab schemes` ids, each scheme once;
                    ppt-fill:<f> takes a fraction in (0,4], rc3-cap:<f> in (0,1]
                                                      [default: ppt,dctcp / ppt]
  --topo ID         (also gen) a `pptlab topos` id; a star has at most 32768
                    hosts, a fat-tree a k of at most 32 [default: testbed]
  --workload ID     (also gen) a `pptlab workloads` id [default: websearch]
  --load F          (not sweep; also gen) network load in (0,1] [default: 0.5]
  --flows N         (also gen, figure) number of flows, at most 10000000
                                                      [default: 400 / 80 / per figure]
  --seed N          (not sweep; also gen, figure) workload seed [default: 42]
  --jobs N          worker threads; results are identical for any N [default: 1]
  --incast N        (not sweep) N-to-1 incast with N >= 1 senders, not all-to-all
  --trace FILE      (not sweep) replay a CSV flow trace instead of generating one
                    (columns: src,dst,size_bytes,start_ns,first_write_bytes); it
                    fixes the flows: no --workload/--load/--flows/--seed/--incast
  --loads a,b,c     (sweep) grid of loads, each once  [default: 0.3,0.5,0.7]
  --seeds a,b,c     (sweep) grid of seeds, each once  [default: 42]
  --json            (compare, report) one JSON document / (sweep) one JSON
                    line per point
  --metrics         (compare) also collect + print per-scheme metrics
  --out DIR         (trace, faults, report, figure) output directory; all but
                    trace only write files when --out is given. report writes
                    <id>.report.json + <id>.telemetry.jsonl per scheme, figure
                    <id>.txt per figure               [default: . / off]
  --sanitize [LVL]  run simsan, the runtime invariant sanitizer, on every
                    simulation. LVL is the audit cadence:
                    event | epoch | end               [default: epoch]
  --switch MODE     switch mode: default | pfc. pfc layers per-priority
                    XOFF/XON backpressure (lossless pausing) over every
                    scheme's switch config
  --buffers F       scale every buffer-denominated knob (port buffer,
                    ECN/trim thresholds) by F, e.g. 0.1 for the tiny-buffer
                    regime
  --telemetry [IVL] (sweep, trace, report) enable the deterministic
                    continuous-telemetry sampler at interval IVL: <n>ns |
                    <n>us | <n>ms | bare <n> = microseconds [default: 10us;
                    report always samples]. Sampling only reads state, so
                    traces and FCTs stay byte-identical with or without it.
                    sweep --json adds telemetry_samples and
                    oscillating_series to each row; trace writes the
                    sampled series as telemetry.jsonl (<id>.telemetry.jsonl
                    with several schemes), the bytes report writes
  --prof            (report) also run the wall-clock dispatch profiler and
                    include its (non-deterministic) breakdown in output
  --faults SPEC     deterministic fault schedule [faults default: loss=0.01].
                    SPEC is comma-separated items:
                      loss=F        per-packet data-loss probability, in [0, 1]
                      ackloss=F     per-packet control-loss probability, in [0, 1]
                      lp            confine ackloss to priorities >= 4 (LP ACKs)
                      seed=N        fault RNG seed     [default: 1]
                      down:H:F:U    host H uplink down from F us until U us > F
                      stall:S:A:D   switch S stalled for D us starting at A us
                                    (H and S index the topology's hosts, switches)
                    e.g. --faults loss=0.01,seed=7,down:0:0:500

ENVIRONMENT:
  PPT_DUMP_DIR=DIR  write each abnormal stop's flight-recorder dump to its own
                    file under DIR instead of stderr
";

/// One line of the seven-column FCT table `compare` and `sweep` print:
/// the header names its first column `first`.
fn fct_header(first: &str, width: usize) -> String {
    format!(
        "{first:<width$} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "overall(us)", "small avg", "small p99", "large avg", "done%", "drops"
    )
}

/// One row of that table, in `figure`'s cells.
fn fct_row(label: &str, width: usize, s: &FctSummary, completion_ratio: f64, drops: u64) -> String {
    let (cells, done) = (figures::fct_cells(s), completion_ratio * 100.0);
    format!("{label:<width$} {cells} {done:>8.1} {drops:>10}")
}

/// The FCT fields of one `compare` / `sweep` JSON row, after `row`'s own.
fn fct_json(row: JsonObject, s: &FctSummary, completion_ratio: f64, drops: u64) -> JsonObject {
    row.f64("overall_avg_us", s.overall_avg_us)
        .f64("small_avg_us", s.small_avg_us)
        .f64("small_p99_us", s.small_p99_us)
        .f64("large_avg_us", s.large_avg_us)
        .f64("completion_ratio", completion_ratio)
        .u64("drops", drops)
}

fn cmd_compare(args: &Args, run: &Run) -> Result<(), String> {
    let json_mode = args.flag("json");
    let with_metrics = args.flag("metrics");
    let (topo, flows) = (run.template.topo, run.template.flows.len());
    let (workload, load, seed) = (run.dist.name(), run.loads[0], run.seeds[0]);

    if !json_mode {
        println!("topo={topo:?} workload={workload} load={load} flows={flows} seed={seed}\n");
        println!("{}", fct_header("scheme", 24));
    }
    // One experiment per scheme, executed by the shared sweep runner:
    // results come back in scheme order no matter how many workers ran.
    let results = run_points(run.schemes.len(), run.jobs, |i| {
        let outcome = run_experiment(&run.experiment(i));
        let metrics = with_metrics.then(|| collect_metrics(&outcome).to_json());
        (outcome.fct.summary(), outcome.completion_ratio, outcome.counters.dropped, metrics)
    });

    let mut rows: Vec<String> = Vec::new();
    let mut metric_blocks: Vec<(String, String)> = Vec::new();
    for ((_, scheme), (s, completion_ratio, drops, metrics)) in run.schemes.iter().zip(results) {
        let name = scheme.name();
        if json_mode {
            let row = fct_json(JsonObject::new().str("scheme", &name), &s, completion_ratio, drops);
            rows.push(match &metrics {
                Some(m) => row.raw("metrics", m.trim_end()).finish(),
                None => row.finish(),
            });
        } else {
            println!("{}", fct_row(&name, 24, &s, completion_ratio, drops));
            if let Some(m) = metrics {
                metric_blocks.push((name, m));
            }
        }
    }
    if json_mode {
        let doc = JsonObject::new()
            .str("topo", &format!("{topo:?}"))
            .str("workload", workload)
            .f64("load", load)
            .u64("flows", flows as u64)
            .u64("seed", seed)
            .raw("schemes", &format!("[{}]", rows.join(",")))
            .finish();
        println!("{doc}");
    } else {
        for (name, json) in metric_blocks {
            println!("\n--- metrics: {name} ---");
            print!("{json}");
        }
    }
    Ok(())
}

/// Write a captured stream as JSON Lines, a chunk at a time: the file's
/// text never exists in memory beside the events it is made from.
fn write_events(path: &Path, trace: &TraceData) -> Result<(), String> {
    let write = || trace.write_jsonl(&mut std::fs::File::create(path)?);
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `bytes` to `path`, naming the path in the error.
fn write_file(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// A telemetered run's sampled series as `TraceEvent::Sample` JSONL, the
/// `telemetry.jsonl` of `trace` and `report` (`Profile` rows only with
/// `prof`: they are wall-clock noise); `None` when nothing sampled.
fn telemetry_dump(outcome: &Outcome, prof: bool) -> Option<Vec<u8>> {
    let t = outcome.sim.telemetry()?;
    let mut dump = Vec::new();
    t.dump_events(&mut dump, prof);
    Some(dump)
}

/// `--out`, created when given.
fn out_dir(args: &Args) -> Result<Option<PathBuf>, String> {
    let dir = args.get("out").map(PathBuf::from);
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

fn cmd_trace(args: &Args, run: &Run) -> Result<(), String> {
    let out_dir = out_dir(args)?.unwrap_or_else(|| PathBuf::from("."));

    // Traced runs go through the shared sweep runner; file writes and
    // report lines stay on this thread, in scheme order, so output is
    // byte-identical for any --jobs.
    let results = run_points(run.schemes.len(), run.jobs, |i| {
        let (outcome, trace) = run_experiment_traced(&run.experiment(i));
        (trace, collect_metrics(&outcome).to_json(), telemetry_dump(&outcome, false))
    });

    let single = run.schemes.len() == 1;
    for ((id, scheme), (trace, metrics_json, telemetry)) in run.schemes.iter().zip(results) {
        let path = |name: &str| {
            if single {
                out_dir.join(name)
            } else {
                out_dir.join(format!("{id}.{name}"))
            }
        };
        let (ev_path, m_path) = (path("events.jsonl"), path("metrics.json"));
        write_events(&ev_path, &trace)?;
        write_file(&m_path, metrics_json)?;
        let mut line = format!(
            "{}: {} events -> {}, metrics -> {}",
            scheme.name(),
            trace.events.len(),
            ev_path.display(),
            m_path.display()
        );
        if let Some(dump) = telemetry {
            let t_path = path("telemetry.jsonl");
            write_file(&t_path, dump)?;
            line += &format!(", telemetry -> {}", t_path.display());
        }
        println!("{line}");
        let lcp = analyze_lcp(&trace.events, run.template.topo.base_rtt());
        if !lcp.loops.is_empty() {
            print!("{}", lcp.render());
        }
    }
    Ok(())
}

fn cmd_faults(args: &Args, run: &Run) -> Result<(), String> {
    let out_dir = out_dir(args)?;
    let results = run_points(run.schemes.len(), run.jobs, |i| {
        let (outcome, trace) = run_experiment_traced(&run.experiment(i));
        (trace, outcome.report, outcome.completion_ratio)
    });

    // One JSON line per scheme: the recovery summary the fault suite keys
    // off, stable for any --jobs.
    for ((id, scheme), (trace, report, completion_ratio)) in run.schemes.iter().zip(results) {
        let engine = report.faults;
        if let Some(dir) = &out_dir {
            write_events(&dir.join(format!("{id}.faults.events.jsonl")), &trace)?;
        }
        let rec = analyze_recovery(&trace.events, engine);
        let lcp = analyze_lcp(&trace.events, run.template.topo.base_rtt());
        let doc = JsonObject::new()
            .str("scheme", &scheme.name())
            .u64("flows_completed", report.flows_completed as u64)
            .u64("flows_total", report.flows_total as u64)
            .f64("completion_ratio", completion_ratio)
            .u64("fault_drops", engine.fault_drops)
            .u64("ctrl_drops", rec.ctrl_drops)
            .u64("outages", rec.outages.len() as u64)
            .u64("outage_ns", rec.total_outage_ns())
            .u64("retransmits", engine.retransmits)
            .f64("mean_recovery_us", rec.mean_recovery_us())
            .f64("max_recovery_us", rec.max_recovery_us())
            .f64("degraded_goodput_gbps", rec.degraded_goodput_gbps())
            .u64("max_stall_ns", engine.max_stall.as_nanos())
            .u64("lcp_no_lp_acks", lcp.closed_no_lp_acks as u64)
            .finish();
        println!("{doc}");
    }
    Ok(())
}

fn cmd_sweep(args: &Args, run: &Run) -> Result<(), String> {
    write_sweep(args.flag("json"), run, &mut std::io::stdout().lock()).map_err(|e| e.to_string())
}

/// `sweep`'s table, or with `json_mode` its JSON lines, to `out`. Each row
/// is written as soon as its point and every earlier one have run; a
/// cell's flows exist only while its point runs.
fn write_sweep(json_mode: bool, run: &Run, out: &mut dyn Write) -> std::io::Result<()> {
    if !json_mode {
        writeln!(
            out,
            "sweep: {} points ({} schemes x {} loads x {} seeds) on {:?}, \
             workload={} flows={} jobs={}\n",
            run.schemes.len() * run.loads.len() * run.seeds.len(),
            run.schemes.len(),
            run.loads.len(),
            run.seeds.len(),
            run.template.topo,
            run.dist.name(),
            run.flows,
            run.jobs,
        )?;
        writeln!(out, "{}", fct_header("point", 34))?;
    }
    // The JSON rows count the oscillating series of a telemetered point, so
    // only they run the series analysis, on the worker that holds the run.
    let point = |cell: Cell| {
        cell.expand().run_with(|outcome| {
            let t = outcome.sim.telemetry().filter(|_| json_mode)?;
            Some(analyze_all(t.series()).iter().filter(|a| a.oscillating).count() as u64)
        })
    };
    let mut written = Ok(());
    run_stream(run.sweep(), run.jobs, point, |(r, oscillating)| {
        let (s, drops) = (r.fct.summary(), r.counters.dropped);
        let line = if json_mode {
            let row = JsonObject::new().str("point", &r.label).str("scheme", &r.scheme.name());
            let mut doc = fct_json(row, &s, r.completion_ratio, drops);
            if let (Some(t), Some(oscillating)) = (&r.telemetry, oscillating) {
                doc =
                    doc.u64("telemetry_samples", t.samples).u64("oscillating_series", oscillating);
            }
            doc.finish()
        } else {
            fct_row(&r.label, 34, &s, r.completion_ratio, drops)
        };
        if written.is_ok() {
            written = writeln!(out, "{line}");
        }
    });
    written
}

/// Render the `pptlab report` terminal block for one scheme: its summary
/// and the analysis of each of its series.
fn render_report(name: &str, t: &TelemetrySummary, series: &[SeriesAnalysis]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "--- telemetry: {name} (interval {} us, {} samples) ---",
        t.interval.as_nanos() / 1_000,
        t.samples,
    );
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "histogram", "count", "p50", "p90", "p99", "max"
    );
    for (label, h) in [
        ("fct (ns)", &t.fct_ns),
        ("queue_delay (ns)", &t.queue_delay_ns),
        ("queue_depth (bytes)", &t.queue_depth_bytes),
    ] {
        let _ = writeln!(
            out,
            "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12}",
            label,
            h.count(),
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
            h.max(),
        );
    }
    // The ring keeps the newest points; say so when it dropped any, since
    // every per-series number then describes the tail of the run only.
    let truncated: Vec<_> = series.iter().filter(|a| a.evicted > 0).collect();
    if let Some(a) = truncated.first() {
        let _ = writeln!(
            out,
            "{} series kept the last {} of {} samples; sample coarser or raise the ring",
            truncated.len(),
            a.points,
            a.points as u64 + a.evicted,
        );
    }
    let oscillating: Vec<_> = series.iter().filter(|a| a.oscillating).collect();
    let _ = writeln!(out, "oscillating series: {} of {} analyzed", oscillating.len(), series.len());
    for a in &oscillating {
        let _ = writeln!(
            out,
            "  {:<26} period={} ns strength={:.2} peak_to_peak={:.1}",
            a.name,
            a.period_ns.unwrap_or(0),
            a.period_strength,
            a.peak_to_peak,
        );
    }
    if let Some(rows) = &t.prof {
        let _ = writeln!(out, "profile (wall-clock; non-deterministic, never in goldens):");
        for (kind, count, total_ns) in rows {
            if *count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<12} count={:<12} total={} ns ({} ns/event)",
                kind.as_str(),
                count,
                total_ns,
                total_ns / count,
            );
        }
    }
    out
}

fn cmd_report(args: &Args, run: &Run) -> Result<(), String> {
    let prof = args.flag("prof");
    let json_mode = args.flag("json");
    let out_dir = out_dir(args)?;
    write_report(run, prof, json_mode, out_dir.as_deref(), &mut std::io::stdout().lock())
}

/// `report`'s text blocks, or with `json_mode` its JSON lines, to `out`,
/// and with `out_dir` each scheme's `<id>.report.json` and
/// `<id>.telemetry.jsonl`. The series analysis runs here, the one command
/// besides `sweep --json` that prints it.
fn write_report(
    run: &Run,
    prof: bool,
    json_mode: bool,
    out_dir: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let results = run_points(run.schemes.len(), run.jobs, |i| {
        let outcome = run_experiment(&run.experiment(i));
        let t = outcome.sim.telemetry().expect("report runs always enable telemetry");
        (
            TelemetrySummary::from_telemetry(t),
            analyze_all(t.series()),
            telemetry_dump(&outcome, prof),
        )
    });

    // All printing happens here, in scheme order, so output is
    // byte-identical for any --jobs (profile rows excepted, by design).
    for ((id, scheme), (summary, series, dump)) in run.schemes.iter().zip(results) {
        let name = scheme.name();
        let report_json = JsonObject::new()
            .str("scheme", &name)
            .raw("telemetry", &summary.to_json(&series, prof))
            .finish();
        if let Some(dir) = out_dir {
            write_file(&dir.join(format!("{id}.report.json")), &report_json)?;
            write_file(&dir.join(format!("{id}.telemetry.jsonl")), dump.unwrap_or_default())?;
        }
        let text = if json_mode {
            format!("{report_json}\n")
        } else {
            render_report(&name, &summary, &series)
        };
        out.write_all(text.as_bytes()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

const RUN_KEYS: &[&str] = &["schemes", "jobs", "faults", "buffers", "switch", "sanitize"];
const SETUP_KEYS: &[&str] = &["topo", "workload", "load", "flows", "seed", "trace", "incast"];
const GRID_KEYS: &[&str] = &["topo", "workload", "loads", "seeds", "flows"];

/// The option-taking commands: name, the option keys each accepts, and the
/// entry point of those that run a [`Run`] (`figure` runs none of its own).
type Cmd = fn(&Args, &Run) -> Result<(), String>;
const COMMANDS: &[(&str, &[&[&str]], Option<Cmd>)] = &[
    ("compare", &[RUN_KEYS, SETUP_KEYS, &["json", "metrics"]], Some(cmd_compare)),
    ("sweep", &[RUN_KEYS, GRID_KEYS, &["json", "telemetry"]], Some(cmd_sweep)),
    ("trace", &[RUN_KEYS, SETUP_KEYS, &["out", "telemetry"]], Some(cmd_trace)),
    ("faults", &[RUN_KEYS, SETUP_KEYS, &["out"]], Some(cmd_faults)),
    ("report", &[RUN_KEYS, SETUP_KEYS, &["out", "json", "prof", "telemetry"]], Some(cmd_report)),
    ("gen", &[&["topo", "workload", "load", "flows", "seed"]], Some(cmd_gen)),
    ("figure", &[&["ids", "flows", "seed", "jobs", "out"]], None),
];

/// Regenerate paper figures from the one table in [`ppt::figures`]: to
/// stdout, or one `<id>.txt` per figure under `--out`. Stops at the first
/// figure that fails, naming it; its file is left as it was.
fn cmd_figure(args: &Args) -> Result<(), String> {
    let ids = args.get("ids").ok_or("figure needs --ids <id,...|all> (try `pptlab figures`)")?;
    let selected: Vec<&figures::Figure> = match ids {
        "all" => FIGURES.iter().collect(),
        _ => args
            .parse_list_or::<String>("ids", &[])?
            .iter()
            .map(|id| {
                figures::find(id)
                    .ok_or_else(|| format!("unknown figure '{id}' (try `pptlab figures`)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let fig_opts = FigureOpts {
        flows: parse_flows(args)?,
        seed: args.parse_or("seed", 42)?,
        jobs: args.parse_or("jobs", 1)?,
    };
    let out_dir = out_dir(args)?;
    for fig in selected {
        let path = out_dir.as_ref().map(|dir| dir.join(format!("{}.txt", fig.id)));
        if let Some(path) = &path {
            println!("{} -> {}", fig.id, path.display());
        }
        let mut text = Vec::new();
        fig.run(&fig_opts, &mut text)
            .and_then(|()| match &path {
                Some(path) => std::fs::write(path, &text),
                None => std::io::stdout().lock().write_all(&text),
            })
            .map_err(|e| format!("figure {}: {e}", fig.id))?;
    }
    Ok(())
}

fn cmd_gen(_: &Args, run: &Run) -> Result<(), String> {
    ppt::workloads::write_csv(std::io::stdout().lock(), &run.template.flows)
        .map_err(|e| e.to_string())
}

/// Run `cmd` if it is one of the option-taking [`COMMANDS`]. Every option
/// is parsed here, once, before anything runs; an option the command does
/// not take prints the usage.
fn run_command(
    cmd: &str,
    rest: &[String],
    dump_dir: Option<PathBuf>,
) -> Option<Result<(), String>> {
    let (_, keys, command) = COMMANDS.iter().find(|(name, ..)| *name == cmd)?;
    let args = Args::parse(cmd, rest, keys).map_err(|e| format!("{e}\n\n{USAGE}"));
    Some(args.and_then(|args| match command {
        Some(command) => Run::parse(cmd, &args, dump_dir).and_then(|run| command(&args, &run)),
        None => cmd_figure(&args),
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // The process's one environment read: where abnormal-stop dumps go
    // is a deployment path, so it is not a flag.
    let dump_dir = std::env::var_os("PPT_DUMP_DIR").filter(|d| !d.is_empty()).map(PathBuf::from);
    if let Some(result) = run_command(cmd, &argv[1..], dump_dir) {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The listings print the tables that parsing reads, in one write.
    let text: String = match cmd {
        "schemes" => SCHEMES.iter().map(|(id, ..)| format!("{id}\n")).collect(),
        "figures" => FIGURES.iter().map(|fig| format!("{}\n", fig.id)).collect(),
        "topos" => TOPOS
            .iter()
            .map(|(id, about, kind)| {
                // The parameterised ids are wider.
                format!("{id:<w$} {about}\n", w = if kind.is_some() { 18 } else { 28 })
            })
            .collect(),
        "workloads" => WORKLOADS
            .iter()
            .map(|(id, dist)| {
                let d = dist();
                let small = d.cdf(100_000) * 100.0;
                format!("{id:<12} mean {:>10.0} B, {small:>5.1}% <=100KB\n", d.mean_bytes())
            })
            .collect(),
        "--help" | "-h" | "help" => USAGE.to_string(),
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    print!("{text}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppt::harness::{Experiment, Scheme, TelemetrySpec, TopoKind};
    use ppt::netsim::SimDuration;
    use ppt::spec::parse_topo;
    use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

    /// A report over a ring shorter than the run says so once, with the
    /// counts; a run the ring held whole prints no such line.
    #[test]
    fn report_says_when_the_ring_dropped_samples() {
        let topo = TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 20 };
        let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.3, topo.edge_rate(), 20, 42);
        let exp = Experiment::new(topo, Scheme::Dctcp, all_to_all(topo.hosts(), &spec));
        let report = |ring: usize| {
            let mut spec = TelemetrySpec::new(SimDuration::from_micros(10));
            spec.series_capacity = ring;
            let outcome = run_experiment(&exp.clone().with_telemetry(spec));
            let series = analyze_all(outcome.sim.telemetry().expect("enabled").series());
            let summary = outcome.telemetry.expect("telemetry was enabled");
            (summary.samples, series.len(), render_report("DCTCP", &summary, &series))
        };
        let (samples, series, text) = report(64);
        let line = format!(
            "{series} series kept the last 64 of {samples} samples; sample coarser or raise the ring\n"
        );
        assert!(samples > 64 && text.contains(&line), "{text}");
        let (_, _, whole) = report(1 << 20);
        assert!(!whole.contains("kept the last"), "{whole}");
    }

    /// `figure` goes through the same strict parsing as every command: an
    /// unknown id, a malformed count and a positional id are errors, not a
    /// silent fall-back to some default.
    #[test]
    fn figure_rejects_bad_ids_values_and_positional_arguments() {
        let run = |argv: &[&str]| {
            let rest: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            run_command("figure", &rest, None).expect("figure is a command")
        };
        assert!(run(&["--ids", "nope"]).unwrap_err().starts_with("unknown figure 'nope'"));
        assert!(run(&["--ids", "table3_params,nope"]).is_err(), "one bad id fails the list");
        let err = run(&["--ids", "table3_params", "--flows", "4k"]).unwrap_err();
        assert_eq!(err, "--flows: cannot parse '4k'");
        assert!(run(&["fig15_ablation"]).unwrap_err().starts_with("expected --option"));
        assert!(run(&[]).unwrap_err().starts_with("figure needs --ids"));
    }

    /// `cmd`'s options from one command line, as `main` parses them.
    fn parse_run(cmd: &str, line: &str) -> Run {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (_, keys, _) = COMMANDS.iter().find(|(name, ..)| *name == cmd).unwrap();
        let args = Args::parse(cmd, &argv, keys).unwrap();
        Run::parse(cmd, &args, None).unwrap()
    }

    /// FNV-1a 64-bit, as the workspace's golden tests digest bytes.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// The bytes the series analysis feeds, pinned: `report` as text and as
    /// `--json`, and `sweep --json --telemetry`, on a small star. The digests
    /// were taken from the build that still analyzed every telemetered run
    /// in the harness, so moving the analysis to its readers moved nothing.
    #[test]
    fn report_and_sweep_telemetry_bytes_are_pinned() {
        let report = parse_run("report", "--schemes ppt,dctcp --topo star:4:10:20 --flows 40");
        let text = |json_mode: bool| {
            let mut out = Vec::new();
            write_report(&report, false, json_mode, None, &mut out).unwrap();
            out
        };
        let sweep = parse_run(
            "sweep",
            "--schemes ppt,dctcp --topo star:4:10:20 --loads 0.3,0.6 --flows 40 \
             --telemetry 10us --json",
        );
        let mut rows = Vec::new();
        write_sweep(true, &sweep, &mut rows).unwrap();
        for (what, bytes, want) in [
            ("report", text(false), 0xab6b_05ee_251b_3943_u64),
            ("report --json", text(true), 0x39f1_5369_1d8d_620e),
            ("sweep --json --telemetry", rows, 0x5888_370f_f37d_8e3c),
        ] {
            let got = fnv1a64(&bytes);
            assert_eq!(
                got,
                want,
                "{what} moved (got {got:#018x}):\n{}",
                String::from_utf8_lossy(&bytes)
            );
        }
    }

    /// `trace --telemetry` writes the sampled series of its traced run, the
    /// bytes `report` writes for the same run untraced (`check.sh`'s
    /// telemetry smoke `cmp`s the two files).
    #[test]
    fn trace_telemetry_is_the_report_dump() {
        let exp =
            parse_run("trace", "--topo star:4:10:20 --flows 20 --telemetry 10us").experiment(0);
        let traced = telemetry_dump(&run_experiment_traced(&exp).0, false).expect("sampled");
        assert!(traced.starts_with(br#"{"at":10000,"ev":"sample","series":0,"#), "no samples");
        assert_eq!(Some(traced), telemetry_dump(&run_experiment(&exp), false));
    }

    /// `sweep --json` on a small grid writes the same bytes whether its
    /// points run on one worker or on two.
    #[test]
    fn sweep_json_is_the_same_bytes_for_any_job_count() {
        let json = |jobs: &str| {
            let line = format!(
                "--schemes ppt,dctcp --topo star:4:10:20 --loads 0.3,0.6 --seeds 42,7 \
                 --flows 20 --jobs {jobs} --json"
            );
            let mut out = Vec::new();
            write_sweep(true, &parse_run("sweep", &line), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let serial = json("1");
        assert_eq!(serial.lines().count(), 8, "{serial}");
        assert_eq!(serial, json("2"));
    }

    /// An empty bin prints `n/a` in `compare` and `sweep` as in `figure`:
    /// a Memcached run has no large flow, and its `large avg` was `NaN`.
    #[test]
    fn an_empty_fct_bin_prints_n_a() {
        let line = "--schemes homa --topo star:4:10:20 --workload memcached --flows 20";
        let mut out = Vec::new();
        write_sweep(false, &parse_run("sweep", line), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let row = text.lines().last().unwrap();
        assert!(row.starts_with("Homa") && !text.contains("NaN"), "{text}");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[cells.len() - 3], "n/a", "{row}");
    }

    /// Spec values the workload generators and topology builders assert on
    /// (or divide by) are argument errors like any other: one line, no
    /// backtrace, nothing run.
    #[test]
    fn out_of_range_loads_and_topologies_are_errors_not_panics() {
        let err = |cmd: &str, argv: &[&str]| {
            let rest: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            run_command(cmd, &rest, None).expect("a command").expect_err("must be refused")
        };
        assert_eq!(err("compare", &["--load", "0"]), "--load: load 0 is outside (0, 1]");
        assert_eq!(err("gen", &["--load", "NaN"]), "--load: load NaN is outside (0, 1]");
        assert_eq!(err("sweep", &["--loads", "0.5,1.5"]), "--loads: load 1.5 is outside (0, 1]");
        for (topo, says) in [
            ("star:1:10:20", "a star needs at least 2 hosts"),
            ("star:2:0:20", "the link rate must be above 0 Gbps"),
            ("fattree:3:10", "a fat-tree needs an even k of at least 2"),
            ("fattree:0:10", "a fat-tree needs an even k of at least 2"),
            ("fattree:4:0", "the edge rate must be above 0 Gbps"),
            // Microseconds and Gbps that do not fit the nanosecond clock or a
            // bits-per-second rate (they wrapped in release, panicked in debug).
            ("star:2:10:1000001", "the delay 1000001 us is above 1 s"),
            ("star:2:10:18446744073709552", "the delay 18446744073709552 us is above 1 s"),
            ("star:2:20000000000:20", "the link rate 20000000000 Gbps is too large"),
            ("fattree:4:5000000000", "the edge rate 5000000000 Gbps is too large"),
            // Sizes whose build aborts in the allocator or runs for hours.
            ("star:32769:10:20", "a star takes at most 32768 hosts"),
            ("star:1000000000:10:20", "a star takes at most 32768 hosts"),
            ("fattree:34:10", "a fat-tree takes a k of at most 32"),
            ("fattree:64:10", "a fat-tree takes a k of at most 32"),
        ] {
            for cmd in ["compare", "sweep", "trace", "gen"] {
                assert_eq!(err(cmd, &["--topo", topo]), format!("--topo {topo}: {says}"));
            }
        }
        assert!(err("compare", &["--topo", "star:2:10"]).starts_with("bad --topo 'star:2:10'"));
        assert!(err("compare", &["--topo", "ring"]).starts_with("bad --topo 'ring'"));
        // Fault items name hosts and switches of the topology, probabilities
        // and an outage that ends after it starts; an incast has a sender; a
        // trace fixes the flows; a scheme runs once.
        let star = ["--topo", "star:3:10:20"];
        for (cmd, argv, says) in [
            (
                "compare",
                &["--faults", "down:9:0:10"][..],
                "'down:9:0:10': host 9 is not on the topology (it has 3)",
            ),
            (
                "faults",
                &["--faults", "stall:7:0:10"],
                "'stall:7:0:10': switch 7 is not on the topology (it has 1)",
            ),
            ("compare", &["--faults", "loss=2"], "loss 2 is outside [0, 1]"),
            ("compare", &["--faults", "loss=-1"], "loss -1 is outside [0, 1]"),
            ("trace", &["--faults", "loss=NaN"], "loss NaN is outside [0, 1]"),
            ("report", &["--faults", "ackloss=1.5"], "ackloss 1.5 is outside [0, 1]"),
            (
                "compare",
                &["--faults", "down:0:10:5"],
                "'down:0:10:5': the outage must end after it starts",
            ),
            (
                "compare",
                &["--faults", "down:0:1:18446744073709552"],
                "'down:0:1:18446744073709552': 18446744073709552 us is too large",
            ),
            (
                "faults",
                &["--faults", "stall:0:18446744073709552:1"],
                "'stall:0:18446744073709552:1': 18446744073709552 + 1 us is too large",
            ),
            (
                "trace",
                &["--faults", "stall:0:18446744073709551:1"],
                "'stall:0:18446744073709551:1': 18446744073709551 + 1 us is too large",
            ),
        ] {
            let argv: Vec<&str> = star.iter().chain(argv).copied().collect();
            assert_eq!(err(cmd, &argv), format!("--faults: {says}"));
        }
        // The sampler runs only where something prints what it records.
        for cmd in ["compare", "faults"] {
            let says = format!("unknown option --telemetry for '{cmd}'");
            assert!(err(cmd, &["--telemetry", "10us"]).starts_with(&says), "{cmd}");
            assert!(err(cmd, &["--telemetry"]).starts_with(&says), "{cmd}");
        }
        for interval in ["18446744073709552", "18446744073709552us", "18446744073710ms"] {
            assert_eq!(
                err("report", &["--telemetry", interval]),
                format!("--telemetry: interval '{interval}' is too large")
            );
        }
        for cmd in ["compare", "sweep", "trace"] {
            let says = "--flows 0: a generated workload needs at least 1 flow";
            assert_eq!(err(cmd, &["--flows", "0"]), says);
        }
        // A list the allocator cannot hold is refused before it is drawn.
        for cmd in ["compare", "sweep", "trace", "gen"] {
            for flows in ["10000001", "100000000000", "18446744073709551615"] {
                let says =
                    format!("--flows {flows}: a generated workload takes at most 10000000 flows");
                assert_eq!(err(cmd, &["--flows", flows]), says);
            }
        }
        assert_eq!(
            err("figure", &["--ids", "table3_params", "--flows", "100000000000"]),
            "--flows 100000000000: a generated workload takes at most 10000000 flows"
        );
        assert_eq!(
            err("compare", &["--incast", "0"]),
            "--incast 0: an incast needs at least 1 sender"
        );
        for key in ["workload", "load", "flows", "seed", "incast"] {
            let argv = ["--trace", "flows.csv", &format!("--{key}"), "1"];
            let says = format!("--{key} cannot be given with --trace: the trace fixes the flows");
            assert_eq!(err("compare", &argv), says);
        }
        assert_eq!(err("trace", &["--schemes", "ppt,ppt"]), "--schemes: 'ppt' repeats PPT");
        assert_eq!(
            err("compare", &["--schemes", "ppt-fill:0.5,dctcp,ppt-fill:0.50"]),
            "--schemes: 'ppt-fill:0.50' repeats PPT fill 50%×MW"
        );
        // A scheme's fraction is finite and above 0; RC3's cap is a share
        // of the buffer, PPT's fill at most 4×MW.
        for (cmd, id, max) in [
            ("compare", "ppt-fill:NaN", 4),
            ("sweep", "ppt-fill:1e300", 4),
            ("trace", "ppt-fill:0", 4),
            ("compare", "ppt-fill:4.5", 4),
            ("compare", "rc3-cap:-0.5", 1),
            ("sweep", "rc3-cap:inf", 1),
            ("trace", "rc3-cap:1.5", 1),
        ] {
            let says = format!("--schemes: '{id}': the fraction must be in (0, {max}]");
            assert_eq!(err(cmd, &["--schemes", &format!("ppt,{id}")]), says);
        }
        let fill_4 = ppt::core::PptKnobs { fill: 4.0, ..ppt::core::PptKnobs::PAPER };
        assert_eq!(ppt::spec::parse_scheme("ppt-fill:4"), Some(Scheme::Lcp(fill_4)));
        assert_eq!(ppt::spec::parse_scheme("rc3-cap:1"), Some(Scheme::Rc3BufferCap(1.0)));
        // A list option names each value once, compared as values.
        for (cmd, key, list, says) in [
            ("sweep", "loads", "0.5,0.5", "'0.5' repeats 0.5"),
            ("sweep", "loads", "0.3,0.5,0.50", "'0.50' repeats 0.5"),
            ("sweep", "seeds", "1,1", "'1' repeats 1"),
            ("sweep", "seeds", "7,01,1", "'1' repeats 1"),
            (
                "figure",
                "ids",
                "table3_params,table3_params",
                "'table3_params' repeats table3_params",
            ),
        ] {
            assert_eq!(err(cmd, &[&format!("--{key}"), list]), format!("--{key}: {says}"));
        }
        assert_eq!(
            parse_topo("star:2:1:1"),
            Ok(TopoKind::Star { n: 2, rate_gbps: 1, delay_us: 1 }),
            "the smallest star is still a topology"
        );
    }
}
