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

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ppt::figures::{self, FigureOpts, FIGURES};
use ppt::harness::{
    collect_metrics, run_experiment, run_experiment_traced, Experiment, FaultCmd, FaultSpec,
    Scheme, TelemetrySpec, TelemetrySummary, TopoKind, TraceData,
};
use ppt::netsim::{SanLevel, SimDuration, SimTime};
use ppt::stats::{analyze_lcp, analyze_recovery};
use ppt::sweep::{run_points, SweepPoint, SweepSpec};
use ppt::trace::JsonObject;
use ppt::workloads::{all_to_all, incast, FlowSpec, SizeDistribution, WorkloadSpec};

mod args;

use args::Args;

const USAGE: &str = "\
pptlab — PPT reproduction laboratory

USAGE:
  pptlab compare [OPTIONS]     run schemes on one workload and print FCT rows
  pptlab sweep [OPTIONS]       run a scheme x load x seed grid and print one row per point
  pptlab trace [OPTIONS]       record a traced run: events.jsonl + metrics.json
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
  --schemes a,b,c   comma-separated scheme ids        [default: ppt,dctcp / ppt]
  --topo ID         (also gen) testbed | oversub | nonoversub | highspeed |
                    star:<n>:<gbps>:<delay_us> | fattree:<k>:<edge_gbps>
                                                      [default: testbed]
  --workload ID     (also gen) websearch | datamining | memcached
                                                      [default: websearch]
  --load F          (not sweep; also gen) network load in (0,1] [default: 0.5]
  --flows N         (also gen, figure) number of flows [default: 400 / 80 / per figure]
  --seed N          (not sweep; also gen, figure) workload seed [default: 42]
  --jobs N          worker threads; results are identical for any N [default: 1]
  --incast N        (not sweep) N-to-1 incast with N senders instead of all-to-all
  --trace FILE      (not sweep) replay a CSV flow trace instead of generating one
                    (columns: src,dst,size_bytes,start_ns,first_write_bytes)
  --loads a,b,c     (sweep) grid of loads             [default: 0.3,0.5,0.7]
  --seeds a,b,c     (sweep) grid of seeds             [default: 42]
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
  --telemetry [IVL] enable the deterministic continuous-telemetry sampler at
                    interval IVL: <n>ns | <n>us | <n>ms | bare <n> =
                    microseconds [default: 10us; report always samples].
                    Sampling only reads state, so traces and FCTs stay
                    byte-identical with or without it.
  --prof            (report) also run the wall-clock dispatch profiler and
                    include its (non-deterministic) breakdown in output
  --faults SPEC     deterministic fault schedule [faults default: loss=0.01].
                    SPEC is comma-separated items:
                      loss=F        per-packet data-loss probability
                      ackloss=F     per-packet control-loss probability
                      lp            confine ackloss to priorities >= 4 (LP ACKs)
                      seed=N        fault RNG seed     [default: 1]
                      down:H:F:U    host H uplink down from F us until U us
                      stall:S:A:D   switch S stalled for D us starting at A us
                    e.g. --faults loss=0.01,seed=7,down:0:0:500

ENVIRONMENT:
  PPT_DUMP_DIR=DIR  write each abnormal stop's flight-recorder dump to its own
                    file under DIR instead of stderr
";

/// The one scheme-id table: `pptlab schemes` prints the ids and
/// [`parse_scheme`] searches them.
const SCHEMES: &[(&str, Scheme)] = &[
    ("dctcp", Scheme::Dctcp),
    ("tcp10", Scheme::Tcp10),
    ("halfback", Scheme::Halfback),
    ("expresspass", Scheme::ExpressPass),
    ("ppt", Scheme::Ppt),
    ("ppt-noecn", Scheme::PptNoLcpEcn),
    ("ppt-noewd", Scheme::PptNoEwd),
    ("ppt-nosched", Scheme::PptNoScheduling),
    ("ppt-noident", Scheme::PptNoIdentification),
    // The one parameterised row: `parse_scheme` reads <f> from the id.
    ("ppt-fill:<f>", Scheme::PptFill(f64::NAN)),
    ("rc3", Scheme::Rc3),
    ("pias", Scheme::Pias),
    ("homa", Scheme::Homa),
    ("aeolus", Scheme::Aeolus),
    ("ndp", Scheme::Ndp),
    ("hpcc", Scheme::Hpcc),
    ("powertcp", Scheme::PowerTcp),
    ("hpcc-ppt", Scheme::HpccPpt),
    ("swift", Scheme::Swift),
    ("swift-ppt", Scheme::SwiftPpt),
    ("hypothetical", Scheme::Hypothetical(1.0)),
];

fn parse_scheme(id: &str) -> Option<Scheme> {
    if let Some(frac) = id.strip_prefix("ppt-fill:") {
        return frac.parse().ok().map(Scheme::PptFill);
    }
    SCHEMES.iter().find(|(key, _)| *key == id).map(|(_, scheme)| scheme.clone())
}

/// Parse a `--topo` id. Sizes and rates the topology builders would
/// assert on (or divide by) are refused here, as errors.
fn parse_topo(id: &str) -> Result<TopoKind, String> {
    let bad = || format!("bad --topo '{id}' (try `pptlab topos`)");
    let fields = |rest: &str, n: usize| -> Result<Vec<u64>, String> {
        let parts: Result<Vec<u64>, _> = rest.split(':').map(str::parse).collect();
        parts.ok().filter(|p| p.len() == n).ok_or_else(bad)
    };
    Ok(match id {
        "testbed" => TopoKind::PaperTestbed,
        "oversub" => TopoKind::Oversubscribed,
        "nonoversub" => TopoKind::NonOversubscribed,
        "highspeed" => TopoKind::HighSpeed,
        _ => {
            if let Some(rest) = id.strip_prefix("fattree:") {
                let p = fields(rest, 2)?;
                let (k, edge_gbps) = (p[0] as usize, p[1]);
                if k < 2 || !k.is_multiple_of(2) {
                    return Err(format!("--topo {id}: a fat-tree needs an even k of at least 2"));
                }
                if edge_gbps == 0 {
                    return Err(format!("--topo {id}: the edge rate must be above 0 Gbps"));
                }
                return Ok(TopoKind::FatTree { k, edge_gbps });
            }
            let p = fields(id.strip_prefix("star:").ok_or_else(bad)?, 3)?;
            let (n, rate_gbps, delay_us) = (p[0] as usize, p[1], p[2]);
            if n < 2 {
                return Err(format!("--topo {id}: a star needs at least 2 hosts"));
            }
            if rate_gbps == 0 {
                return Err(format!("--topo {id}: the link rate must be above 0 Gbps"));
            }
            TopoKind::Star { n, rate_gbps, delay_us }
        }
    })
}

/// A network load is a fraction of the edge rate in (0, 1]; the workload
/// generators assert it.
fn check_load(key: &str, load: f64) -> Result<f64, String> {
    if load > 0.0 && load <= 1.0 {
        Ok(load)
    } else {
        Err(format!("--{key}: load {load} is outside (0, 1]"))
    }
}

fn parse_workload(id: &str) -> Option<SizeDistribution> {
    Some(match id {
        "websearch" => SizeDistribution::web_search(),
        "datamining" => SizeDistribution::data_mining(),
        "memcached" => SizeDistribution::memcached_w1(),
        _ => return None,
    })
}

/// Everything the single-workload commands share: topology, workload,
/// and the concrete flow list (generated, incast, or replayed from CSV).
struct RunSetup {
    topo: TopoKind,
    dist: SizeDistribution,
    load: f64,
    flows: usize,
    seed: u64,
    flow_list: Vec<FlowSpec>,
}

impl RunSetup {
    /// The one place a CLI invocation becomes an [`Experiment`].
    fn experiment(&self, scheme: &Scheme, opts: &RunOpts) -> Experiment {
        opts.apply(Experiment::new(self.topo, scheme.clone(), self.flow_list.clone()))
    }
}

fn parse_schemes(args: &Args, default: &str) -> Result<Vec<(String, Scheme)>, String> {
    args.get("schemes")
        .unwrap_or(default)
        .split(',')
        .map(|s| {
            let id = s.trim();
            parse_scheme(id)
                .map(|scheme| (id.replace(':', "-"), scheme))
                .ok_or_else(|| format!("unknown scheme '{id}' (try `pptlab schemes`)"))
        })
        .collect()
}

fn topo_arg(args: &Args) -> Result<TopoKind, String> {
    parse_topo(args.get("topo").unwrap_or("testbed"))
}

fn workload_arg(args: &Args) -> Result<SizeDistribution, String> {
    parse_workload(args.get("workload").unwrap_or("websearch"))
        .ok_or_else(|| "bad --workload (try `pptlab workloads`)".to_string())
}

fn parse_setup(args: &Args, default_flows: usize) -> Result<RunSetup, String> {
    let topo = topo_arg(args)?;
    let dist = workload_arg(args)?;
    let load = check_load("load", args.parse_or("load", 0.5)?)?;
    let flows: usize = args.parse_or("flows", default_flows)?;
    let seed: u64 = args.parse_or("seed", 42)?;

    let spec = WorkloadSpec::new(dist.clone(), load, topo.edge_rate(), flows, seed);
    let flow_list = if let Some(path) = args.get("trace") {
        let file = std::fs::File::open(path).map_err(|e| format!("--trace {path}: {e}"))?;
        let flows = ppt::workloads::read_csv(std::io::BufReader::new(file))?;
        if let Some(bad) = flows.iter().find(|f| f.src >= topo.hosts() || f.dst >= topo.hosts()) {
            return Err(format!(
                "trace references host {} but topo has {}",
                bad.src.max(bad.dst),
                topo.hosts()
            ));
        }
        flows
    } else {
        match args.get("incast") {
            Some(n) => {
                let n: usize = n.parse().map_err(|_| "--incast expects a count".to_string())?;
                if n + 1 > topo.hosts() {
                    return Err(format!(
                        "--incast {n} needs {} hosts, topo has {}",
                        n + 1,
                        topo.hosts()
                    ));
                }
                incast(n, &spec)
            }
            None => all_to_all(topo.hosts(), &spec),
        }
    };
    Ok(RunSetup { topo, dist, load, flows, seed, flow_list })
}

/// Parse a `--faults` spec (see USAGE) into a harness [`FaultSpec`].
fn parse_faults(spec: &str) -> Result<FaultSpec, String> {
    fn triple(item: &str, rest: &str) -> Result<(usize, u64, u64), String> {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("--faults: '{item}' wants three ':'-separated numbers"));
        }
        let bad = |p: &str| format!("--faults: cannot parse '{p}' in '{item}'");
        Ok((
            parts[0].parse().map_err(|_| bad(parts[0]))?,
            parts[1].parse().map_err(|_| bad(parts[1]))?,
            parts[2].parse().map_err(|_| bad(parts[2]))?,
        ))
    }
    let mut f = FaultSpec::new(1);
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(v) = item.strip_prefix("loss=") {
            f.data_loss = v.parse().map_err(|_| format!("--faults: bad loss '{v}'"))?;
        } else if let Some(v) = item.strip_prefix("ackloss=") {
            f.ack_loss = v.parse().map_err(|_| format!("--faults: bad ackloss '{v}'"))?;
        } else if item == "lp" {
            f.lp_acks_only = true;
        } else if let Some(v) = item.strip_prefix("seed=") {
            f.seed = v.parse().map_err(|_| format!("--faults: bad seed '{v}'"))?;
        } else if let Some(rest) = item.strip_prefix("down:") {
            let (host, from_us, until_us) = triple(item, rest)?;
            f.events.push(FaultCmd::HostUplinkDown {
                host,
                from: SimTime(from_us * 1_000),
                until: SimTime(until_us * 1_000),
            });
        } else if let Some(rest) = item.strip_prefix("stall:") {
            let (switch, at_us, dur_us) = triple(item, rest)?;
            f.events.push(FaultCmd::SwitchStall {
                switch,
                at: SimTime(at_us * 1_000),
                duration: SimDuration::from_micros(dur_us),
            });
        } else {
            return Err(format!("--faults: unknown item '{item}'"));
        }
    }
    Ok(f)
}

/// Parse a sampling interval: `<n>ns`, `<n>us`, `<n>ms`, or a bare
/// number meaning microseconds.
fn parse_interval(v: &str) -> Result<SimDuration, String> {
    let bad = || format!("bad interval '{v}' (want <n>ns | <n>us | <n>ms | <n>)");
    let (digits, mult) = if let Some(d) = v.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = v.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = v.strip_suffix("ms") {
        (d, 1_000_000)
    } else {
        (v, 1_000)
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    if n == 0 {
        return Err(bad());
    }
    Ok(SimDuration(n * mult))
}

/// Every per-run option of the five run commands, parsed once from
/// [`Args`] and laid onto each experiment by [`RunOpts::apply`].
struct RunOpts {
    faults: Option<FaultSpec>,
    telemetry: Option<TelemetrySpec>,
    /// Scale factor for every buffer-denominated threshold.
    buffers: Option<f64>,
    pfc: bool,
    sanitize: Option<SanLevel>,
    dump_dir: Option<PathBuf>,
    jobs: usize,
}

impl RunOpts {
    /// `faults` always injects and `report` always samples, so those two
    /// commands fall back to a default spec where the others fall back
    /// to off. A bare `--telemetry` / `--sanitize` means 10 µs / epoch.
    fn parse(cmd: &str, args: &Args, dump_dir: Option<PathBuf>) -> Result<RunOpts, String> {
        let faults = args
            .get("faults")
            .or((cmd == "faults").then_some("loss=0.01"))
            .map(parse_faults)
            .transpose()?;
        let telemetry = match args.get("telemetry").or((cmd == "report").then_some("10us")) {
            None => None,
            Some(v) => {
                let v = if v == "true" { "10us" } else { v };
                let interval = parse_interval(v).map_err(|e| format!("--telemetry: {e}"))?;
                let spec = TelemetrySpec::new(interval);
                Some(if args.flag("prof") { spec.with_prof() } else { spec })
            }
        };
        let buffers = match args.get("buffers") {
            None => None,
            Some(v) => {
                let f: f64 = v.parse().map_err(|_| format!("--buffers: cannot parse '{v}'"))?;
                if f.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(format!("--buffers: scale must be positive, got '{v}'"));
                }
                Some(f)
            }
        };
        let pfc = match args.get("switch") {
            None | Some("default") => false,
            Some("pfc") => true,
            Some(v) => return Err(format!("--switch: unknown mode '{v}' (default | pfc)")),
        };
        let sanitize = match args.get("sanitize") {
            None => None,
            Some(v) => {
                let level = if v == "true" { "epoch" } else { v };
                Some(SanLevel::parse(level).ok_or_else(|| {
                    format!("--sanitize: unknown level '{level}' (event | epoch | end)")
                })?)
            }
        };
        let jobs = args.parse_or("jobs", 1)?;
        Ok(RunOpts { faults, telemetry, buffers, pfc, sanitize, dump_dir, jobs })
    }

    /// Lay the options onto one experiment. Observers (sanitizer,
    /// telemetry) never change results; faults, buffers and PFC do.
    fn apply(&self, mut exp: Experiment) -> Experiment {
        exp.faults = self.faults.clone();
        exp.telemetry = self.telemetry;
        if let Some(f) = self.buffers {
            exp.env = exp.env.scale_buffers(f);
        }
        exp.env.pfc = self.pfc;
        exp.sanitize = self.sanitize;
        exp.dump_dir = self.dump_dir.clone();
        exp
    }
}

fn cmd_compare(args: &Args, opts: &RunOpts) -> Result<(), String> {
    let schemes = parse_schemes(args, "ppt,dctcp")?;
    let setup = parse_setup(args, 400)?;
    let json_mode = args.flag("json");
    let with_metrics = args.flag("metrics");

    if !json_mode {
        println!(
            "topo={:?} workload={} load={} flows={} seed={}\n",
            setup.topo,
            setup.dist.name(),
            setup.load,
            setup.flows,
            setup.seed
        );
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
            "scheme", "overall(us)", "small avg", "small p99", "large avg", "done%", "drops"
        );
    }
    // One experiment per scheme, executed by the shared sweep runner:
    // results come back in scheme order no matter how many workers ran.
    let results = run_points(schemes.len(), opts.jobs, |i| {
        let outcome = run_experiment(&setup.experiment(&schemes[i].1, opts));
        let metrics = with_metrics.then(|| collect_metrics(&outcome).to_json());
        (outcome.fct.summary(), outcome.completion_ratio, outcome.counters.dropped, metrics)
    });

    let mut rows = String::from("[");
    let mut metric_blocks: Vec<(String, String)> = Vec::new();
    for (i, ((_, scheme), (s, completion_ratio, drops, metrics))) in
        schemes.iter().zip(results).enumerate()
    {
        let name = scheme.name();
        if json_mode {
            let mut row = JsonObject::new()
                .str("scheme", &name)
                .f64("overall_avg_us", s.overall_avg_us)
                .f64("small_avg_us", s.small_avg_us)
                .f64("small_p99_us", s.small_p99_us)
                .f64("large_avg_us", s.large_avg_us)
                .f64("completion_ratio", completion_ratio)
                .u64("drops", drops);
            if let Some(m) = &metrics {
                row = row.raw("metrics", m.trim_end());
            }
            if i > 0 {
                rows.push(',');
            }
            rows.push_str(&row.finish());
        } else {
            println!(
                "{:<24} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8.1} {:>10}",
                name,
                s.overall_avg_us,
                s.small_avg_us,
                s.small_p99_us,
                s.large_avg_us,
                completion_ratio * 100.0,
                drops
            );
            if let Some(m) = metrics {
                metric_blocks.push((name, m));
            }
        }
    }
    if json_mode {
        rows.push(']');
        let doc = JsonObject::new()
            .str("topo", &format!("{:?}", setup.topo))
            .str("workload", setup.dist.name())
            .f64("load", setup.load)
            .u64("flows", setup.flows as u64)
            .u64("seed", setup.seed)
            .raw("schemes", &rows)
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

/// Write a captured stream as JSON Lines, line by line: the file's text
/// never exists in memory beside the events it is made from.
fn write_events(path: &Path, trace: &TraceData) -> Result<(), String> {
    let write = || {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        trace.write_jsonl(&mut w)?;
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_trace(args: &Args, opts: &RunOpts) -> Result<(), String> {
    let schemes = parse_schemes(args, "ppt")?;
    let setup = parse_setup(args, 80)?;
    let out_dir = PathBuf::from(args.get("out").unwrap_or("."));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("--out {}: {e}", out_dir.display()))?;

    // Traced runs go through the shared sweep runner; file writes and
    // report lines stay on this thread, in scheme order, so output is
    // byte-identical for any --jobs.
    let results = run_points(schemes.len(), opts.jobs, |i| {
        let (outcome, trace) = run_experiment_traced(&setup.experiment(&schemes[i].1, opts));
        (trace, collect_metrics(&outcome).to_json())
    });

    let single = schemes.len() == 1;
    for ((id, scheme), (trace, metrics_json)) in schemes.iter().zip(results) {
        let (ev_path, m_path) = if single {
            (out_dir.join("events.jsonl"), out_dir.join("metrics.json"))
        } else {
            (out_dir.join(format!("{id}.events.jsonl")), out_dir.join(format!("{id}.metrics.json")))
        };
        write_events(&ev_path, &trace)?;
        std::fs::write(&m_path, metrics_json).map_err(|e| format!("{}: {e}", m_path.display()))?;
        println!(
            "{}: {} events -> {}, metrics -> {}",
            scheme.name(),
            trace.events.len(),
            ev_path.display(),
            m_path.display()
        );
        let lcp = analyze_lcp(&trace.events, setup.topo.base_rtt());
        if !lcp.loops.is_empty() {
            print!("{}", lcp.render());
        }
    }
    Ok(())
}

fn cmd_faults(args: &Args, opts: &RunOpts) -> Result<(), String> {
    let schemes = parse_schemes(args, "ppt")?;
    let setup = parse_setup(args, 80)?;
    let out_dir = args.get("out").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
    }

    let results = run_points(schemes.len(), opts.jobs, |i| {
        let (outcome, trace) = run_experiment_traced(&setup.experiment(&schemes[i].1, opts));
        (
            trace,
            outcome.report.faults,
            outcome.completion_ratio,
            outcome.report.flows_completed,
            outcome.report.flows_total,
        )
    });

    // One JSON line per scheme: the recovery summary the fault suite keys
    // off, stable for any --jobs.
    for ((id, scheme), (trace, engine, completion_ratio, done, total)) in
        schemes.iter().zip(results)
    {
        if let Some(dir) = &out_dir {
            write_events(&dir.join(format!("{id}.faults.events.jsonl")), &trace)?;
        }
        let rec = analyze_recovery(&trace.events, engine);
        let lcp = analyze_lcp(&trace.events, setup.topo.base_rtt());
        let doc = JsonObject::new()
            .str("scheme", &scheme.name())
            .u64("flows_completed", done as u64)
            .u64("flows_total", total as u64)
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

fn cmd_sweep(args: &Args, opts: &RunOpts) -> Result<(), String> {
    let schemes = parse_schemes(args, "ppt,dctcp")?;
    let topo = topo_arg(args)?;
    let dist = workload_arg(args)?;
    let loads: Vec<f64> = args.parse_list_or("loads", &[0.3, 0.5, 0.7])?;
    loads.iter().try_for_each(|&load| check_load("loads", load).map(drop))?;
    let seeds = args.parse_list_or("seeds", &[42u64])?;
    let flows: usize = args.parse_or("flows", 400)?;
    let jobs = opts.jobs;
    let json_mode = args.flag("json");

    let scheme_list: Vec<Scheme> = schemes.iter().map(|(_, s)| s.clone()).collect();
    let mut spec =
        SweepSpec::new().jobs(jobs).grid(topo, &scheme_list, &dist, &loads, flows, &seeds);
    spec.points = spec
        .points
        .into_iter()
        .map(|p| SweepPoint { label: p.label, exp: opts.apply(p.exp) })
        .collect();
    if !json_mode {
        println!(
            "sweep: {} points ({} schemes x {} loads x {} seeds) on {topo:?}, \
             workload={} flows={flows} jobs={jobs}\n",
            spec.len(),
            scheme_list.len(),
            loads.len(),
            seeds.len(),
            dist.name(),
        );
        println!(
            "{:<34} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}",
            "point", "overall(us)", "small avg", "small p99", "large avg", "done%", "drops"
        );
    }
    for r in spec.run() {
        let s = r.fct.summary();
        if json_mode {
            let mut doc = JsonObject::new()
                .str("point", &r.label)
                .str("scheme", &r.scheme.name())
                .f64("overall_avg_us", s.overall_avg_us)
                .f64("small_avg_us", s.small_avg_us)
                .f64("small_p99_us", s.small_p99_us)
                .f64("large_avg_us", s.large_avg_us)
                .f64("completion_ratio", r.completion_ratio)
                .u64("drops", r.counters.dropped);
            if let Some(t) = &r.telemetry {
                doc = doc
                    .u64("telemetry_samples", t.samples)
                    .u64("oscillating_series", t.oscillating().count() as u64);
            }
            println!("{}", doc.finish());
        } else {
            println!(
                "{:<34} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8.1} {:>10}",
                r.label,
                s.overall_avg_us,
                s.small_avg_us,
                s.small_p99_us,
                s.large_avg_us,
                r.completion_ratio * 100.0,
                r.counters.dropped
            );
        }
    }
    Ok(())
}

/// Render the `pptlab report` terminal block for one scheme.
fn render_report(name: &str, t: &TelemetrySummary) -> String {
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
    let truncated: Vec<_> = t.series.iter().filter(|a| a.evicted > 0).collect();
    if let Some(a) = truncated.first() {
        let _ = writeln!(
            out,
            "{} series kept the last {} of {} samples; sample coarser or raise the ring",
            truncated.len(),
            a.points,
            a.points as u64 + a.evicted,
        );
    }
    let oscillating: Vec<_> = t.oscillating().collect();
    let _ =
        writeln!(out, "oscillating series: {} of {} analyzed", oscillating.len(), t.series.len());
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

fn cmd_report(args: &Args, opts: &RunOpts) -> Result<(), String> {
    let schemes = parse_schemes(args, "ppt")?;
    let setup = parse_setup(args, 80)?;
    let prof = args.flag("prof");
    let json_mode = args.flag("json");
    let out_dir = args.get("out").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
    }

    let results = run_points(schemes.len(), opts.jobs, |i| {
        let outcome = run_experiment(&setup.experiment(&schemes[i].1, opts));
        let summary = outcome.telemetry.clone().expect("report runs always enable telemetry");
        // The raw sampled points as TraceEvent::Sample JSONL (Profile rows
        // only under --prof: they are wall-clock noise).
        let mut dump = String::new();
        if let Some(t) = outcome.sim.telemetry() {
            t.dump_events(&mut dump, prof);
        }
        (summary, dump)
    });

    // All printing happens here, in scheme order, so output is
    // byte-identical for any --jobs (profile rows excepted, by design).
    for ((id, scheme), (summary, dump)) in schemes.iter().zip(results) {
        let name = scheme.name();
        let report_json = JsonObject::new()
            .str("scheme", &name)
            .raw("telemetry", &summary.to_json(prof))
            .finish();
        if let Some(dir) = &out_dir {
            let rp = dir.join(format!("{id}.report.json"));
            std::fs::write(&rp, &report_json).map_err(|e| format!("{}: {e}", rp.display()))?;
            let tp = dir.join(format!("{id}.telemetry.jsonl"));
            std::fs::write(&tp, &dump).map_err(|e| format!("{}: {e}", tp.display()))?;
        }
        if json_mode {
            println!("{report_json}");
        } else {
            print!("{}", render_report(&name, &summary));
        }
    }
    Ok(())
}

const RUN_KEYS: &[&str] =
    &["schemes", "jobs", "faults", "telemetry", "buffers", "switch", "sanitize"];
const SETUP_KEYS: &[&str] = &["topo", "workload", "load", "flows", "seed", "trace", "incast"];

/// The option-taking commands: name, the option keys each accepts, entry
/// point. (`gen` runs nothing, so it declares no [`RunOpts`] key.)
type Cmd = fn(&Args, &RunOpts) -> Result<(), String>;
const COMMANDS: &[(&str, &[&[&str]], Cmd)] = &[
    ("compare", &[RUN_KEYS, SETUP_KEYS, &["json", "metrics"]], cmd_compare),
    ("sweep", &[RUN_KEYS, &["topo", "workload", "loads", "seeds", "flows", "json"]], cmd_sweep),
    ("trace", &[RUN_KEYS, SETUP_KEYS, &["out"]], cmd_trace),
    ("faults", &[RUN_KEYS, SETUP_KEYS, &["out"]], cmd_faults),
    ("report", &[RUN_KEYS, SETUP_KEYS, &["out", "json", "prof"]], cmd_report),
    ("gen", &[&["topo", "workload", "load", "flows", "seed"]], cmd_gen),
    ("figure", &[&["ids", "flows", "seed", "jobs", "out"]], cmd_figure),
];

/// Regenerate paper figures from the one table in [`ppt::figures`]: to
/// stdout, or one `<id>.txt` per figure under `--out`. Stops at the first
/// figure that fails, naming it; its file is left as it was.
fn cmd_figure(args: &Args, opts: &RunOpts) -> Result<(), String> {
    let ids = args.get("ids").ok_or("figure needs --ids <id,...|all> (try `pptlab figures`)")?;
    let selected: Vec<&figures::Figure> = match ids {
        "all" => FIGURES.iter().collect(),
        _ => ids
            .split(',')
            .map(|id| {
                figures::find(id.trim())
                    .ok_or_else(|| format!("unknown figure '{id}' (try `pptlab figures`)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let fig_opts = FigureOpts {
        flows: args.parse_opt("flows")?,
        seed: args.parse_or("seed", 42)?,
        jobs: opts.jobs,
    };
    let out_dir = args.get("out").map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
    }
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

fn cmd_gen(args: &Args, _: &RunOpts) -> Result<(), String> {
    let topo = topo_arg(args)?;
    let load = check_load("load", args.parse_or("load", 0.5)?)?;
    let flows: usize = args.parse_or("flows", 400)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let spec = WorkloadSpec::new(workload_arg(args)?, load, topo.edge_rate(), flows, seed);
    let list = all_to_all(topo.hosts(), &spec);
    ppt::workloads::write_csv(std::io::stdout().lock(), &list).map_err(|e| e.to_string())
}

/// Run `cmd` if it is one of the option-taking [`COMMANDS`]. Every option
/// is parsed here, once; a bad one prints the usage.
fn run_command(
    cmd: &str,
    rest: &[String],
    dump_dir: Option<PathBuf>,
) -> Option<Result<(), String>> {
    let (_, keys, run) = COMMANDS.iter().find(|(name, ..)| *name == cmd)?;
    let parsed = Args::parse(cmd, rest, keys)
        .and_then(|args| Ok((RunOpts::parse(cmd, &args, dump_dir)?, args)));
    Some(match parsed {
        Ok((opts, args)) => run(&args, &opts),
        Err(e) => Err(format!("{e}\n\n{USAGE}")),
    })
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
    match cmd {
        "schemes" => {
            for (id, _) in SCHEMES {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        "figures" => {
            for fig in FIGURES {
                println!("{}", fig.id);
            }
            ExitCode::SUCCESS
        }
        "topos" => {
            println!("testbed            15 hosts, 10G, 80us RTT (paper §6.1)");
            println!("oversub            144 hosts, 40/100G, 1.4:1 (paper §6.2)");
            println!("nonoversub         144 hosts, 10/40G, 1:1 (appendix E)");
            println!("highspeed          144 hosts, 100/400G (§6.3.2)");
            println!("star:<n>:<gbps>:<delay_us>   custom single switch");
            println!("fattree:<k>:<edge_gbps>      k-ary fat-tree (k^3/4 hosts)");
            ExitCode::SUCCESS
        }
        "workloads" => {
            for (id, d) in [
                ("websearch", SizeDistribution::web_search()),
                ("datamining", SizeDistribution::data_mining()),
                ("memcached", SizeDistribution::memcached_w1()),
            ] {
                println!(
                    "{id:<12} mean {:>10.0} B, {:>5.1}% <=100KB",
                    d.mean_bytes(),
                    d.cdf(100_000) * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every id `pptlab schemes` prints must parse (`ppt-fill:0.75`
    /// standing in for the parameterised row), to pairwise-distinct
    /// display names — no two rows may alias one scheme.
    #[test]
    fn every_listed_scheme_id_parses_to_a_distinct_scheme() {
        let mut names: Vec<String> = SCHEMES
            .iter()
            .map(|(id, _)| {
                let id = id.replace("<f>", "0.75");
                parse_scheme(&id)
                    .unwrap_or_else(|| panic!("listed id '{id}' does not parse"))
                    .name()
            })
            .collect();
        // The ids are `Scheme::all()` minus RC3's buffer cap, a figure-only variant.
        names.push(Scheme::Rc3BufferCap(0.5).name());
        names.sort();
        let mut all: Vec<String> = Scheme::all().iter().map(Scheme::name).collect();
        all.sort();
        assert_eq!(names, all, "the id table and Scheme::all() disagree");
        names.dedup();
        assert_eq!(names.len(), all.len(), "two scheme ids share a display name: {names:?}");
        assert_eq!(parse_scheme("ppt-fill:<f>"), None, "the placeholder itself is not an id");
        assert_eq!(parse_scheme("nope"), None);
    }

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
            let summary = outcome.telemetry.expect("telemetry was enabled");
            (summary.samples, summary.series.len(), render_report("DCTCP", &summary))
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
        ] {
            for cmd in ["compare", "sweep", "trace", "gen"] {
                assert_eq!(err(cmd, &["--topo", topo]), format!("--topo {topo}: {says}"));
            }
        }
        assert!(err("compare", &["--topo", "star:2:10"]).starts_with("bad --topo 'star:2:10'"));
        assert!(err("compare", &["--topo", "ring"]).starts_with("bad --topo 'ring'"));
        assert_eq!(
            parse_topo("star:2:1:1"),
            Ok(TopoKind::Star { n: 2, rate_gbps: 1, delay_us: 1 }),
            "the smallest star is still a topology"
        );
    }
}
