//! The run grammar: every value a `pptlab` command line names — scheme,
//! topology, workload, load, fault schedule, interval — is parsed here,
//! once, and a run command's options become [`Experiment`]s through
//! [`Run::parse`]. Scheme, topology and workload ids are tables that
//! parsing searches and the `pptlab` listings print.

use std::collections::HashMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use netsim::{FaultSchedule, HostId, SanLevel, SimDuration, SimTime, SwitchId};
use workloads::{all_to_all, incast, FlowSpec, SizeDistribution, WorkloadSpec};

use crate::harness::{Experiment, Scheme, TelemetrySpec, TopoKind};
use crate::sweep::{grid_cells, Cell};
use ppt_core::PptKnobs;

/// Parsed `--key value` pairs.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parse the `--key value --key2 value2 …` list of subcommand `cmd`.
    /// A `--key` followed by another option (or by nothing) is a boolean
    /// flag and stores `"true"`. Bare tokens, keys outside `accepted` and
    /// repeated keys are rejected: a misspelt or doubled option must not
    /// silently run a different experiment from the one asked for.
    pub fn parse(cmd: &str, argv: &[String], accepted: &[&[&str]]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            let key =
                tok.strip_prefix("--").ok_or_else(|| format!("expected --option, got '{tok}'"))?;
            if !accepted.iter().any(|keys| keys.contains(&key)) {
                return Err(format!("unknown option --{key} for '{cmd}'"));
            }
            let val = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => "true".to_string(),
            };
            if values.insert(key.to_string(), val).is_some() {
                return Err(format!("option --{key} given more than once"));
            }
        }
        Ok(Args { values })
    }

    /// Raw value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// True when `--key` was given as a bare flag (or as `--key true`).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true"))
    }

    /// Parse `--key` as `T`; `None` when absent.
    pub fn parse_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot parse '{v}'")))
            .transpose()
    }

    /// Parse `--key` as `T`, defaulting when absent.
    pub fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Parse `--key` as a comma-separated list of `T`, defaulting when
    /// absent. A value given twice (`0.5,0.50`) is an error: the grid would
    /// run its points twice.
    pub fn parse_list_or<T: FromStr + Clone + PartialEq + Display>(
        &self,
        key: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        let Some(v) = self.get(key) else { return Ok(default.to_vec()) };
        let mut list: Vec<T> = Vec::new();
        for p in v.split(',').map(str::trim) {
            let value = p.parse().map_err(|_| format!("--{key}: cannot parse '{p}'"))?;
            if let Some(earlier) = list.iter().find(|&e| *e == value) {
                return Err(format!("--{key}: '{p}' repeats {earlier}"));
            }
            list.push(value);
        }
        Ok(list)
    }
}

/// Every scheme as `(id, display name, value)`: parsing, [`Scheme::all`],
/// [`Scheme::name`] and `pptlab schemes` read this one table. An id ending
/// in `<f>` takes the scheme's fraction from what follows its prefix, a
/// `<f>` in a name prints the fraction as a percentage, and the value is
/// the scheme at one representative fraction. A parsed fraction is finite
/// and above 0, at most 1 for `rc3-cap` (a share of the buffer) and at
/// most 4 for `ppt-fill` (a multiple of MW; Fig 3 goes to 1.5).
pub const SCHEMES: &[(&str, &str, Scheme)] = &[
    ("dctcp", "DCTCP", Scheme::Dctcp),
    ("tcp10", "TCP-10", Scheme::Tcp10),
    ("halfback", "Halfback", Scheme::Halfback),
    ("expresspass", "ExpressPass", Scheme::ExpressPass),
    ("ppt", "PPT", Scheme::Ppt),
    ("ppt-noecn", "PPT w/o ECN", Scheme::Lcp(PptKnobs { lcp_ecn: false, ..PAPER })),
    ("ppt-noewd", "PPT w/o EWD", Scheme::Lcp(PptKnobs { ewd: false, ..PAPER })),
    ("ppt-nosched", "PPT w/o scheduling", Scheme::Lcp(PptKnobs { scheduling: false, ..PAPER })),
    (
        "ppt-noident",
        "PPT w/o identification",
        Scheme::Lcp(PptKnobs { identification: false, ..PAPER }),
    ),
    ("ppt-fill:<f>", "PPT fill <f>%×MW", Scheme::Lcp(PptKnobs { fill: 0.75, ..PAPER })),
    ("rc3", "RC3", Scheme::Rc3),
    ("rc3-cap:<f>", "RC3 lp-buf <f>%", Scheme::Rc3BufferCap(0.5)),
    ("pias", "PIAS", Scheme::Pias),
    ("homa", "Homa", Scheme::Homa),
    ("aeolus", "Aeolus", Scheme::Aeolus),
    ("ndp", "NDP", Scheme::Ndp),
    ("hpcc", "HPCC", Scheme::Hpcc),
    ("powertcp", "PowerTCP", Scheme::PowerTcp),
    ("hpcc-ppt", "PPT-over-HPCC", Scheme::HpccPpt),
    ("swift", "Swift-like", Scheme::Swift),
    ("swift-ppt", "PPT-over-Swift", Scheme::SwiftPpt),
    ("hypothetical", "hypothetical DCTCP (<f>%×MW)", Scheme::Hypothetical(1.0)),
];

/// PPT's knobs as the paper sets them; each PPT row above changes one.
const PAPER: PptKnobs = PptKnobs::PAPER;

/// The fraction a parameterised scheme carries.
fn fraction(scheme: &mut Scheme) -> Option<&mut f64> {
    match scheme {
        Scheme::Lcp(knobs) => Some(&mut knobs.fill),
        Scheme::Rc3BufferCap(f) | Scheme::Hypothetical(f) => Some(f),
        _ => None,
    }
}

/// The scheme a [`SCHEMES`] id names.
pub fn parse_scheme(id: &str) -> Option<Scheme> {
    scheme_of(id).ok()
}

/// [`parse_scheme`], saying why an id names no scheme.
fn scheme_of(id: &str) -> Result<Scheme, String> {
    let mut scheme = SCHEMES
        .iter()
        .find_map(|(key, _, value)| match key.strip_suffix("<f>") {
            None => (*key == id).then(|| value.clone()),
            Some(prefix) => {
                let mut scheme = value.clone();
                *fraction(&mut scheme)? = id.strip_prefix(prefix)?.parse().ok()?;
                Some(scheme)
            }
        })
        .ok_or_else(|| format!("unknown scheme '{id}' (try `pptlab schemes`)"))?;
    // RC3's low-priority cap is a share of the port buffer, PPT's fill a
    // multiple of MW.
    let max = if matches!(scheme, Scheme::Rc3BufferCap(_)) { 1.0 } else { 4.0 };
    match fraction(&mut scheme) {
        Some(f) if !(*f > 0.0 && *f <= max) => {
            Err(format!("--schemes: '{id}': the fraction must be in (0, {max}]"))
        }
        _ => Ok(scheme),
    }
}

/// A scheme's display name, from the first [`SCHEMES`] row equal to it, a
/// row whose name holds `<f>` once it carries the scheme's fraction: PPT's
/// rows share one variant, so `ppt-fill:1` is named PPT. A knob setting no
/// row names is `?`.
pub(crate) fn scheme_name(scheme: &Scheme) -> String {
    let f = fraction(&mut scheme.clone()).copied().unwrap_or_default();
    let row = SCHEMES.iter().find(|(_, name, value)| {
        let mut value = value.clone();
        if let Some(to) = fraction(&mut value).filter(|_| name.contains("<f>")) {
            *to = f;
        }
        value == *scheme
    });
    row.map_or("?", |(_, name, _)| name).replace("<f>", &format!("{:.0}", f * 100.0))
}

/// `--schemes`: each id, its `:` made `-` for file names, and its scheme.
/// Two ids of one scheme (`ppt,ppt`, `ppt-fill:0.5,ppt-fill:0.50`) are an
/// error: the second run would overwrite the first one's files.
fn parse_schemes(list: &str) -> Result<Vec<(String, Scheme)>, String> {
    let mut schemes: Vec<(String, Scheme)> = Vec::new();
    for id in list.split(',').map(str::trim) {
        let scheme = scheme_of(id)?;
        if schemes.iter().any(|(_, s)| *s == scheme) {
            return Err(format!("--schemes: '{id}' repeats {}", scheme.name()));
        }
        schemes.push((id.replace(':', "-"), scheme));
    }
    Ok(schemes)
}

/// Every `--topo` id with what `pptlab topos` says of it; the two
/// parameterised rows are parsed from their prefix.
pub const TOPOS: &[(&str, &str, Option<TopoKind>)] = &[
    ("testbed", "15 hosts, 10G, 80us RTT (paper §6.1)", Some(TopoKind::PaperTestbed)),
    ("oversub", "144 hosts, 40/100G, 1.4:1 (paper §6.2)", Some(TopoKind::Oversubscribed)),
    ("nonoversub", "144 hosts, 10/40G, 1:1 (appendix E)", Some(TopoKind::NonOversubscribed)),
    ("highspeed", "144 hosts, 100/400G (§6.3.2)", Some(TopoKind::HighSpeed)),
    ("star:<n>:<gbps>:<delay_us>", "custom single switch", None),
    ("fattree:<k>:<edge_gbps>", "k-ary fat-tree (k^3/4 hosts)", None),
];

/// Parse a `--topo` id. Sizes and rates the topology builders would
/// assert on (or divide by) are refused here, as errors.
pub fn parse_topo(id: &str) -> Result<TopoKind, String> {
    if let Some(&(.., Some(kind))) = TOPOS.iter().find(|(key, ..)| *key == id) {
        return Ok(kind);
    }
    let bad = || format!("bad --topo '{id}' (try `pptlab topos`)");
    if let Some(rest) = id.strip_prefix("fattree:") {
        let [k, edge_gbps] = numbers(rest).ok_or_else(bad)?;
        let k = k as usize;
        if k < 2 || !k.is_multiple_of(2) {
            return Err(format!("--topo {id}: a fat-tree needs an even k of at least 2"));
        }
        if k > MAX_FATTREE_K {
            return Err(format!("--topo {id}: a fat-tree takes a k of at most {MAX_FATTREE_K}"));
        }
        if edge_gbps == 0 {
            return Err(format!("--topo {id}: the edge rate must be above 0 Gbps"));
        }
        // The fabric's upper tiers run at four times the edge rate.
        if edge_gbps.checked_mul(4).and_then(bps).is_none() {
            return Err(format!("--topo {id}: the edge rate {edge_gbps} Gbps is too large"));
        }
        return Ok(TopoKind::FatTree { k, edge_gbps });
    }
    let [n, rate_gbps, delay_us] =
        numbers(id.strip_prefix("star:").ok_or_else(bad)?).ok_or_else(bad)?;
    let n = n as usize;
    if n < 2 {
        return Err(format!("--topo {id}: a star needs at least 2 hosts"));
    }
    if n > MAX_STAR_HOSTS {
        return Err(format!("--topo {id}: a star takes at most {MAX_STAR_HOSTS} hosts"));
    }
    if rate_gbps == 0 {
        return Err(format!("--topo {id}: the link rate must be above 0 Gbps"));
    }
    if bps(rate_gbps).is_none() {
        return Err(format!("--topo {id}: the link rate {rate_gbps} Gbps is too large"));
    }
    // Windows and timers are sized from the base RTT (four of these), so
    // the clock needs headroom well beyond it.
    if delay_us > MAX_DELAY_US {
        return Err(format!("--topo {id}: the delay {delay_us} us is above 1 s"));
    }
    Ok(TopoKind::Star { n, rate_gbps, delay_us })
}

/// The longest one-way link delay a star takes, in microseconds.
const MAX_DELAY_US: u64 = 1_000_000;

/// The most hosts a star takes. Routes are built by one search of the
/// fabric per host, so the build grows as n² (`star:32000` took 58 s and
/// 55 MB; a billion hosts aborts allocating its ports), and a switch
/// numbers its ports in 16 bits.
const MAX_STAR_HOSTS: usize = 32_768;

/// The largest fat-tree k. Hosts and links both grow as k³ and the route
/// build searches the fabric once per host, so it grows as k⁶:
/// `fattree:32` (8 192 hosts) took 12 s and 356 MB, `fattree:64` was still
/// building after ten minutes at 6.9 GB.
const MAX_FATTREE_K: usize = 32;

/// The most flows a generated workload draws: the list alone is 40 bytes
/// a flow (400 MB here), and its endpoints hold about 2.2 KB a flow while
/// it runs. A count past what memory holds aborts the process in the
/// allocator, where it cannot be an error.
const MAX_FLOWS: usize = 10_000_000;

/// `--flows`, if given: at most `MAX_FLOWS` (10 000 000).
pub fn parse_flows(args: &Args) -> Result<Option<usize>, String> {
    match args.parse_opt("flows")? {
        Some(n) if n > MAX_FLOWS => {
            Err(format!("--flows {n}: a generated workload takes at most {MAX_FLOWS} flows"))
        }
        flows => Ok(flows),
    }
}

/// `us` microseconds in nanoseconds, if that fits the clock.
fn nanos(us: u64) -> Option<u64> {
    us.checked_mul(1_000)
}

/// `gbps` in bits per second, if that fits a `Rate`.
fn bps(gbps: u64) -> Option<u64> {
    gbps.checked_mul(1_000_000_000)
}

/// `a:b:…` as exactly `N` numbers.
fn numbers<const N: usize>(fields: &str) -> Option<[u64; N]> {
    let parts: Vec<u64> = fields.split(':').map(str::parse).collect::<Result<_, _>>().ok()?;
    parts.try_into().ok()
}

/// Every `--workload` id and its flow-size distribution.
pub const WORKLOADS: &[(&str, fn() -> SizeDistribution)] = &[
    ("websearch", SizeDistribution::web_search),
    ("datamining", SizeDistribution::data_mining),
    ("memcached", SizeDistribution::memcached_w1),
];

/// A network load is a fraction of the edge rate in (0, 1]; the workload
/// generators assert it.
fn check_load(key: &str, load: f64) -> Result<f64, String> {
    if load > 0.0 && load <= 1.0 {
        Ok(load)
    } else {
        Err(format!("--{key}: load {load} is outside (0, 1]"))
    }
}

/// Parse a `--faults` spec (see `pptlab --help`) into a [`FaultSchedule`]
/// for `topo`: probabilities lie in [0, 1], hosts and switches exist, and
/// an outage ends after it starts. Host `i` is `HostId(i)`, the id every
/// topology builder gives the `i`-th host it creates.
pub fn parse_faults(spec: &str, topo: TopoKind) -> Result<FaultSchedule, String> {
    let triple = |item: &str, rest: &str| {
        numbers(rest).ok_or_else(|| format!("--faults: '{item}' wants three ':'-separated numbers"))
    };
    let prob = |what: &str, v: &str| match v.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        Ok(_) => Err(format!("--faults: {what} {v} is outside [0, 1]")),
        Err(_) => Err(format!("--faults: bad {what} '{v}'")),
    };
    let mut f = FaultSchedule::new(1);
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(v) = item.strip_prefix("loss=") {
            f.data_loss = prob("loss", v)?;
        } else if let Some(v) = item.strip_prefix("ackloss=") {
            f.ack_loss = prob("ackloss", v)?;
        } else if item == "lp" {
            f.lp_acks_only = true;
        } else if let Some(v) = item.strip_prefix("seed=") {
            f.seed = v.parse().map_err(|_| format!("--faults: bad seed '{v}'"))?;
        } else if let Some(rest) = item.strip_prefix("down:") {
            let [host, from_us, until_us] = triple(item, rest)?;
            if host >= topo.hosts() as u64 {
                let n = topo.hosts();
                return Err(format!(
                    "--faults: '{item}': host {host} is not on the topology (it has {n})"
                ));
            }
            if until_us <= from_us {
                return Err(format!("--faults: '{item}': the outage must end after it starts"));
            }
            // `from` is earlier, so it fits the clock when `until` does.
            if nanos(until_us).is_none() {
                return Err(format!("--faults: '{item}': {until_us} us is too large"));
            }
            f = f.host_outage(
                HostId(host as u32),
                SimTime(from_us * 1_000),
                SimTime(until_us * 1_000),
            );
        } else if let Some(rest) = item.strip_prefix("stall:") {
            let [switch, at_us, dur_us] = triple(item, rest)?;
            let switches = topo.switches();
            if switch >= switches as u64 {
                return Err(format!(
                    "--faults: '{item}': switch {switch} is not on the topology (it has {switches})"
                ));
            }
            // The start and the length fit the clock when their sum does.
            if nanos(at_us.saturating_add(dur_us)).is_none() {
                return Err(format!("--faults: '{item}': {at_us} + {dur_us} us is too large"));
            }
            f = f.stall_switch(
                SwitchId(switch as u32),
                SimTime(at_us * 1_000),
                SimDuration::from_micros(dur_us),
            );
        } else {
            return Err(format!("--faults: unknown item '{item}'"));
        }
    }
    Ok(f)
}

/// Parse a sampling interval: `<n>ns`, `<n>us`, `<n>ms`, or a bare
/// number meaning microseconds.
pub fn parse_interval(v: &str) -> Result<SimDuration, String> {
    let units = [("ns", 1), ("us", 1_000), ("ms", 1_000_000)];
    let (digits, mult) = units
        .into_iter()
        .find_map(|(unit, mult)| Some((v.strip_suffix(unit)?, mult)))
        .unwrap_or((v, 1_000));
    let n = digits.parse::<u64>().ok().filter(|&n| n > 0);
    let bad = || format!("bad interval '{v}' (want <n>ns | <n>us | <n>ms | <n>)");
    let ns = n.ok_or_else(bad)?.checked_mul(mult);
    Ok(SimDuration(ns.ok_or_else(|| format!("interval '{v}' is too large"))?))
}

/// A run command's options, parsed. Every experiment the command runs is
/// [`Run::template`] with one of [`Run::schemes`] ([`Run::experiment`]),
/// or for `sweep` one cell of the grid ([`Run::sweep`]).
#[derive(Clone, Debug)]
pub struct Run {
    /// `--schemes` in order: the id, `:` made `-` for file names, and the
    /// scheme it names.
    pub schemes: Vec<(String, Scheme)>,
    /// The topology, the flows (none for `sweep`), `env` after `--buffers`
    /// and `--switch`, faults, telemetry, sanitize and the dump directory.
    /// Its scheme is the first of `schemes`.
    pub template: Experiment,
    /// `--workload`.
    pub dist: SizeDistribution,
    /// `--load`, or `sweep`'s `--loads`.
    pub loads: Vec<f64>,
    /// `--seed`, or `sweep`'s `--seeds`.
    pub seeds: Vec<u64>,
    /// `--flows`: how many flows a generated workload draws.
    pub flows: usize,
    /// `--jobs`: worker threads.
    pub jobs: usize,
}

impl Run {
    /// Parse the options of run command `cmd` (`compare`, `sweep`, `trace`,
    /// `faults`, `report` or `gen`), checking every value before anything
    /// runs. `faults` always injects and `report` always samples, so those
    /// two fall back to a default spec where the others fall back to off; a
    /// bare `--telemetry` / `--sanitize` means 10 µs / epoch.
    pub fn parse(cmd: &str, args: &Args, dump_dir: Option<PathBuf>) -> Result<Run, String> {
        // A replayed trace fixes the flows, so nothing may describe others.
        let workload_keys = ["workload", "load", "flows", "seed", "incast"];
        if let Some(key) =
            workload_keys.iter().find(|k| args.get("trace").and(args.get(k)).is_some())
        {
            return Err(format!("--{key} cannot be given with --trace: the trace fixes the flows"));
        }
        let (default_schemes, default_flows) = match cmd {
            "trace" | "faults" | "report" => ("ppt", 80),
            _ => ("ppt,dctcp", 400),
        };
        let schemes = parse_schemes(args.get("schemes").unwrap_or(default_schemes))?;
        let topo = parse_topo(args.get("topo").unwrap_or("testbed"))?;
        let dist = WORKLOADS
            .iter()
            .find(|(id, _)| *id == args.get("workload").unwrap_or("websearch"))
            .map(|(_, dist)| dist())
            .ok_or("bad --workload (try `pptlab workloads`)")?;
        let (loads, seeds) = if cmd == "sweep" {
            let loads: Vec<f64> = args.parse_list_or("loads", &[0.3, 0.5, 0.7])?;
            loads.iter().try_for_each(|&load| check_load("loads", load).map(drop))?;
            (loads, args.parse_list_or("seeds", &[42])?)
        } else {
            let load = check_load("load", args.parse_or("load", 0.5)?)?;
            (vec![load], vec![args.parse_or("seed", 42)?])
        };
        let flows = parse_flows(args)?.unwrap_or(default_flows);
        if flows == 0 {
            return Err("--flows 0: a generated workload needs at least 1 flow".to_string());
        }
        let flow_list = match cmd {
            "sweep" => Vec::new(),
            _ => {
                let spec =
                    WorkloadSpec::new(dist.clone(), loads[0], topo.edge_rate(), flows, seeds[0]);
                flow_list(args, topo, &spec)?
            }
        };
        let mut template = Experiment::new(topo, schemes[0].1.clone(), flow_list);
        if let Some(v) = args.get("buffers") {
            let f: f64 = v.parse().map_err(|_| format!("--buffers: cannot parse '{v}'"))?;
            if f.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("--buffers: scale must be positive, got '{v}'"));
            }
            template.env = template.env.scale_buffers(f);
        }
        template.env.pfc = match args.get("switch") {
            None | Some("default") => false,
            Some("pfc") => true,
            Some(v) => return Err(format!("--switch: unknown mode '{v}' (default | pfc)")),
        };
        template.faults = args
            .get("faults")
            .or((cmd == "faults").then_some("loss=0.01"))
            .map(|spec| parse_faults(spec, topo))
            .transpose()?;
        if let Some(v) = args.get("telemetry").or((cmd == "report").then_some("10us")) {
            let v = if v == "true" { "10us" } else { v };
            let spec =
                TelemetrySpec::new(parse_interval(v).map_err(|e| format!("--telemetry: {e}"))?);
            template.telemetry = Some(if args.flag("prof") { spec.with_prof() } else { spec });
        }
        if let Some(v) = args.get("sanitize") {
            let level = if v == "true" { "epoch" } else { v };
            template.sanitize = Some(SanLevel::parse(level).ok_or_else(|| {
                format!("--sanitize: unknown level '{level}' (event | epoch | end)")
            })?);
        }
        template.dump_dir = dump_dir;
        Ok(Run { schemes, template, dist, loads, seeds, flows, jobs: args.parse_or("jobs", 1)? })
    }

    /// The experiment of the `i`th scheme.
    pub fn experiment(&self, i: usize) -> Experiment {
        Experiment { scheme: self.schemes[i].1.clone(), ..self.template.clone() }
    }

    /// `sweep`'s scheme × load × seed grid ([`grid_cells`]), every cell on
    /// the template's topology and options, its flows not yet drawn.
    pub fn sweep(&self) -> impl Iterator<Item = Cell> + '_ {
        let schemes = self.schemes.iter().map(|(_, scheme)| scheme);
        let (topo, dist, flows) = (self.template.topo, &self.dist, self.flows);
        grid_cells(topo, schemes, dist, &self.loads, flows, &self.seeds).map(|cell| {
            let exp = Experiment { scheme: cell.exp.scheme, ..self.template.clone() };
            Cell { exp, ..cell }
        })
    }
}

/// A single-workload command's flows: a replayed `--trace`, an
/// `--incast`, or all-to-all.
fn flow_list(args: &Args, topo: TopoKind, spec: &WorkloadSpec) -> Result<Vec<FlowSpec>, String> {
    let Some(path) = args.get("trace") else {
        let senders = args.get("incast").map(str::parse::<usize>).transpose();
        return match senders.map_err(|_| "--incast expects a count".to_string())? {
            Some(0) => Err("--incast 0: an incast needs at least 1 sender".to_string()),
            Some(n) if n + 1 > topo.hosts() => {
                Err(format!("--incast {n} needs {} hosts, topo has {}", n + 1, topo.hosts()))
            }
            Some(n) => Ok(incast(n, spec)),
            None => Ok(all_to_all(topo.hosts(), spec)),
        };
    };
    let file = std::fs::File::open(path).map_err(|e| format!("--trace {path}: {e}"))?;
    let flows = workloads::read_csv(std::io::BufReader::new(file))?;
    if let Some(bad) = flows.iter().find(|f| f.src >= topo.hosts() || f.dst >= topo.hosts()) {
        let host = bad.src.max(bad.dst);
        return Err(format!("trace references host {host} but topo has {}", topo.hosts()));
    }
    Ok(flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SwitchConfig;
    use workloads::incast;

    const KEYS: &[&[&str]] = &[&["load", "flows", "seed"], &["loads", "json", "metrics"]];

    fn parse(v: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Args::parse("compare", &argv, KEYS)
    }

    #[test]
    fn parses_pairs() {
        let a = parse(&["--load", "0.7", "--flows", "100"]).unwrap();
        assert_eq!(a.get("load"), Some("0.7"));
        assert_eq!(a.parse_or::<usize>("flows", 0).unwrap(), 100);
        assert_eq!(a.parse_or::<u64>("seed", 42).unwrap(), 42);
    }

    #[test]
    fn rejects_bare_tokens() {
        assert!(parse(&["load"]).is_err());
    }

    #[test]
    fn rejects_keys_the_subcommand_does_not_declare() {
        for (argv, bad) in [
            (&["--swich", "pfc"][..], "--swich"),
            (&["--sanitise"], "--sanitise"),
            (&["--load", "0.3", "--seeds", "7"], "--seeds"),
        ] {
            let err = parse(argv).err().expect("undeclared key must be rejected");
            assert_eq!(err, format!("unknown option {bad} for 'compare'"));
        }
    }

    #[test]
    fn rejects_repeated_keys() {
        let err = parse(&["--seed", "7", "--load", "0.5", "--seed", "8"]).err();
        assert_eq!(err.as_deref(), Some("option --seed given more than once"));
        assert!(parse(&["--json", "--json"]).is_err());
    }

    #[test]
    fn valueless_keys_are_boolean_flags() {
        let a = parse(&["--json", "--seed", "7", "--metrics"]).unwrap();
        assert!(a.flag("json"));
        assert!(a.flag("metrics"));
        assert!(!a.flag("seed"));
        assert!(!a.flag("absent"));
        assert_eq!(a.parse_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn bad_parse_is_an_error_not_a_default() {
        let a = parse(&["--flows", "abc"]).unwrap();
        assert!(a.parse_or::<usize>("flows", 1).is_err());
    }

    #[test]
    fn comma_lists_parse_or_default() {
        let a = parse(&["--loads", "0.3, 0.5,0.7"]).unwrap();
        assert_eq!(a.parse_list_or::<f64>("loads", &[0.5]).unwrap(), vec![0.3, 0.5, 0.7]);
        assert_eq!(a.parse_list_or::<u64>("seeds", &[42]).unwrap(), vec![42]);
        assert!(a.parse_list_or::<u64>("loads", &[1]).is_err());
    }

    /// The one scheme table, and the by-value name lookup over it: every
    /// row's id (a `<f>` row at its value's fraction) parses back to its
    /// own value and is named by its own row, the rows are exactly
    /// `Scheme::all()`, and no two rows are one scheme. PPT's rows differ
    /// only in knob values, so `ppt-fill:1` is PPT, named and deduplicated
    /// as such.
    #[test]
    fn every_scheme_row_round_trips_and_the_rows_are_scheme_all() {
        for (id, name, value) in SCHEMES {
            let f = fraction(&mut value.clone()).copied();
            let id = id.replace("<f>", &f.map(|f| f.to_string()).unwrap_or_default());
            assert_eq!(parse_scheme(&id).as_ref(), Some(value), "id '{id}'");
            let pct = f.map(|f| format!("{:.0}", f * 100.0)).unwrap_or_default();
            assert_eq!(scheme_name(value), name.replace("<f>", &pct), "id '{id}'");
        }
        let rows: Vec<Scheme> = SCHEMES.iter().map(|(.., value)| value.clone()).collect();
        assert_eq!(rows, Scheme::all());
        for (i, a) in rows.iter().enumerate() {
            assert!(!rows[i + 1..].contains(a), "{} is two rows", a.name());
        }
        // The parameterised names, byte for byte as the figures print them.
        let fill = |fill| Scheme::Lcp(PptKnobs { fill, ..PAPER });
        assert_eq!(fill(0.75).name(), "PPT fill 75%×MW");
        assert_eq!(Scheme::Rc3BufferCap(0.25).name(), "RC3 lp-buf 25%");
        assert_eq!(Scheme::Hypothetical(1.0).name(), "hypothetical DCTCP (100%×MW)");
        assert_eq!(parse_scheme("rc3-cap:0.25"), Some(Scheme::Rc3BufferCap(0.25)));
        assert_eq!(parse_scheme("ppt-fill:<f>"), None, "the placeholder itself is not an id");
        assert_eq!(parse_scheme("nope"), None);
        // Filling to 1 × MW is the paper's PPT: one scheme, one name, and a
        // list that names it twice is refused.
        assert_eq!(parse_scheme("ppt-fill:1"), Some(Scheme::Ppt));
        assert_eq!(fill(1.0).name(), "PPT");
        assert_eq!(
            parse_schemes("ppt,ppt-fill:1").err().as_deref(),
            Some("--schemes: 'ppt-fill:1' repeats PPT")
        );
        // A knob setting no row names has no name.
        assert_eq!(Scheme::Lcp(PptKnobs { ewd: false, fill: 0.5, ..PAPER }).name(), "?");
    }

    /// `TopoKind::switches` is what `build` makes, for every `TOPOS` row
    /// (the two parameterised ones at a few sizes), so `stall:` checks a
    /// switch index without building the fabric.
    #[test]
    fn every_topology_counts_the_switches_it_builds() {
        let named = TOPOS.iter().filter_map(|&(.., kind)| kind);
        let sized = ["star:3:10:20", "fattree:2:10", "fattree:4:10", "fattree:6:40"]
            .map(|id| parse_topo(id).unwrap());
        for kind in named.chain(sized) {
            let built = kind.build(SwitchConfig::basic(1)).sim.switch_count();
            assert_eq!(kind.switches(), built, "{kind:?}");
        }
    }

    /// One command line that sets every run option yields the experiment
    /// built by hand with the harness API — topology, flows, `env`, faults,
    /// telemetry, sanitize and dump dir — and `sweep`'s cells carry the same
    /// options over the grid's own flows.
    #[test]
    fn every_run_option_lands_on_the_experiment_built_by_hand() {
        let run = |cmd: &str, line: &str| {
            let argv: Vec<String> = line.split(' ').map(String::from).collect();
            let keys: &[&str] = &[
                "schemes",
                "jobs",
                "faults",
                "telemetry",
                "buffers",
                "switch",
                "sanitize",
                "topo",
                "workload",
                "load",
                "loads",
                "flows",
                "seed",
                "seeds",
                "incast",
                "prof",
            ];
            let args = Args::parse(cmd, &argv, &[keys]).unwrap();
            Run::parse(cmd, &args, Some(PathBuf::from("dumps"))).unwrap()
        };
        let options = "--schemes ppt,rc3-cap:0.25 --topo star:6:25:5 --workload datamining \
                       --flows 30 --jobs 3 --buffers 0.5 --switch pfc --sanitize event \
                       --telemetry 20us --prof \
                       --faults loss=0.01,ackloss=0.02,lp,seed=9,down:1:10:50,stall:0:20:5";
        let topo = TopoKind::Star { n: 6, rate_gbps: 25, delay_us: 5 };
        // `--faults` is the engine's schedule, ops in the order the spec
        // names them; host 1 is `HostId(1)` before the topology exists.
        let faults = FaultSchedule::new(9)
            .with_data_loss(0.01)
            .with_ack_loss(0.02)
            .lp_acks_only()
            .host_outage(HostId(1), SimTime(10_000), SimTime(50_000))
            .stall_switch(SwitchId(0), SimTime(20_000), SimDuration::from_micros(5));
        assert_eq!(
            parse_faults("loss=0.01,ackloss=0.02,lp,seed=9,down:1:10:50,stall:0:20:5", topo),
            Ok(faults.clone())
        );
        let by_hand = |scheme: Scheme, flows: Vec<FlowSpec>| {
            let mut exp = Experiment::new(topo, scheme, flows)
                .with_faults(faults.clone())
                .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(20)).with_prof());
            exp.env = exp.env.scale_buffers(0.5);
            exp.env.pfc = true;
            exp.sanitize = Some(SanLevel::PerEvent);
            exp.dump_dir = Some(PathBuf::from("dumps"));
            format!("{exp:?}")
        };
        let dist = SizeDistribution::data_mining();
        let one = run("report", &format!("{options} --load 0.4 --seed 7 --incast 4"));
        let spec = WorkloadSpec::new(dist.clone(), 0.4, topo.edge_rate(), 30, 7);
        assert_eq!(one.schemes[1].0, "rc3-cap-0.25");
        assert_eq!(one.jobs, 3);
        assert_eq!(
            format!("{:?}", one.experiment(1)),
            by_hand(Scheme::Rc3BufferCap(0.25), incast(4, &spec))
        );

        let sweep = run("sweep", &format!("{options} --loads 0.4,0.6 --seeds 7,8"));
        let points: Vec<_> = sweep.sweep().map(Cell::expand).collect();
        assert_eq!(points.len(), 8);
        let cell = &points[7].exp;
        let spec = WorkloadSpec::new(dist, 0.6, topo.edge_rate(), 30, 8);
        let want = by_hand(Scheme::Rc3BufferCap(0.25), all_to_all(topo.hosts(), &spec));
        assert_eq!(format!("{cell:?}"), want);
    }
}
