//! The figures that are not an FCT table: each measures its own thing and
//! is one function. The 2→1 microbenchmarks (Figs 1, 20, 28, 29) share
//! [`Bottleneck`] and Figs 1/20 the busy-period statistics of [`Busy`].
//! Figs 20, 28 and 29 carry the paper's claims over the columns they print
//! as data ([`Claim`] over a [`Col`]) and print one `claim:` line per claim
//! under each table. Fig 1 stays prose: its one row has nothing to be set
//! against, and its claim is an absolute range over a window still to be
//! settled. Fig 19 prints wall-clock time.

use std::io::{self, Write};

use dcn_stats::{jain_index, mean_utilization, occupancy_split, utilization_series};
use dcn_stats::{OccupancySplit, UtilizationPoint};
use netsim::{HostId, PortCounters, Rate, SimDuration, SimTime};
use workloads::{all_to_all, FlowSpec, SizeDistribution, WorkloadSpec};

use super::claims::{claim, Claim, Col, Metric, Paper::*, Vs};
use super::{banner, sweep, workload, FigureOpts, Pattern};
use crate::harness::{
    run_experiment, run_experiment_with, star_bottleneck, Experiment, Scheme, SchemeEnv,
    TelemetrySpec, TopoKind,
};
use crate::sweep::run_points;
use crate::table1::TABLE1;

/// The paper's microbenchmark set-up: two senders, one receiver, one 40 G
/// switch, Web Search arrivals; the switch port facing the receiver is
/// the bottleneck every statistic is read from.
struct Bottleneck {
    topo: TopoKind,
    flows: Vec<FlowSpec>,
}

impl Bottleneck {
    fn new(opts: &FigureOpts, delay_us: u64, load: f64, default_flows: usize) -> Self {
        let topo = TopoKind::Star { n: 3, rate_gbps: 40, delay_us };
        let dist = SizeDistribution::web_search();
        let flows = workload(opts, topo, Pattern::Incast(2), dist, load, default_flows);
        Bottleneck { topo, flows }
    }

    /// `scheme` on this set-up with the figure's buffer and ECN settings.
    fn exp(&self, scheme: Scheme, port_buffer: u64, k_high: u64, k_low: u64) -> Experiment {
        let mut exp = Experiment::new(self.topo, scheme, self.flows.clone());
        (exp.env.port_buffer, exp.env.k_high, exp.env.k_low) = (port_buffer, k_high, k_low);
        exp
    }
}

/// Run each experiment with telemetry at `interval` and return, per run,
/// the bottleneck link's utilisation series and the bottleneck port's
/// occupancy split — over the whole run: a ring that evicted a tick is an
/// error, not a statistic over what was left.
fn read_bottleneck(
    opts: &FigureOpts,
    exps: &[Experiment],
    interval: SimDuration,
) -> io::Result<Vec<(Vec<UtilizationPoint>, OccupancySplit)>> {
    // 8192 points: room for every tick of these sub-second runs.
    let telemetry = TelemetrySpec { series_capacity: 1 << 13, ..TelemetrySpec::new(interval) };
    let runs = run_points(exps.len(), opts.jobs, |i| {
        let sim = run_experiment(&exps[i].clone().with_telemetry(telemetry)).sim;
        let (sw, port) = star_bottleneck(&sim, 2)
            .ok_or_else(|| io::Error::other("no switch port faces the receiver"))?;
        let t = sim.telemetry().ok_or_else(|| io::Error::other("telemetry is off"))?;
        let util = t.link_util(sim.switch_port_link(sw, port));
        let lost = util.evicted();
        if lost > 0 {
            return Err(io::Error::other(format!("telemetry ring evicted {lost} ticks")));
        }
        let split = occupancy_split(t.port_queue_bytes(sw, port), t.port_queue_lp_bytes(sw, port));
        Ok((utilization_series(util), split))
    });
    runs.into_iter().collect()
}

/// Busy-period utilisation (past a 2 ms warm-up, above 5 %). With Poisson
/// arrivals at load 0.5 the link is legitimately idle between flows; the
/// paper's point is that *while flows are transmitting* DCTCP's window
/// cuts drag the link toward half of what it could carry.
struct Busy {
    sorted: Vec<f64>,
    mean: Option<f64>,
}

impl Busy {
    fn of(series: &[UtilizationPoint]) -> Busy {
        let mut busy: Vec<f64> = series
            .iter()
            .filter(|p| p.at_ns >= 2_000_000 && p.utilization > 0.05)
            .map(|p| p.utilization)
            .collect();
        let mean = (!busy.is_empty()).then(|| busy.iter().sum::<f64>() / busy.len() as f64);
        busy.sort_by(f64::total_cmp);
        Busy { sorted: busy, mean }
    }

    /// The `q`-quantile, `None` when no sample was busy.
    fn pct(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        self.sorted.get(((q * n as f64) as usize).min(n.saturating_sub(1))).copied()
    }
}

/// Three decimals, or `n/a` for a statistic over no samples.
fn f3(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |v| format!("{v:.3}"))
}

/// Fig 1: DCTCP's bottleneck link utilization fluctuates well below the
/// offered load (2→1 at 40 G, K = 120 KB, Web Search at load 0.5).
pub(super) fn fig01(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Fig 1",
        "Link utilization of DCTCP under Web Search at 0.5 load",
        "2->1 at 40G, K=120KB, 100us samples over the whole run (ideal utilization: 50%)",
    )?;
    let net = Bottleneck::new(opts, 10, 0.5, 600);
    let exps = [net.exp(Scheme::Dctcp, 1_000_000, 120_000, 100_000)];
    let runs = read_bottleneck(opts, &exps, SimDuration::from_micros(100))?;
    let series = runs.first().map_or(&[][..], |(series, _)| series);
    let busy = Busy::of(series);
    writeln!(out, "busy samples: {}", busy.sorted.len())?;
    let [p10, p25, p50, p90] = [0.1, 0.25, 0.5, 0.9].map(|q| f3(busy.pct(q)));
    writeln!(out, "busy-period utilization p10/p25/p50/p90: {p10}/{p25}/{p50}/{p90}")?;
    writeln!(out, "busy-period mean: {}", f3(busy.mean))?;
    let mean = mean_utilization(series);
    writeln!(out, "overall mean utilization: {mean:.3} (offered load 0.5)")?;
    writeln!(out, "\npaper: DCTCP fluctuates between ~0.25 and ~0.5 while busy")
}

/// Fig 20's claims over its rows DCTCP, hypothetical, PPT: DCTCP's
/// post-cut dips (busy p10) sit 1.8× below PPT's, −44 %, and PPT's busy
/// mean is the hypothetical's.
const FIG20: &[Claim<Col<Busy>>] = &[
    claim(0, Vs::Row(2), Col("busy p10", |b| b.pct(0.1).unwrap_or(f64::NAN)), Pct(-44.0)),
    claim(2, Vs::Row(1), Col("busy mean", |b| b.mean.unwrap_or(f64::NAN)), Pct(0.0)),
];
/// Fig 20 has one table.
pub(super) const FIG20_LINES: &[usize] = &[FIG20.len()];

/// Print `claims`' lines for one table: `labels` and `rows` in row order.
fn write_claims<R, C: Metric<R>>(
    out: &mut dyn Write,
    claims: &[Claim<C>],
    labels: &[&str],
    rows: &[R],
) -> io::Result<()> {
    claims.iter().try_for_each(|c| writeln!(out, "{}", c.evaluate(labels, rows)))
}

/// Fig 20: link utilization — PPT matches the hypothetical DCTCP and
/// beats plain DCTCP (which dips to ~25 %).
pub(super) fn fig20(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Fig 20",
        "Link utilization: DCTCP vs hypothetical vs PPT",
        "2->1 at 40G, Web Search, load 0.5 (ideal 50%); 100us samples over the whole run",
    )?;
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "mean util", "busy mean", "busy p10", "busy p25"
    )?;
    let net = Bottleneck::new(opts, 10, 0.5, 600);
    let exps = [Scheme::Dctcp, Scheme::Hypothetical(1.0), Scheme::Ppt]
        .map(|scheme| net.exp(scheme, 1_000_000, 120_000, 100_000));
    let runs = read_bottleneck(opts, &exps, SimDuration::from_micros(100))?;
    let names = exps.map(|exp| exp.scheme.name());
    let mut rows = Vec::new();
    for (name, (series, _)) in names.iter().zip(&runs) {
        let (mean, busy) = (mean_utilization(series), Busy::of(series));
        let (busy_mean, p10, p25) = (f3(busy.mean), f3(busy.pct(0.1)), f3(busy.pct(0.25)));
        writeln!(out, "{name:<28} {mean:>10.3} {busy_mean:>10} {p10:>10} {p25:>10}")?;
        rows.push(busy);
    }
    writeln!(out)?;
    write_claims(out, FIG20, &names.each_ref().map(String::as_str), &rows)
}

/// The schemes of Figs 28/29, in row order: DCTCP, RC3, PPT.
const SWEPT: [Scheme; 3] = [Scheme::Dctcp, Scheme::Rc3, Scheme::Ppt];
/// Their ECN thresholds, as fractions of the port buffer: one table each.
const THRESHOLDS: [f64; 2] = [0.6, 0.8];

/// The ECN-threshold sweep of Figs 28/29: [`SWEPT`] with K at each of
/// [`THRESHOLDS`] of a 120 KB port buffer, the same K for both priority
/// groups, load 0.8. Each case comes with its `K(%buf)` column.
fn threshold_sweep(opts: &FigureOpts) -> (Vec<f64>, Vec<Experiment>) {
    let net = Bottleneck::new(opts, 4, 0.8, 400);
    let at = |frac: f64| {
        let k = (120_000.0 * frac) as u64;
        SWEPT.map(|scheme| (frac * 100.0, net.exp(scheme, 120_000, k, k)))
    };
    THRESHOLDS.into_iter().flat_map(at).unzip()
}

/// The low-priority group's share of the mean occupancy, percent; `None`
/// when nothing was ever queued.
fn low_share(split: &OccupancySplit) -> Option<f64> {
    (split.total_avg_bytes > 0.0).then(|| split.low_avg_bytes / split.total_avg_bytes * 100.0)
}

/// Fig 28's claim: PPT's low-priority share against RC3's, −88 %, the
/// ratio of the midpoints of the paper's ranges (2.6–3.1 % and 17.4–30.2 %).
const FIG28: &[Claim<Col<OccupancySplit>>] =
    &[claim(2, Vs::Row(1), Col("low share", |s| low_share(s).unwrap_or(f64::NAN)), Pct(-88.0))];
/// Figs 28/29 print one table per threshold.
pub(super) const FIG28_LINES: &[usize] = &[FIG28.len(); THRESHOLDS.len()];

/// Delivered packets over packets that reached the port, percent; `None`
/// when none did.
fn efficiency(c: &PortCounters) -> Option<f64> {
    let sent = c.enqueued + c.dropped;
    (sent > 0).then(|| (1.0 - c.dropped as f64 / sent as f64) * 100.0)
}

/// Fig 29's claims: PPT's efficiency is DCTCP's, and RC3's is 14.6–18.4 %
/// below PPT's (the midpoint, −16.5 %).
const FIG29: &[Claim<Col<PortCounters>>] =
    &[claim(2, Vs::Row(0), EFFICIENCY, Pct(0.0)), claim(1, Vs::Row(2), EFFICIENCY, Pct(-16.5))];
const EFFICIENCY: Col<PortCounters> = Col("efficiency", |c| efficiency(c).unwrap_or(f64::NAN));
pub(super) const FIG29_LINES: &[usize] = &[FIG29.len(); THRESHOLDS.len()];

/// A percentage to one decimal in `width` columns, or `n/a`.
fn pct(v: Option<f64>, width: usize) -> String {
    let text = v.map_or_else(|| "n/a".into(), |v| format!("{v:.1}%"));
    format!("{text:>width$}")
}

/// Fig 28 (appendix F): switch buffer occupancy split between the high-
/// and low-priority groups under different ECN thresholds — PPT's LCP
/// keeps a small, stable low-priority footprint, RC3's does not.
pub(super) fn fig28(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Fig 28",
        "Buffer occupancy by priority group vs ECN threshold",
        "2->1 at 40G, 120KB port buffer, Web Search, same K for both groups; 200us samples, whole run",
    )?;
    writeln!(
        out,
        "{:<10} {:<10} {:>12} {:>12} {:>12} {:>10}",
        "K(%buf)", "scheme", "high avg(B)", "low avg(B)", "total avg(B)", "low share"
    )?;
    let (ks, exps) = threshold_sweep(opts);
    let runs = read_bottleneck(opts, &exps, SimDuration::from_micros(200))?;
    let names = SWEPT.map(|scheme| scheme.name());
    for (ks, runs) in ks.chunks(SWEPT.len()).zip(runs.chunks(SWEPT.len())) {
        let splits: Vec<OccupancySplit> = runs.iter().map(|(_, split)| *split).collect();
        for ((k, name), split) in ks.iter().zip(&names).zip(&splits) {
            let (high, low, total) =
                (split.high_avg_bytes, split.low_avg_bytes, split.total_avg_bytes);
            let share = pct(low_share(split), 10);
            writeln!(out, "{k:<10.0} {name:<10} {high:>12.0} {low:>12.0} {total:>12.0} {share}")?;
        }
        write_claims(out, FIG28, &names.each_ref().map(String::as_str), &splits)?;
        writeln!(out)?;
    }
    Ok(())
}

/// Fig 29 (appendix F): transfer efficiency (received bytes / sent bytes)
/// under different ECN thresholds — RC3 wastes its low-priority sends.
pub(super) fn fig29(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Fig 29",
        "Transfer efficiency vs ECN threshold",
        "2->1 at 40G, 120KB port buffer, Web Search (efficiency = delivered/sent)",
    )?;
    writeln!(
        out,
        "{:<10} {:<10} {:>14} {:>14} {:>12}",
        "K(%buf)", "scheme", "sent pkts", "dropped pkts", "efficiency"
    )?;
    let (ks, exps) = threshold_sweep(opts);
    let names = SWEPT.map(|scheme| scheme.name());
    let counters: Vec<PortCounters> = sweep(opts, exps).iter().map(|r| r.counters).collect();
    for (ks, counters) in ks.chunks(SWEPT.len()).zip(counters.chunks(SWEPT.len())) {
        for ((k, name), c) in ks.iter().zip(&names).zip(counters) {
            let (sent, dropped, eff) = (c.enqueued + c.dropped, c.dropped, pct(efficiency(c), 12));
            writeln!(out, "{k:<10.0} {name:<10} {sent:>14} {dropped:>14} {eff}")?;
        }
        write_claims(out, FIG29, &names.each_ref().map(String::as_str), counters)?;
        writeln!(out)?;
    }
    Ok(())
}

/// Fig 19: kernel datapath processing overhead, PPT vs DCTCP.
///
/// Substitution (DESIGN.md §6): the paper measures kernel-space CPU % on
/// the testbed; here it is wall-clock nanoseconds inside each transport's
/// event handlers, per handled event — the same claim ("PPT's extra logic
/// costs <1 % over DCTCP") in the simulator's terms. The points run one
/// after another whatever `jobs` says: a neighbour on the other core
/// would be measured as handler time.
pub(super) fn fig19(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Fig 19",
        "[Testbed] transport processing overhead, PPT vs DCTCP",
        "15-host testbed, Web Search; wall-clock ns per transport event (CPU substitute)",
    )?;
    writeln!(
        out,
        "{:<8} {:<8} {:>16} {:>16} {:>12}",
        "load", "scheme", "cpu-ns total", "events", "ns/event"
    )?;
    let topo = TopoKind::PaperTestbed;
    for load in [0.3, 0.5, 0.7] {
        let dist = SizeDistribution::web_search();
        let flows = workload(opts, topo, Pattern::AllToAll, dist, load, 400);
        let costs = [Scheme::Dctcp, Scheme::Ppt].map(|scheme| {
            let exp = Experiment::new(topo, scheme, flows.clone());
            let sim = run_experiment_with(&exp, |t| t.sim.measure_cpu = true).sim;
            let (ns, calls) = (0..sim.host_count())
                .map(|h| sim.cpu_account(HostId(h as u32)))
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
            (exp.scheme.name(), ns, calls, ns as f64 / calls as f64)
        });
        for (name, ns, calls, cost) in &costs {
            writeln!(out, "{load:<8} {name:<8} {ns:>16} {calls:>16} {cost:>12.1}")?;
        }
        let ratio = costs[1].3 / costs[0].3;
        writeln!(
            out,
            "         -> PPT / DCTCP per-event cost ratio: {ratio:.3} (paper: <1% CPU gap)"
        )?;
    }
    Ok(())
}

/// §4.1: buffer-aware identification accuracy. The paper measures, on
/// real applications, how many large flows are identifiable from the
/// *first* send() syscall: 86.7 % of Memcached flows over 1 KB and 84.3 %
/// of web flows over 10 KB. The application write model is calibrated to
/// this (`DEFAULT_FULL_WRITE_PROB`); this validates the calibration end
/// to end through the workload generator. Simulates nothing.
pub(super) fn sec4(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "§4.1",
        "Buffer-aware identification accuracy at flow start",
        "first-syscall write model vs identification threshold",
    )?;
    writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "workload", "threshold", "large flows", "identified", "accuracy"
    )?;
    for (dist, threshold, paper) in [
        (SizeDistribution::memcached_w1(), 1_000u64, "86.7%"),
        (SizeDistribution::web_search(), 10_000, "84.3%"),
        (SizeDistribution::data_mining(), 100_000, "-"),
    ] {
        let (name, n) = (dist.name(), opts.flows.unwrap_or(20_000));
        let list = all_to_all(16, &WorkloadSpec::new(dist, 0.5, Rate::gbps(10), n, opts.seed));
        let ident = ppt_core::FlowIdentifier { threshold_bytes: threshold };
        let large: Vec<_> = list.iter().filter(|f| f.size_bytes > threshold).collect();
        let caught = large.iter().filter(|f| ident.is_large_at_start(f.first_write_bytes)).count();
        let (large, accuracy) = (large.len(), caught as f64 / large.len() as f64 * 100.0);
        writeln!(
            out,
            "{name:<14} {threshold:>12} {large:>12} {caught:>12} {accuracy:>9.1}%  (paper: {paper})"
        )?;
    }
    writeln!(
        out,
        "\nUnidentified large flows fall back to PIAS-style aging (Fig 18 isolates the benefit)."
    )
}

/// Footnote 3: PPT's W_max bookkeeping can treat early and late flows
/// differently — the paper acknowledges the unfairness but argues it is
/// minor. Quantified: N equal-size flows start staggered on one
/// bottleneck; fairness = Jain's index over their average throughputs
/// (size / FCT). Fixed workload: `flows` and `seed` do not apply.
pub(super) fn ext_fairness(opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Ext (footnote 3)",
        "Fairness across staggered equal-size flows",
        "8 senders -> 1 sink at 10G, 8 x 8MB flows, 1ms stagger",
    )?;
    writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>12}",
        "scheme", "avg FCT (ms)", "max/min FCT", "Jain index"
    )?;
    let topo = TopoKind::Star { n: 9, rate_gbps: 10, delay_us: 20 };
    let size = 8u64 << 20;
    let flow = |i: usize| FlowSpec {
        src: i,
        dst: 8,
        size_bytes: size,
        start: SimTime(i as u64 * 1_000_000),
        first_write_bytes: size,
    };
    let flows: Vec<FlowSpec> = (0..8).map(flow).collect();
    let exps = [Scheme::Dctcp, Scheme::Ppt, Scheme::Homa]
        .map(|scheme| Experiment::new(topo, scheme, flows.clone()));
    for r in sweep(opts, exps) {
        let fcts: Vec<f64> = r.fct.records().iter().map(|r| r.fct.as_nanos() as f64).collect();
        let throughputs: Vec<f64> = fcts.iter().map(|f| size as f64 / f).collect();
        let max = fcts.iter().cloned().fold(0.0, f64::max);
        let min = fcts.iter().cloned().fold(f64::MAX, f64::min);
        let (name, avg) = (&r.label, fcts.iter().sum::<f64>() / fcts.len() as f64 / 1e6);
        let (spread, jain) = (max / min, jain_index(&throughputs));
        writeln!(out, "{name:<12} {avg:>14.2} {spread:>14.2} {jain:>12.3}")?;
    }
    writeln!(out, "\nexpectation: PPT's Jain index stays close to DCTCP's (no added unfairness")?;
    writeln!(out, "beyond the W_max effect the paper's footnote 3 accepts).")
}

/// Table 1: qualitative comparison of prior transports and PPT.
pub(super) fn table1(_: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Table 1",
        "Summary of prior transports and comparison to PPT",
        "static capability metadata",
    )?;
    // Header and rows share one set of column widths.
    let mut line = |[a, b, c, d, e, f, g]: [&str; 7]| {
        writeln!(out, "{a:<10} {b:<12} {c:<28} {d:<24} {e:<10} {f:<8} {g:<8}")
    };
    line([
        "family",
        "scheme",
        "spare bandwidth pattern",
        "sched w/o flow size",
        "commodity",
        "TCP/IP",
        "no-app",
    ])?;
    let yn = |b: bool| if b { "Yes" } else { "No" };
    for r in TABLE1 {
        let [commodity, tcpip, no_app] =
            [r.commodity_switches, r.tcpip_compatible, r.app_non_intrusive].map(yn);
        line([r.family, r.name, r.spare.label(), r.scheduling.label(), commodity, tcpip, no_app])?;
    }
    Ok(())
}

/// Table 2: flow size distributions of the realistic workloads.
pub(super) fn table2(_: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Table 2",
        "Flow size distributions of realistic workloads",
        "analytic CDF statistics",
    )?;
    writeln!(
        out,
        "{:<14} {:>20} {:>20} {:>16}",
        "workload", "short flows (0-100KB)", "large flows (>100KB)", "avg size"
    )?;
    for dist in [
        SizeDistribution::web_search(),
        SizeDistribution::data_mining(),
        SizeDistribution::memcached_w1(),
    ] {
        let (name, short, mb) = (dist.name(), dist.cdf(100_000), dist.mean_bytes() / 1e6);
        let (short, large) = (short * 100.0, (1.0 - short) * 100.0);
        writeln!(out, "{name:<14} {short:>20.1}% {large:>19.1}% {mb:>13.2}MB")?;
    }
    writeln!(out, "\npaper: WebSearch 62%/38%/1.6MB, DataMining 83%/17%/7.41MB")
}

/// Table 3: the testbed parameter settings, as configured in this repo.
pub(super) fn table3(_: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(out, "Table 3", "Testbed parameters", "SchemeEnv::paper_testbed()")?;
    let env = SchemeEnv::paper_testbed();
    writeln!(out, "{:<34} {} KB", "Switch buffer size (per port)", env.port_buffer / 1000)?;
    writeln!(out, "{:<34} {}", "Hosts", TopoKind::PaperTestbed.hosts())?;
    writeln!(out, "{:<34} 10 Gbps", "Link rate")?;
    writeln!(out, "{:<34} 80 us", "RTT")?;
    writeln!(out, "{:<34} {:?}", "RTO_min", env.min_rto)?;
    writeln!(out, "{:<34} {} KB", "RTTbytes for Homa", env.rtt_bytes / 1000)?;
    writeln!(out, "{:<34} {}", "Overcommitment degree for Homa", 2)?;
    writeln!(out, "{:<34} {} KB", "DCTCP/HCP ECN threshold", env.k_high / 1000)?;
    writeln!(out, "{:<34} {} KB", "LCP ECN threshold", env.k_low / 1000)?;
    writeln!(out, "{:<34} {} KB", "Identification threshold", 100)
}

/// Tables 4 & 5 (appendix C): the deployability argument in numbers —
/// Homa/Linux's stack size and the application changes it forces. Static
/// measurements reported by the paper (of third-party code), reproduced
/// as data; contrast with PPT's ~400-line kernel patch.
pub(super) fn table4_5(_: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    banner(
        out,
        "Tables 4 & 5",
        "Deployability: lines-of-code accounting",
        "static data from the paper + this repo",
    )?;
    writeln!(out, "Table 4: Homa/Linux stack modules (paper appendix C)")?;
    writeln!(out, "{:<26} {:>8} {:>8}", "module", "LoC", "share")?;
    for (m, loc, pct) in [
        ("User API", 1900, "15%"),
        ("Transport control", 2800, "22%"),
        ("GRO/GSO", 400, "3.1%"),
        ("State management", 700, "5.5%"),
        ("Memory management", 300, "2.4%"),
        ("Timeout retransmission", 300, "2.4%"),
        ("Other", 6300, "49.6%"),
    ] {
        writeln!(out, "{m:<26} {loc:>8} {pct:>8}")?;
    }
    writeln!(out, "\nTable 5: key-value store changes needed to adopt Homa/Linux")?;
    writeln!(out, "{:<34} {:>8} {:>10}", "module", "LoC", "modified?")?;
    for (m, loc, y) in [
        ("Socket", 2080, "Y"),
        ("HTTP package header processing", 1516, "N"),
        ("RPC", 975, "Y"),
        ("RAFT consensus protocol", 1365, "N"),
        ("Coroutine synchronization", 145, "N"),
        ("IO", 393, "Y"),
        ("Other", 1694, "N"),
    ] {
        writeln!(out, "{m:<34} {loc:>8} {y:>10}")?;
    }
    writeln!(out, "\nmodified modules total 3448 LoC = 42.2% of the application;")?;
    writeln!(out, "PPT's kernel prototype is ~400 LoC with zero application changes.")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty split or no packets at all is no statistic: the figures
    /// print `n/a`, and so do the claim lines that read these values.
    #[test]
    fn empty_inputs_are_not_numbers() {
        assert_eq!(low_share(&OccupancySplit::default()), None);
        assert_eq!(efficiency(&PortCounters::default()), None);
        let names = ["DCTCP", "RC3", "PPT"];
        let split = [OccupancySplit::default(); 3];
        let line = FIG28[0].evaluate(&names, &split).to_string();
        assert_eq!(line, "claim: n/a low share, PPT vs RC3: n/a (paper -88.0%)");
        let line = FIG29[1].evaluate(&names, &[PortCounters::default(); 3]).to_string();
        assert_eq!(line, "claim: n/a efficiency, RC3 vs PPT: n/a (paper -16.5%)");
        let split =
            OccupancySplit { high_avg_bytes: 3.0, low_avg_bytes: 1.0, total_avg_bytes: 4.0 };
        assert_eq!(low_share(&split), Some(25.0));
        let c = PortCounters { enqueued: 3, dropped: 1, ..PortCounters::default() };
        assert_eq!(efficiency(&c), Some(75.0));
    }
}
