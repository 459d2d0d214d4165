//! The paper's evidence as one table: every figure and table of the
//! evaluation is a row of [`FIGURES`], keyed by the stem of its
//! `results/<id>.txt`, and `pptlab figure --ids <id,…|all>` is the one
//! door that runs them.
//!
//! Most figures are an FCT table — a topology, a traffic pattern, one or
//! more workload panels and loads, a list of scheme rows and a footer —
//! and are pure data (`FctFigure`) run by one function that hands every
//! (panel, load, row) cell to [`crate::sweep`], so `jobs` speeds all of
//! them up and the bytes written never depend on it. The figures that
//! measure something else (utilisation, occupancy, handler wall time,
//! static tables) are one function each in `custom.rs`.
//!
//! A figure writes to a `&mut dyn Write` and returns `io::Result`: a
//! statistic over an empty sample set prints `n/a`, it does not abort.

use std::io::{self, Write};

use dcn_stats::FctSummary;
use workloads::{all_to_all, incast, FlowSpec, SizeDistribution, WorkloadSpec};

use crate::harness::Scheme::{self, *};
use crate::harness::{Experiment, SchemeEnv, TopoKind};
use crate::sweep::{PointResult, SweepSpec};

mod custom;

/// What the caller may set for a figure run. None of it changes which
/// lines a figure prints, only the numbers (`flows`, `seed`) or the
/// wall-clock time (`jobs`).
#[derive(Clone, Copy, Debug)]
pub struct FigureOpts {
    /// Flows per experiment point; `None` = each figure's own default.
    pub flows: Option<usize>,
    /// Workload seed (the recorded results use 42).
    pub seed: u64,
    /// Sweep worker threads; output is byte-identical for any value.
    pub jobs: usize,
}

/// One figure or table of the paper.
pub struct Figure {
    /// File stem of the recorded result, `results/<id>.txt`.
    pub id: &'static str,
    kind: Kind,
}

enum Kind {
    /// An FCT table, described as data.
    Fct(FctFigure),
    /// A measurement-specific figure.
    Custom(Run),
}
type Run = fn(&FigureOpts, &mut dyn Write) -> io::Result<()>;

impl Figure {
    /// Run the figure and write exactly what `results/<id>.txt` records.
    pub fn run(&self, opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
        match &self.kind {
            Kind::Fct(fig) => run_fct(fig, opts, out),
            Kind::Custom(run) => run(opts, out),
        }
    }
}

/// Look a figure up by id.
pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

const fn fct(id: &'static str, fig: FctFigure) -> Figure {
    Figure { id, kind: Kind::Fct(fig) }
}

const fn custom(id: &'static str, run: Run) -> Figure {
    Figure { id, kind: Kind::Custom(run) }
}

/// An FCT-table figure: `panels` × `loads` tables of `rows`.
struct FctFigure {
    /// Banner lines; `{}` in `what` stands for the panel's workload name.
    what: &'static str,
    setup: &'static str,
    topo: TopoKind,
    pattern: Pattern,
    /// One banner + table group each (Figs 8/9, 10/11 and 12/13 are one
    /// set-up under two workloads), followed by a blank line when there
    /// are several.
    panels: &'static [Panel],
    /// More than one load prints a `-- load L --` line above each table.
    loads: &'static [f64],
    rows: &'static [Row],
    /// Printed under each table after one blank line.
    footer: &'static [Footer],
}

/// `(figure label, workload, default flow count)`; the defaults are sized
/// so a figure finishes in minutes.
type Panel = (&'static str, fn() -> SizeDistribution, usize);

#[derive(Clone, Copy)]
enum Pattern {
    /// Poisson all-to-all among every host of the topology.
    AllToAll,
    /// Hosts `0..n` send to host `n`.
    Incast(usize),
}

struct Row {
    scheme: Scheme,
    /// Row label (`None` = the scheme's display name) and environment
    /// change on top of the topology's defaults.
    tweak: Option<(&'static str, fn(&mut SchemeEnv))>,
}

const fn row(scheme: Scheme) -> Row {
    Row { scheme, tweak: None }
}

enum Footer {
    Text(&'static str),
    /// `(lead, large)` prints `lead: overall ±x%, small avg ±x%, small p99
    /// ±x%[, large ±x%]`: the second row's change against the first.
    Change(&'static str, bool),
    /// `(lead, against, paper)` prints `lead±x% (paper: P)`: the last
    /// row's overall average against row `against`.
    Versus(&'static str, usize, &'static str),
    /// The fill fraction of the row with the lowest overall average.
    BestFill,
}

const WEB_SEARCH: fn() -> SizeDistribution = SizeDistribution::web_search;
const DATA_MINING: fn() -> SizeDistribution = SizeDistribution::data_mining;

/// The large-scale set-up (§6.2): all-to-all at load 0.5 on the 1.4:1
/// oversubscribed 144-host 40/100 G fabric. Every figure starts from it.
const OVERSUB: FctFigure = FctFigure {
    what: "",
    setup: "144-host oversubscribed fabric, Web Search, load 0.5",
    topo: TopoKind::Oversubscribed,
    pattern: Pattern::AllToAll,
    panels: &[],
    loads: &[0.5],
    rows: &[],
    footer: &[],
};
const LEAF_SPINE: &str = "144-host leaf-spine 40/100G, Web Search, load 0.5";
/// The workload nine figures on [`OVERSUB`] share: Web Search, 1 200 flows.
const fn ws_1200(fig: &'static str) -> Panel {
    (fig, WEB_SEARCH, 1200)
}

/// The six-scheme comparison of the large-scale figures.
const LARGE_SCALE: &[Row] = &[row(Ndp), row(Aeolus), row(Homa), row(Rc3), row(Dctcp), row(Ppt)];
/// The testbed comparison set (§6.1).
const TESTBED: &[Row] = &[row(Homa), row(Rc3), row(Dctcp), row(Ppt)];
const ABLATION: &[Footer] = &[Footer::Change("ablation slowdown", false)];

/// Every figure and table, in the order `--ids all` runs them.
pub const FIGURES: &[Figure] = &[
    custom("ext_fairness", custom::ext_fairness),
    // Appendix B's future work, not a paper figure: PPT's dual loop and
    // scheduling over the INT-based HPCC. One addition the sketch missed:
    // the INT must report the high band only, or HPCC counts the
    // opportunistic traffic as congestion and yields the window to it.
    fct("ext_hpcc_ppt", FctFigure {
        what: "PPT-over-HPCC vs plain HPCC vs PPT",
        panels: &[ws_1200("Ext (appendix B)")],
        rows: &[row(Hpcc), row(HpccPpt), row(Ppt)],
        footer: &[Footer::Text(
            "expected: PPT-over-HPCC adds scheduling gains for small flows on top of\n\
             HPCC's graceful rate control; overall close to native PPT.",
        )],
        ..OVERSUB
    }),
    // §2.1's reactive-startup spectrum: TCP-10 and Halfback only attack
    // the start-up half of DCTCP's under-utilisation, RC3 both halves but
    // aggressively, PPT both gracefully; ExpressPass wastes the first RTT.
    fct("ext_reactive_startup", FctFigure {
        what: "Reactive startup variants vs PPT",
        setup: "15-host testbed, Web Search, load 0.5",
        topo: TopoKind::PaperTestbed,
        panels: &[("Ext (§2.1)", WEB_SEARCH, 500)],
        rows: &[row(Tcp10), row(Halfback), row(Dctcp), row(ExpressPass), row(Rc3), row(Ppt)],
        ..OVERSUB
    }),
    custom("fig01_dctcp_util", custom::fig01),
    // Fig 2: the hypothetical (MW-oracle) DCTCP beats Homa and NDP on
    // overall average FCT — the motivating observation of §2.3.
    fct("fig02_hypothetical", FctFigure {
        what: "Overall avg FCT: hypothetical DCTCP vs Homa vs NDP vs DCTCP",
        setup: "144-host leaf-spine 40/100G, Web Search, all-to-all, load 0.5",
        panels: &[("Fig 2", WEB_SEARCH, 1500)],
        rows: &[row(Dctcp), row(Ndp), row(Homa), row(Hypothetical(1.0))],
        footer: &[
            Footer::Versus("hypothetical vs Homa: ", 2, "-33%"),
            Footer::Versus("hypothetical vs NDP:  ", 1, "-40%"),
        ],
        ..OVERSUB
    }),
    // Fig 3: filling the window gap to different fractions of MW.
    // Under-filling wastes capacity, over-filling causes losses; 1× wins.
    fct("fig03_fill_fraction", FctFigure {
        what: "Overall avg FCT when filling the gap to f x MW",
        setup: "144-host leaf-spine 40/100G, Data Mining, all-to-all, load 0.6",
        panels: &[("Fig 3", DATA_MINING, 250)],
        loads: &[0.6],
        rows: &[row(Hypothetical(0.5)), row(Hypothetical(1.0)), row(Hypothetical(1.5))],
        footer: &[Footer::BestFill],
        ..OVERSUB
    }),
    // Figs 8 & 9: testbed 15-to-15 all-to-all FCT statistics vs load, for
    // the Web Search (Fig 8) and Data Mining (Fig 9) workloads.
    fct("fig08_09_testbed_15to15", FctFigure {
        what: "[Testbed] 15-to-15, {} workload",
        setup: "15 hosts, 10G, 80us RTT, RTOmin 10ms, loads 0.3-0.7",
        topo: TopoKind::PaperTestbed,
        panels: &[("Fig 8", WEB_SEARCH, 800), ("Fig 9", DATA_MINING, 250)],
        loads: &[0.3, 0.5, 0.7],
        rows: TESTBED,
        ..OVERSUB
    }),
    // Figs 10 & 11: testbed 14-to-1 incast FCT statistics at load 0.5, for
    // the Web Search (Fig 10) and Data Mining (Fig 11) workloads.
    fct("fig10_11_testbed_14to1", FctFigure {
        what: "[Testbed] 14-to-1 incast, {} workload",
        setup: "15 hosts, 10G, 80us RTT, load 0.5 on the sink downlink",
        topo: TopoKind::PaperTestbed,
        pattern: Pattern::Incast(14),
        panels: &[("Fig 10", WEB_SEARCH, 400), ("Fig 11", DATA_MINING, 150)],
        rows: TESTBED,
        ..OVERSUB
    }),
    // Figs 12 & 13: large-scale simulation on the 1.4:1 oversubscribed
    // 40/100 G fabric — the headline six-scheme comparison.
    fct("fig12_13_largescale", FctFigure {
        what: "[Simulation] large-scale, {} workload",
        setup: "144 hosts, 9 leaves, 4 spines, 40/100G, all-to-all, load 0.5",
        panels: &[("Fig 12", WEB_SEARCH, 1500), ("Fig 13", DATA_MINING, 400)],
        rows: LARGE_SCALE,
        ..OVERSUB
    }),
    // Fig 14: PPT's design as a building block for a delay-based
    // transport (Swift-like): dual loop + scheduling on top of delay CC.
    fct("fig14_delay_based", FctFigure {
        what: "[Simulation] PPT over a delay-based transport (Swift-like)",
        setup: LEAF_SPINE,
        panels: &[ws_1200("Fig 14")],
        rows: &[row(Swift), row(SwiftPpt)],
        footer: &[
            Footer::Change("reductions vs plain delay-based", true),
            Footer::Text("paper: -16.7% overall, -56.5%/-72.1% small avg/tail, -11% large"),
        ],
        ..OVERSUB
    }),
    // Figs 15–18: ablations — original PPT against PPT without ECN on the
    // LCP queues (15), without EWD, i.e. line-rate LCP (16), without flow
    // scheduling (17) and without buffer-aware identification (18).
    fct("fig15_ablation", FctFigure {
        what: "[Simulation] Effect of ECN for the LCP loop",
        setup: LEAF_SPINE,
        panels: &[ws_1200("Fig 15")],
        rows: &[row(Ppt), row(PptNoLcpEcn)],
        footer: ABLATION,
        ..OVERSUB
    }),
    fct("fig16_ablation", FctFigure {
        what: "[Simulation] Effect of EWD",
        setup: LEAF_SPINE,
        panels: &[ws_1200("Fig 16")],
        rows: &[row(Ppt), row(PptNoEwd)],
        footer: ABLATION,
        ..OVERSUB
    }),
    fct("fig17_ablation", FctFigure {
        what: "[Simulation] Effect of flow scheduling",
        setup: LEAF_SPINE,
        panels: &[ws_1200("Fig 17")],
        rows: &[row(Ppt), row(PptNoScheduling)],
        footer: ABLATION,
        ..OVERSUB
    }),
    fct("fig18_ablation", FctFigure {
        what: "[Simulation] Effect of buffer-aware identification",
        setup: LEAF_SPINE,
        panels: &[ws_1200("Fig 18")],
        rows: &[row(Ppt), row(PptNoIdentification)],
        footer: ABLATION,
        ..OVERSUB
    }),
    custom("fig19_cpu_overhead", custom::fig19),
    custom("fig20_ppt_util", custom::fig20),
    custom("fig21_memcached", custom::fig21),
    // Fig 22: the 100/400 G topology — PPT's gains persist at higher line
    // rates (with small-flow tails inflated by the larger BDP).
    fct("fig22_100_400g", FctFigure {
        what: "[100/400G] FCTs under Web Search at 0.5 load",
        setup: "144 hosts, 9 leaves, 4 spines, 100G edge / 400G core",
        topo: TopoKind::HighSpeed,
        panels: &[("Fig 22", WEB_SEARCH, 1500)],
        rows: LARGE_SCALE,
        ..OVERSUB
    }),
    custom("fig23_incast", custom::fig23),
    // Fig 24 (appendix D): RC3 still loses to PPT even when its
    // low-priority queues are capped to a fraction of the switch buffer.
    fct("fig24_rc3_buffer", FctFigure {
        what: "[Simulation] RC3 with capped low-priority buffer vs PPT",
        panels: &[ws_1200("Fig 24")],
        rows: &[
            row(Ppt),
            row(Rc3BufferCap(0.2)),
            row(Rc3BufferCap(0.4)),
            row(Rc3BufferCap(0.6)),
            row(Rc3BufferCap(0.8)),
        ],
        footer: &[Footer::Text(
            "paper: PPT beats RC3 at every cap (up to -71% overall, -73%/-75% small avg/tail)",
        )],
        ..OVERSUB
    }),
    // Fig 25 (appendix D): PPT vs PIAS and HPCC.
    fct("fig25_pias_hpcc", FctFigure {
        what: "[Simulation] PPT vs PIAS vs HPCC",
        panels: &[ws_1200("Fig 25")],
        rows: &[row(Pias), row(Hpcc), row(Ppt)],
        footer: &[Footer::Text("paper: PPT -24.6% overall vs PIAS, -4.7% overall vs HPCC")],
        ..OVERSUB
    }),
    // Fig 26 (appendix E): the non-oversubscribed topology — friendlier to
    // proactive transports; PPT still wins overall and on large flows.
    fct("fig26_nonoversub", FctFigure {
        what: "[Non-oversubscribed] FCTs under Web Search at 0.5 load",
        setup: "144 hosts, 10G edge / 40G core, 1:1 bisection",
        topo: TopoKind::NonOversubscribed,
        panels: &[("Fig 26", WEB_SEARCH, 1000)],
        rows: LARGE_SCALE,
        ..OVERSUB
    }),
    // Fig 27 (appendix F): sensitivity to the TCP send buffer size. Small
    // buffers blunt the tail loop's reach on large flows; 2 MB is enough.
    fct("fig27_sendbuf", FctFigure {
        what: "[Simulation] PPT FCTs vs TCP send buffer capacity",
        panels: &[ws_1200("Fig 27")],
        rows: &[
            Row { scheme: Ppt, tweak: Some(("PPT sndbuf=128KB", |e| e.send_buffer = 128 << 10)) },
            Row { scheme: Ppt, tweak: Some(("PPT sndbuf=2MB", |e| e.send_buffer = 2 << 20)) },
            Row { scheme: Ppt, tweak: Some(("PPT sndbuf=4MB", |e| e.send_buffer = 4 << 20)) },
            Row { scheme: Ppt, tweak: Some(("PPT sndbuf=2GB", |e| e.send_buffer = 2 << 30)) },
        ],
        footer: &[Footer::Text(
            "paper: 128KB hurts overall/large FCT; >=2MB suffices (avg WebSearch flow is 1.6MB)",
        )],
        ..OVERSUB
    }),
    custom("fig28_buffer_occupancy", custom::fig28),
    custom("fig29_transfer_efficiency", custom::fig29),
    custom("sec4_identification", custom::sec4),
    custom("table1_comparison", custom::table1),
    custom("table2_workloads", custom::table2),
    custom("table3_params", custom::table3),
    custom("table4_5_loc", custom::table4_5),
];

/// Write the standard experiment banner.
fn banner(out: &mut dyn Write, id: &str, what: &str, setup: &str) -> io::Result<()> {
    let rule = "================================================================";
    writeln!(out, "{rule}\n{id}: {what}\nsetup: {setup}\n{rule}")
}

/// A workload of `pattern` on `topo`: `opts.flows` flows, or the figure's
/// `default_flows`.
fn workload(
    opts: &FigureOpts,
    topo: TopoKind,
    pattern: Pattern,
    dist: SizeDistribution,
    load: f64,
    default_flows: usize,
) -> Vec<FlowSpec> {
    let flows = opts.flows.unwrap_or(default_flows);
    let spec = WorkloadSpec::new(dist, load, topo.edge_rate(), flows, opts.seed);
    match pattern {
        Pattern::AllToAll => all_to_all(topo.hosts(), &spec),
        Pattern::Incast(senders) => incast(senders, &spec),
    }
}

/// Run `exps` as one sweep on `opts.jobs` workers, each point labelled
/// with its scheme's display name; results in `exps` order.
fn sweep(opts: &FigureOpts, exps: impl IntoIterator<Item = Experiment>) -> Vec<PointResult> {
    let spec = SweepSpec::new().jobs(opts.jobs);
    exps.into_iter().fold(spec, |spec, exp| spec.point(exp.scheme.name(), exp)).run()
}

/// Run an FCT-table figure: every (panel, load, row) cell is one point of
/// a single sweep, printed in table order whatever order they finished in.
fn run_fct(fig: &FctFigure, opts: &FigureOpts, out: &mut dyn Write) -> io::Result<()> {
    let mut exps = Vec::new();
    for &(_, dist, default_flows) in fig.panels {
        for &load in fig.loads {
            let flows = workload(opts, fig.topo, fig.pattern, dist(), load, default_flows);
            for row in fig.rows {
                let mut exp = Experiment::new(fig.topo, row.scheme.clone(), flows.clone());
                if let Some((_, tweak)) = row.tweak {
                    tweak(&mut exp.env);
                }
                exps.push(exp);
            }
        }
    }
    let results = sweep(opts, exps);
    let mut tables = results.chunks(fig.rows.len());
    for &(label, dist, _) in fig.panels {
        banner(out, label, &fig.what.replace("{}", dist().name()), fig.setup)?;
        for &load in fig.loads {
            if fig.loads.len() > 1 {
                writeln!(out, "\n-- load {load} --")?;
            }
            write_table(fig, tables.next().unwrap_or_default(), out)?;
        }
        if fig.panels.len() > 1 {
            writeln!(out)?;
        }
    }
    Ok(())
}

/// One header, one line per row, then the footer.
fn write_table(fig: &FctFigure, table: &[PointResult], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "scheme", "overall(us)", "small avg", "small p99", "large avg", "done%"
    )?;
    let rows: Vec<FctSummary> = table.iter().map(|r| r.fct.summary()).collect();
    for ((r, s), row) in table.iter().zip(&rows).zip(fig.rows) {
        let name = row.tweak.map_or(r.label.as_str(), |(label, _)| label);
        let (all, small, p99) = (s.overall_avg_us, s.small_avg_us, s.small_p99_us);
        let (large, done) = (s.large_avg_us, r.completion_ratio * 100.0);
        writeln!(
            out,
            "{name:<24} {all:>12.1} {small:>12.1} {p99:>12.1} {large:>12.1} {done:>8.1}"
        )?;
    }
    if !fig.footer.is_empty() {
        writeln!(out)?;
    }
    // Relative change of `new` against `base`, percent.
    let change = |new: f64, base: f64| (new / base - 1.0) * 100.0;
    for line in fig.footer {
        match *line {
            Footer::Text(text) => writeln!(out, "{text}")?,
            Footer::Change(lead, with_large) => {
                let [base, new, ..] = &rows[..] else { continue };
                let all = change(new.overall_avg_us, base.overall_avg_us);
                let small = change(new.small_avg_us, base.small_avg_us);
                let p99 = change(new.small_p99_us, base.small_p99_us);
                write!(
                    out,
                    "{lead}: overall {all:+.1}%, small avg {small:+.1}%, small p99 {p99:+.1}%"
                )?;
                if with_large {
                    write!(out, ", large {:+.1}%", change(new.large_avg_us, base.large_avg_us))?;
                }
                writeln!(out)?;
            }
            Footer::Versus(lead, against, paper) => {
                let (Some(new), Some(base)) = (rows.last(), rows.get(against)) else { continue };
                let by = change(new.overall_avg_us, base.overall_avg_us);
                writeln!(out, "{lead}{by:+.1}% (paper: {paper})")?;
            }
            Footer::BestFill => {
                let mut best = (f64::MAX, 0.0);
                for (r, s) in table.iter().zip(&rows) {
                    if let (Hypothetical(frac), true) = (&r.scheme, s.overall_avg_us < best.0) {
                        best = (s.overall_avg_us, *frac);
                    }
                }
                writeln!(out, "best fill fraction: {:.2} x MW (paper: 1.0 x MW)", best.1)?;
            }
        }
    }
    Ok(())
}
