//! The shared sweep layer: every figure of the paper is a grid of
//! (scheme, load, seed, …) points, and this module is the one place that
//! loop lives — [`run_stream`], a zero-dependency `std::thread` worker
//! pool that pulls its points off an iterator and hands results back in
//! point order, and the declarative [`SweepSpec`] and [`grid_cells`] it
//! runs.
//!
//! ## Memory
//!
//! A sweep of lazy [`Cell`]s holds one expanded point per worker and hands
//! each result on as soon as the points before it are done (DESIGN.md §10.2).
//!
//! ## Determinism
//!
//! Each point is a complete, independent [`run_experiment`] call: a fresh
//! `Simulator`, its own flow list and (by harness default) its own bounded
//! flight recorder — workers share no mutable state, so a point's bytes
//! cannot depend on which worker ran it or on how points interleave in
//! wall-clock time. Results are keyed by point *index*, not completion
//! order, so `jobs = 1` and `jobs = N` return byte-identical sequences
//! (asserted by `tests/determinism.rs`). The only observable difference
//! under parallelism is stderr interleaving of abnormal-run warnings.
//!
//! Two-pass schemes ([`Scheme::Hypothetical`]) work unchanged: the oracle
//! recording pass happens inside the worker's `run_experiment` call, so a
//! sweep may freely mix single-pass and two-pass points.

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

use dcn_stats::FctStats;
use netsim::{PortCounters, RunReport};
use workloads::{all_to_all, SizeDistribution, WorkloadSpec};

use crate::harness::{run_experiment, Experiment, Outcome, Scheme, TopoKind};

/// The one runner: take `items` one at a time as a worker frees up, run
/// `f` on each on `jobs` worker threads, and hand every result to `emit`
/// on the caller's thread, in item order, as soon as it and every earlier
/// result are done. At most `jobs` items are out of the iterator at once;
/// results that finish ahead of an earlier one wait in a reorder buffer.
///
/// `jobs <= 1`, or an iterator known to hold at most one item, runs
/// serially on the caller's thread with no pool at all. A panic in any
/// point propagates to the caller once all workers have stopped.
pub fn run_stream<I, T, F, E>(items: I, jobs: usize, f: F, mut emit: E)
where
    I: IntoIterator,
    I::IntoIter: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
    E: FnMut(T),
{
    let items = items.into_iter();
    let workers = items.size_hint().1.map_or(jobs, |n| jobs.min(n));
    if workers <= 1 {
        items.for_each(|item| emit(f(item)));
        return;
    }
    let items = Mutex::new(items.enumerate());
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (items, f, tx) = (&items, &f, tx.clone());
            scope.spawn(move || loop {
                // The lock is held only to take the item, not to run it. A
                // poisoned lock means a worker panicked taking one: stop, and
                // the scope hands that panic to the caller.
                let Ok(mut items) = items.lock() else { break };
                let Some((i, item)) = items.next() else { break };
                drop(items);
                if tx.send((i, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut early = BTreeMap::new();
        let mut next = 0;
        for (i, out) in rx {
            early.insert(i, out);
            while let Some(out) = early.remove(&next) {
                emit(out);
                next += 1;
            }
        }
    });
}

/// Run `f(0..n)` on `jobs` worker threads and return the results in index
/// order. Use it directly when a figure needs a custom per-point
/// extraction (samplers, traces, …).
///
/// `T` must be `Send` plain data — the full [`Outcome`] (which owns the
/// simulator) stays on the worker thread.
pub fn run_points<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    run_stream(0..n, jobs, f, |t| out.push(t));
    out
}

/// One cell of a sweep: a display label plus the experiment to run.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable tag carried into the result (e.g. `"PPT load 0.5"`).
    pub label: String,
    /// The fully-described experiment for this cell.
    pub exp: Experiment,
}

impl SweepPoint {
    /// Run the point; its experiment, flow list included, is dropped
    /// before the result is returned.
    pub fn run(self) -> PointResult {
        let SweepPoint { label, exp } = self;
        let outcome = run_experiment(&exp);
        PointResult::extract(label, exp.scheme, outcome)
    }
}

/// A sweep cell before its flows exist: `exp` with an empty flow list,
/// and the all-to-all workload on `exp.topo` that generates them.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable tag carried into the result.
    pub label: String,
    /// The experiment to run, without its flows.
    pub exp: Experiment,
    /// What generates the flows.
    pub workload: WorkloadSpec,
}

impl Cell {
    /// The point with the cell's flows drawn.
    pub fn expand(self) -> SweepPoint {
        let Cell { label, mut exp, workload } = self;
        exp.flows = all_to_all(exp.topo.hosts(), &workload);
        SweepPoint { label, exp }
    }

    /// Expand the cell and run it.
    pub fn run(self) -> PointResult {
        self.expand().run()
    }
}

/// The scheme × load × seed grid of the paper's figures as cells, in
/// row-major order (scheme outermost, seed innermost): an all-to-all
/// workload of `flows` flows drawn from `dist` on `topo`. Lazy: a cell is
/// made when it is taken.
pub fn grid_cells<'a>(
    topo: TopoKind,
    schemes: impl IntoIterator<Item = &'a Scheme, IntoIter: 'a>,
    dist: &'a SizeDistribution,
    loads: &'a [f64],
    flows: usize,
    seeds: &'a [u64],
) -> impl Iterator<Item = Cell> + 'a {
    schemes.into_iter().flat_map(move |scheme| {
        loads.iter().flat_map(move |&load| {
            seeds.iter().map(move |&seed| {
                let label = match (loads.len(), seeds.len()) {
                    (1, 1) => scheme.name(),
                    (_, 1) => format!("{} load {load}", scheme.name()),
                    (1, _) => format!("{} seed {seed}", scheme.name()),
                    _ => format!("{} load {load} seed {seed}", scheme.name()),
                };
                Cell {
                    label,
                    exp: Experiment::new(topo, scheme.clone(), Vec::new()),
                    workload: WorkloadSpec::new(dist.clone(), load, topo.edge_rate(), flows, seed),
                }
            })
        })
    })
}

/// The `Send` extract of one point's [`Outcome`]: everything the figures
/// print, without the simulator itself.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The point's label, copied from the spec.
    pub label: String,
    /// The scheme that ran (for grouping grid results).
    pub scheme: Scheme,
    /// Per-flow FCTs of completed flows.
    pub fct: FctStats,
    /// Fraction of flows that completed.
    pub completion_ratio: f64,
    /// Aggregate switch counters (drops, marks, trims).
    pub counters: PortCounters,
    /// Engine report.
    pub report: RunReport,
    /// Telemetry summary, when the point's experiment enabled telemetry.
    pub telemetry: Option<crate::harness::TelemetrySummary>,
}

impl PointResult {
    fn extract(label: String, scheme: Scheme, outcome: Outcome) -> Self {
        let Outcome { fct, completion_ratio, counters, report, telemetry, .. } = outcome;
        PointResult { label, scheme, fct, completion_ratio, counters, report, telemetry }
    }
}

/// A declarative sweep: an ordered list of points and a worker count.
#[derive(Clone, Debug, Default)]
pub struct SweepSpec {
    /// The grid cells, in result order.
    pub points: Vec<SweepPoint>,
    /// Worker threads (`0`/`1` = serial).
    pub jobs: usize,
}

impl SweepSpec {
    /// An empty serial sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Append one point.
    pub fn point(mut self, label: impl Into<String>, exp: Experiment) -> Self {
        self.points.push(SweepPoint { label: label.into(), exp });
        self
    }

    /// Append the [`grid_cells`] grid, every cell expanded now, each (load,
    /// seed) workload drawn once and cloned for every later scheme.
    pub fn grid(
        mut self,
        topo: TopoKind,
        schemes: &[Scheme],
        dist: &SizeDistribution,
        loads: &[f64],
        flows: usize,
        seeds: &[u64],
    ) -> Self {
        // Scheme-major order: cell `i` draws what cell `i % block` of the
        // first scheme's block drew.
        let (first, block) = (self.points.len(), loads.len() * seeds.len());
        for (i, cell) in grid_cells(topo, schemes, dist, loads, flows, seeds).enumerate() {
            let point = if i < block {
                cell.expand()
            } else {
                let Cell { label, mut exp, .. } = cell;
                exp.flows = self.points[first + i % block].exp.flows.clone();
                SweepPoint { label, exp }
            };
            self.points.push(point);
        }
        self
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Run every point and return results in point order. Each point is
    /// handed to its worker by value, so its flow list is dropped when it
    /// has run, not when the last point finishes.
    pub fn run(self) -> Vec<PointResult> {
        let mut out = Vec::with_capacity(self.points.len());
        run_stream(self.points, self.jobs, SweepPoint::run, |r| out.push(r));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_points_orders_by_index_not_completion() {
        // Heavier work at low indices so later indices finish first.
        let out = run_points(8, 4, |i| {
            let mut acc = 0u64;
            for k in 0..((8 - i as u64) * 100_000) {
                acc = acc.wrapping_add(k);
            }
            (i, acc.min(1))
        });
        let idx: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_used_for_jobs_1() {
        assert_eq!(run_points(3, 1, |i| i * i), vec![0, 1, 4]);
        assert_eq!(run_points(0, 4, |i| i), Vec::<usize>::new());
    }

    /// The runner takes an item only when a worker is free and drops it
    /// when its point has run: an iterator that counts the items it has
    /// handed out and not yet seen dropped sees exactly `jobs` at its peak
    /// (the first `jobs` points wait until that many have been out at once,
    /// for at most ten seconds, so a runner with fewer workers fails rather
    /// than hangs).
    #[test]
    fn the_runner_holds_at_most_jobs_items_at_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        struct Live<'a>(usize, &'a AtomicUsize);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for jobs in [1, 3] {
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let items = (0..12).map(|i| {
                peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                Live(i, &live)
            });
            let work = |item: Live| {
                let deadline = Instant::now() + Duration::from_secs(10);
                while item.0 < jobs
                    && peak.load(Ordering::SeqCst) < jobs
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                item.0
            };
            let mut out = Vec::new();
            run_stream(items, jobs, work, |i| out.push(i));
            assert_eq!(out, (0..12).collect::<Vec<_>>(), "jobs {jobs}");
            assert_eq!(peak.load(Ordering::SeqCst), jobs, "jobs {jobs}: items out at once");
            assert_eq!(live.load(Ordering::SeqCst), 0, "jobs {jobs}: an item was never dropped");
        }
    }

    /// Point 0 finishes last, after every later point has: the results
    /// still reach the caller in point order.
    #[test]
    fn results_come_back_in_point_order_when_a_late_point_finishes_first() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let finished = AtomicUsize::new(0);
        let mut out = Vec::new();
        let work = |i: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while i == 0 && finished.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            (i, finished.fetch_add(1, Ordering::SeqCst))
        };
        run_stream(0..4, 2, work, |r| out.push(r));
        let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(out[0].1, 3, "point 0 was meant to finish last: {out:?}");
    }

    #[test]
    fn grid_is_row_major_and_labelled() {
        let spec = SweepSpec::new().grid(
            TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 5 },
            &[Scheme::Dctcp, Scheme::Ppt],
            &SizeDistribution::web_search(),
            &[0.3, 0.6],
            10,
            &[1],
        );
        assert_eq!(spec.len(), 4);
        let labels: Vec<&str> = spec.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["DCTCP load 0.3", "DCTCP load 0.6", "PPT load 0.3", "PPT load 0.6"]);
    }

    /// The eager grid clones each (load, seed) workload of the first
    /// scheme's block for the later schemes, and behind a point already in
    /// the spec its points are the lazy grid's, cell for cell.
    #[test]
    fn grid_draws_each_load_and_seed_once() {
        let topo = TopoKind::PaperTestbed;
        let schemes = [Scheme::Dctcp, Scheme::Ppt, Scheme::Homa];
        let (dist, loads, seeds) = (SizeDistribution::memcached_w1(), [0.3, 0.6], [1, 2, 3]);
        let ahead = WorkloadSpec::new(dist.clone(), 0.5, topo.edge_rate(), 12, 99);
        let ahead = Experiment::new(topo, Scheme::Dctcp, all_to_all(topo.hosts(), &ahead));
        let spec = SweepSpec::new().point("ahead", ahead);
        let spec = spec.grid(topo, &schemes, &dist, &loads, 20, &seeds);
        let want: Vec<SweepPoint> =
            grid_cells(topo, &schemes, &dist, &loads, 20, &seeds).map(Cell::expand).collect();
        let flows = |p: &SweepPoint| format!("{:?}", p.exp.flows);
        assert_eq!(spec.len(), 1 + 18);
        for (i, (got, want)) in spec.points[1..].iter().zip(&want).enumerate() {
            assert_eq!(got.label, want.label, "point {i}");
            assert_eq!(got.exp.scheme, want.exp.scheme, "point {i}");
            assert_eq!(flows(got), flows(want), "point {i}");
        }
        // The point ahead and each (load, seed) have flows of their own, so
        // a clone from the wrong point cannot pass for the right one.
        let distinct: std::collections::BTreeSet<String> =
            spec.points[..1].iter().chain(&want[..6]).map(flows).collect();
        assert_eq!(distinct.len(), 7);
    }
}
