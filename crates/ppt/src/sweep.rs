//! The shared sweep layer: every figure of the paper is a grid of
//! (scheme, load, seed, …) points, and this module is the one place that
//! loop lives — a declarative [`SweepSpec`] executed by a zero-dependency
//! `std::thread` worker pool.
//!
//! ## Determinism
//!
//! Each point is a complete, independent [`run_experiment`] call: a fresh
//! `Simulator`, its own flow list (expanded once, when the spec is built —
//! [`SweepSpec::grid`] — and released as soon as the point has run, so a
//! sweep's memory does not hold every workload to the end), and (by
//! harness default) its own bounded flight recorder — workers share no
//! mutable state, so a point's bytes cannot depend on which worker ran it
//! or on how points interleave in wall-clock time. Results are keyed by
//! point *index*, not completion order, so `jobs = 1` and `jobs = N`
//! return byte-identical vectors (asserted by `tests/determinism.rs`). The
//! only observable difference under parallelism is stderr interleaving of
//! abnormal-run warnings.
//!
//! Two-pass schemes ([`Scheme::Hypothetical`]) work unchanged: the oracle
//! recording pass happens inside the worker's `run_experiment` call, so a
//! sweep may freely mix single-pass and two-pass points.

use dcn_stats::FctStats;
use netsim::{PortCounters, RunReport};
use workloads::{all_to_all, SizeDistribution, WorkloadSpec};

use crate::harness::{run_experiment, run_experiment_traced, Experiment, Scheme, TopoKind};
use crate::harness::{Outcome, TraceData};

/// Run `f(0..n)` on `jobs` worker threads and return the results in index
/// order. The primitive under [`SweepSpec::run`]; use it directly when a
/// figure needs a custom per-point extraction (samplers, traces, …).
///
/// `T` must be `Send` plain data — the full [`Outcome`] (which owns the
/// simulator) stays on the worker thread. `jobs <= 1` runs serially on
/// the caller's thread with no pool at all. A panic in any point
/// propagates to the caller once all workers have stopped.
pub fn run_points<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                // Work-stealing counter: each index is claimed exactly once.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                let mut slots = results.lock().unwrap_or_else(|e| e.into_inner());
                slots[i] = Some(out);
            });
        }
    });
    let slots = results.into_inner().unwrap_or_else(|e| e.into_inner());
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(v) => v,
            // Unreachable: every index below `n` is claimed by exactly one
            // worker, and the scope joins (or propagates a panic from)
            // every worker before we get here.
            None => unreachable!("sweep point not computed"),
        })
        .collect()
}

/// One cell of a sweep: a display label plus the experiment to run.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable tag carried into the result (e.g. `"PPT load 0.5"`).
    pub label: String,
    /// The fully-described experiment for this cell.
    pub exp: Experiment,
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
    fn extract(label: String, scheme: Scheme, outcome: &Outcome) -> Self {
        PointResult {
            label,
            scheme,
            fct: outcome.fct.clone(),
            completion_ratio: outcome.completion_ratio,
            counters: outcome.counters,
            report: outcome.report,
            telemetry: outcome.telemetry.clone(),
        }
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

    /// Append the scheme × load × seed grid of the paper's figures, in
    /// row-major order (scheme outermost, seed innermost): an all-to-all
    /// workload of `flows` flows drawn from `dist` on `topo`.
    pub fn grid(
        mut self,
        topo: TopoKind,
        schemes: &[Scheme],
        dist: &SizeDistribution,
        loads: &[f64],
        flows: usize,
        seeds: &[u64],
    ) -> Self {
        for scheme in schemes {
            for &load in loads {
                for &seed in seeds {
                    let spec = WorkloadSpec::new(dist.clone(), load, topo.edge_rate(), flows, seed);
                    let exp =
                        Experiment::new(topo, scheme.clone(), all_to_all(topo.hosts(), &spec));
                    let label = match (loads.len(), seeds.len()) {
                        (1, 1) => scheme.name(),
                        (_, 1) => format!("{} load {load}", scheme.name()),
                        (1, _) => format!("{} seed {seed}", scheme.name()),
                        _ => format!("{} load {load} seed {seed}", scheme.name()),
                    };
                    self.points.push(SweepPoint { label, exp });
                }
            }
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

    /// Run every point and return results in point order.
    pub fn run(self) -> Vec<PointResult> {
        self.run_each(|SweepPoint { label, exp }| {
            PointResult::extract(label, exp.scheme.clone(), &run_experiment(&exp))
        })
    }

    /// Run every point with full event capture (a per-point `MemorySink`
    /// instead of the default flight recorder); results in point order.
    pub fn run_traced(self) -> Vec<(PointResult, TraceData)> {
        self.run_each(|SweepPoint { label, exp }| {
            let (outcome, trace) = run_experiment_traced(&exp);
            (PointResult::extract(label, exp.scheme.clone(), &outcome), trace)
        })
    }

    /// [`run_points`] over the spec, handing each point to `f` by value:
    /// the point — its expanded flow list above all — is dropped when `f`
    /// returns, not when the last point finishes.
    fn run_each<T: Send>(self, f: impl Fn(SweepPoint) -> T + Sync) -> Vec<T> {
        use std::sync::Mutex;
        let SweepSpec { points, jobs } = self;
        let points: Vec<Mutex<Option<SweepPoint>>> =
            points.into_iter().map(|p| Mutex::new(Some(p))).collect();
        run_points(points.len(), jobs, |i| {
            let point = points[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            // `run_points` hands out every index exactly once.
            f(point.unwrap_or_else(|| unreachable!("sweep point {i} claimed twice")))
        })
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
}
