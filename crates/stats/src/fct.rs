//! Flow-completion-time aggregation.

use netsim::{SimDuration, SimTime, Simulator};

/// The paper's small/large split: flows of (0, 100 KB] are "small",
/// (100 KB, ∞) are "large" (§6.1.1).
pub const SMALL_FLOW_MAX_BYTES: u64 = 100_000;

/// One completed flow.
#[derive(Clone, Copy, Debug)]
pub struct FctRecord {
    /// Flow size, bytes.
    pub size_bytes: u64,
    /// Completion time minus start time.
    pub fct: SimDuration,
}

impl FctRecord {
    /// True for flows the paper bins as "small" (≤ 100 KB).
    pub fn is_small(&self) -> bool {
        self.size_bytes <= SMALL_FLOW_MAX_BYTES
    }
}

/// A collection of FCT records with the paper's standard summaries.
#[derive(Clone, Debug, Default)]
pub struct FctStats {
    records: Vec<FctRecord>,
}

/// The four numbers every FCT figure in the paper reports.
#[derive(Clone, Copy, Debug)]
pub struct FctSummary {
    /// Mean FCT over all flows, microseconds.
    pub overall_avg_us: f64,
    /// Mean FCT of (0, 100 KB] flows, microseconds.
    pub small_avg_us: f64,
    /// 99th-percentile FCT of small flows, microseconds.
    pub small_p99_us: f64,
    /// Mean FCT of (100 KB, ∞) flows, microseconds.
    pub large_avg_us: f64,
    /// Completed flow counts: (all, small, large).
    pub counts: (usize, usize, usize),
}

impl FctStats {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed flow.
    pub fn push(&mut self, size_bytes: u64, start: SimTime, end: SimTime) {
        debug_assert!(end >= start);
        self.records.push(FctRecord { size_bytes, fct: end - start });
    }

    /// Harvest every completed flow from a finished simulation.
    pub fn from_sim<P: netsim::Payload>(sim: &Simulator<P>) -> Self {
        let mut stats = Self::new();
        for (flow, done) in sim.completions() {
            stats.push(flow.size_bytes, flow.start, done);
        }
        stats
    }

    /// Fraction of registered flows that completed (sanity check: a scheme
    /// that starves flows shows up here, not as a rosy average).
    pub fn completion_ratio<P: netsim::Payload>(sim: &Simulator<P>) -> f64 {
        let total = sim.flows().len();
        if total == 0 {
            return 1.0;
        }
        sim.completions().count() as f64 / total as f64
    }

    /// All records.
    pub fn records(&self) -> &[FctRecord] {
        &self.records
    }

    /// Number of completed flows recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean FCT in microseconds over records matching `pred`.
    pub fn avg_us_where<F: Fn(&FctRecord) -> bool>(&self, pred: F) -> f64 {
        let (sum, n) = self
            .records
            .iter()
            .filter(|r| pred(r))
            .fold((0.0, 0usize), |(s, n), r| (s + r.fct.as_micros_f64(), n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    /// `q`-quantile (0..=1) FCT in microseconds over records matching
    /// `pred`, using the nearest-rank method on the sorted sample.
    pub fn quantile_us_where<F: Fn(&FctRecord) -> bool>(&self, q: f64, pred: F) -> f64 {
        let mut v: Vec<f64> =
            self.records.iter().filter(|r| pred(r)).map(|r| r.fct.as_micros_f64()).collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Mean FCT over all flows, microseconds.
    pub fn overall_avg_us(&self) -> f64 {
        self.avg_us_where(|_| true)
    }

    /// Mean FCT of small flows, microseconds.
    pub fn small_avg_us(&self) -> f64 {
        self.avg_us_where(FctRecord::is_small)
    }

    /// 99th-percentile FCT of small flows, microseconds.
    pub fn small_p99_us(&self) -> f64 {
        self.quantile_us_where(0.99, FctRecord::is_small)
    }

    /// Mean FCT of large flows, microseconds.
    pub fn large_avg_us(&self) -> f64 {
        self.avg_us_where(|r| !r.is_small())
    }

    /// The standard four-number summary.
    pub fn summary(&self) -> FctSummary {
        let small = self.records.iter().filter(|r| r.is_small()).count();
        FctSummary {
            overall_avg_us: self.overall_avg_us(),
            small_avg_us: self.small_avg_us(),
            small_p99_us: self.small_p99_us(),
            large_avg_us: self.large_avg_us(),
            counts: (self.records.len(), small, self.records.len() - small),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: u64, us: u64) -> (u64, SimTime, SimTime) {
        (size, SimTime::ZERO, SimTime(us * 1_000))
    }

    fn build(entries: &[(u64, SimTime, SimTime)]) -> FctStats {
        let mut s = FctStats::new();
        for &(size, a, b) in entries {
            s.push(size, a, b);
        }
        s
    }

    #[test]
    fn averages_split_by_size_bin() {
        let s = build(&[rec(1_000, 10), rec(50_000, 30), rec(1_000_000, 500)]);
        assert_eq!(s.overall_avg_us(), (10.0 + 30.0 + 500.0) / 3.0);
        assert_eq!(s.small_avg_us(), 20.0);
        assert_eq!(s.large_avg_us(), 500.0);
        let sum = s.summary();
        assert_eq!(sum.counts, (3, 2, 1));
    }

    #[test]
    fn boundary_flow_is_small() {
        let s = build(&[rec(SMALL_FLOW_MAX_BYTES, 10), rec(SMALL_FLOW_MAX_BYTES + 1, 90)]);
        assert_eq!(s.small_avg_us(), 10.0);
        assert_eq!(s.large_avg_us(), 90.0);
    }

    #[test]
    fn p99_nearest_rank() {
        // 100 samples 1..=100us: p99 = 99th value = 99us.
        let entries: Vec<_> = (1..=100).map(|i| rec(1000, i)).collect();
        let s = build(&entries);
        assert_eq!(s.small_p99_us(), 99.0);
        // p50 = 50th value.
        assert_eq!(s.quantile_us_where(0.5, |_| true), 50.0);
        // p100 = max.
        assert_eq!(s.quantile_us_where(1.0, |_| true), 100.0);
    }

    #[test]
    fn empty_bins_are_nan_not_panic() {
        let s = build(&[rec(1_000, 10)]);
        assert!(s.large_avg_us().is_nan());
        assert!(!s.small_avg_us().is_nan());
        let empty = FctStats::new();
        assert!(empty.overall_avg_us().is_nan());
        assert!(empty.small_p99_us().is_nan());
    }

    #[test]
    fn single_sample_quantiles() {
        let s = build(&[rec(1_000, 42)]);
        assert_eq!(s.small_p99_us(), 42.0);
        assert_eq!(s.quantile_us_where(0.0, |_| true), 42.0);
    }
}
