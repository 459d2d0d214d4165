//! Continuous-telemetry primitives: ring-buffered time [`Series`] and
//! dependency-free log-bucket [`LogHistogram`]s.
//!
//! Both types are plain deterministic containers: feeding them the same
//! values in the same order produces byte-identical JSON, so they can sit
//! behind the engine's telemetry sampler without weakening the
//! byte-identity contract (DESIGN.md §14). Neither allocates after
//! construction — a `Series` ring is bounded by its capacity and a
//! histogram's bucket array is fixed at ~15 KB.

use std::collections::VecDeque;

use crate::json::push_f64;

/// One point of a [`Series`]: a simulated-time stamp and a value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Simulated time of the observation, nanoseconds.
    pub at: u64,
    /// Observed value (counters and byte totals are widened to `f64`).
    pub value: f64,
}

/// A bounded time series: pushes beyond the capacity evict the oldest
/// point, so long runs keep the most recent window at a fixed memory
/// cost. The eviction count is retained for reporting.
#[derive(Clone, Debug)]
pub struct Series {
    name: String,
    cap: usize,
    evicted: u64,
    points: VecDeque<SeriesPoint>,
}

impl Series {
    /// A new empty series holding at most `cap` points.
    pub fn new(name: impl Into<String>, cap: usize) -> Self {
        assert!(cap > 0, "series capacity must be positive");
        Series { name: name.into(), cap, evicted: 0, points: VecDeque::with_capacity(cap) }
    }

    /// Append a point, evicting the oldest when the ring is full.
    pub fn push(&mut self, at: u64, value: f64) {
        if self.points.len() == self.cap {
            self.points.pop_front();
            self.evicted += 1;
        }
        self.points.push_back(SeriesPoint { at, value });
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Points currently retained.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<&SeriesPoint> {
        self.points.back()
    }

    /// JSON encoding: `{"name":…,"evicted":N,"points":[[at,value],…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":\"");
        crate::json::push_escaped(&mut out, &self.name);
        out.push_str("\",\"evicted\":");
        out.push_str(&self.evicted.to_string());
        out.push_str(",\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&p.at.to_string());
            out.push(',');
            push_f64(&mut out, p.value);
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Sub-bucket resolution of [`LogHistogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantization error at `2^-SUB_BITS` (≈3.1%).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Index space: values below `SUB` get exact unit buckets; above that,
/// `(top_bit - SUB_BITS)` shifted octaves of `SUB` sub-buckets each.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Bucket index for a value (total order preserved across buckets).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let top = 63 - v.leading_zeros() as u64;
    let shift = top - SUB_BITS as u64;
    (((shift + 1) * SUB) + ((v >> shift) - SUB)) as usize
}

/// Lower bound of a bucket (the value [`LogHistogram::percentile`] reports).
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let shift = idx / SUB - 1;
        (SUB + idx % SUB) << shift
    }
}

/// An HDR-style log-bucket histogram over `u64` values: fixed-size bucket
/// array (no allocation per record), exact min/max/sum, and percentile
/// queries with a bounded ≈3.1% relative error from bucket quantization.
/// Merging two histograms is exact bucket-wise addition, so per-shard
/// histograms can be combined without re-recording.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A new empty histogram.
    pub fn new() -> Self {
        LogHistogram { counts: vec![0; BUCKETS], total: 0, min: u64::MAX, max: 0, sum: 0 }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Nearest-rank percentile (`q` in 0..=100): the lower bound of the
    /// bucket holding the rank, clamped into the exact `[min, max]` range
    /// so `percentile(0.0)` and `percentile(100.0)` are exact.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        // Boundary ranks are known exactly: the smallest recorded value
        // holds rank 1 and the largest holds rank `total`.
        if rank == 1 {
            return self.min;
        }
        if rank == self.total {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// JSON summary: count, exact min/max/mean and the standard
    /// percentile ladder (p50/p90/p99/p999).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"count\":");
        out.push_str(&self.total.to_string());
        out.push_str(",\"min\":");
        out.push_str(&self.min().to_string());
        out.push_str(",\"max\":");
        out.push_str(&self.max.to_string());
        out.push_str(",\"mean\":");
        push_f64(&mut out, self.mean());
        for (tag, q) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)] {
            out.push_str(",\"");
            out.push_str(tag);
            out.push_str("\":");
            out.push_str(&self.percentile(q).to_string());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_ring_evicts_oldest() {
        let mut s = Series::new("q", 3);
        for i in 0..5u64 {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let ats: Vec<u64> = s.points().map(|p| p.at).collect();
        assert_eq!(ats, [20, 30, 40]);
        assert_eq!(s.last().unwrap().value, 4.0);
    }

    #[test]
    fn series_json_is_stable() {
        let mut s = Series::new("link0.util", 8);
        s.push(1000, 0.5);
        s.push(2000, 1.0);
        assert_eq!(
            s.to_json(),
            r#"{"name":"link0.util","evicted":0,"points":[[1000,0.5],[2000,1]]}"#
        );
    }

    #[test]
    fn histogram_buckets_are_exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(bucket_floor(bucket_index(v)), v, "v={v}");
        }
    }

    #[test]
    fn histogram_bucket_floor_is_a_lower_bound_within_3pct() {
        for v in [32u64, 33, 100, 1000, 12_345, 1 << 20, u64::MAX / 3, u64::MAX] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v, "floor {floor} above v={v}");
            let err = (v - floor) as f64 / v as f64;
            assert!(err < 1.0 / SUB as f64 + 1e-12, "err {err} too large for v={v}");
        }
    }

    #[test]
    fn histogram_bucket_index_is_monotone() {
        let mut prev = 0usize;
        for k in 0..63u32 {
            for v in [(1u64 << k), (1u64 << k) + 1, (1u64 << k).wrapping_sub(1).max(1)] {
                let idx = bucket_index(v);
                assert!(idx < BUCKETS, "idx {idx} out of range for v={v}");
                let _ = prev;
                prev = idx;
            }
        }
        // Strict check on a sorted sweep.
        let mut last = bucket_index(0);
        for v in (0..20_000u64).step_by(7) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at v={v}");
            last = idx;
        }
    }

    #[test]
    fn histogram_percentiles_track_sorted_data() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9, "mean {}", h.mean());
        let p50 = h.percentile(50.0);
        assert!((469..=500).contains(&p50), "p50 {p50} outside quantization window");
        let p99 = h.percentile(99.0);
        assert!((960..=990).contains(&p99), "p99 {p99} outside quantization window");
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 1000);
    }

    #[test]
    fn histogram_json_is_stable_and_deterministic() {
        let build = || {
            let mut h = LogHistogram::new();
            for v in [10u64, 100, 1000, 10_000] {
                h.record(v);
            }
            h.to_json()
        };
        let j = build();
        assert_eq!(j, build());
        assert!(j.starts_with(r#"{"count":4,"min":10,"max":10000,"mean":2777.5"#), "{j}");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert!(h.is_empty(), "fresh histogram must be empty");
    }
}
