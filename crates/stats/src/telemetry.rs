//! Analysis pass over the engine's telemetry series (DESIGN.md §14):
//! per-series amplitude and dominant-oscillation detection — the seed of
//! the stability lab.
//!
//! Dual-loop / ECN transports can hide limit cycles behind healthy
//! *average* numbers (see "Nonlinear Instabilities in D2TCP-II" and
//! "Disentangling Flaws in Linux DCTCP", PAPERS.md): a queue that swings
//! between empty and the ECN threshold every few RTTs has a fine mean and
//! a terrible tail. Because the sampler is deterministic, the series here
//! are exactly reproducible, so oscillation verdicts are too — the same
//! run always yields the same flags.
//!
//! Detection is two-stage. The primary detector is lag autocorrelation on
//! the mean-removed series: find the first negative-correlation lag (the
//! half-cycle), then the strongest positive peak past it (the full
//! cycle). A peak at lag `L` with normalized correlation ≥
//! [`OSC_THRESHOLD`] flags the series as oscillating with period
//! `L × dt`. Only lags up to `min(n / MIN_REPEATS, MAX_LAG)` are examined:
//! a control-loop limit cycle repeats every few RTTs, dozens of times per
//! window, whereas a shape seen twice in the window is as likely a pair
//! of flow arrivals — and the bound makes the pass O(points × lags)
//! (DESIGN.md §14.4). When autocorrelation finds no confident peak, a
//! zero-crossing count still produces a period *estimate* (twice the mean
//! half-cycle length) without setting the flag.

use netsim::trace::Series;

/// Minimum points before analysis attempts period detection.
pub const MIN_POINTS: usize = 8;

/// Normalized autocorrelation a candidate period must reach for the
/// series to be flagged oscillating.
pub const OSC_THRESHOLD: f64 = 0.2;

/// A period counts only if it fits into the analyzed window at least this
/// many times: two repetitions are a coincidence, four are a cycle.
pub const MIN_REPEATS: usize = 4;

/// Longest period examined, in samples. Whoever looks for a slower cycle
/// samples coarser (`--telemetry <interval>`), which also lengthens the
/// window the ring covers.
pub const MAX_LAG: usize = 256;

/// Summary statistics and oscillation verdict for one telemetry series.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesAnalysis {
    /// Series name (e.g. `"sw0.port1.queue_bytes"`).
    pub name: String,
    /// Points analyzed.
    pub points: usize,
    /// Older points the ring dropped before the analysis: when non-zero,
    /// every number here describes the last `points` samples only.
    pub evicted: u64,
    /// Arithmetic mean of the values.
    pub mean: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// `max - min`: the swing a mean hides.
    pub peak_to_peak: f64,
    /// Dominant oscillation period in nanoseconds — from the
    /// autocorrelation peak when confident, else the zero-crossing
    /// estimate, else `None` (flat or aperiodic).
    pub period_ns: Option<u64>,
    /// Normalized autocorrelation at the chosen period (0 when the
    /// period came from the zero-crossing fallback or is absent).
    pub period_strength: f64,
    /// True when the autocorrelation peak cleared [`OSC_THRESHOLD`].
    pub oscillating: bool,
}

/// Analyze one sampled series. Total-ordering note: the input is produced
/// by the deterministic sampler, and every operation here is
/// IEEE-754-exact over it in a fixed order, so equal runs give equal
/// analyses.
pub fn analyze_series(series: &Series) -> SeriesAnalysis {
    let mut values: Vec<f64> = series.points().map(|p| p.value).collect();
    let n = values.len();
    let mut out = SeriesAnalysis {
        name: series.name().to_string(),
        points: n,
        evicted: series.evicted(),
        mean: 0.0,
        min: 0.0,
        max: 0.0,
        peak_to_peak: 0.0,
        period_ns: None,
        period_strength: 0.0,
        oscillating: false,
    };
    let (Some(first), Some(last)) = (series.points().next(), series.last()) else {
        return out;
    };
    let sum: f64 = values.iter().sum();
    out.mean = sum / n as f64;
    out.min = values.iter().copied().fold(f64::INFINITY, f64::min);
    out.max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    out.peak_to_peak = out.max - out.min;
    if n < MIN_POINTS || out.peak_to_peak <= 0.0 {
        return out;
    }
    // Mean sample spacing; the sampler is uniform, so this is exact up to
    // integer division.
    let span = last.at.saturating_sub(first.at);
    if span == 0 {
        return out;
    }
    let dt = span / (n as u64 - 1);
    for v in &mut values {
        *v -= out.mean;
    }
    let centered = values;
    if let Some((lag, strength)) = autocorr_peak(&centered) {
        out.period_ns = Some(lag as u64 * dt);
        out.period_strength = strength;
        out.oscillating = strength >= OSC_THRESHOLD;
    } else if let Some(period) = zero_crossing_period(&centered, dt) {
        out.period_ns = Some(period);
    }
    out
}

/// Analyze every series of a run, in table order.
pub fn analyze_all(series: &[Series]) -> Vec<SeriesAnalysis> {
    series.iter().map(analyze_series).collect()
}

/// Find the dominant positive autocorrelation peak past the first
/// negative-correlation lag, over the lags a period may have: at most
/// [`MAX_LAG`] samples, fitting the window [`MIN_REPEATS`] times. Returns
/// `(lag, normalized_correlation)`.
fn autocorr_peak(centered: &[f64]) -> Option<(usize, f64)> {
    let max_lag = (centered.len() / MIN_REPEATS).min(MAX_LAG);
    let r = autocorrelation(centered, max_lag);
    let energy = r[0];
    if energy <= 0.0 {
        return None;
    }
    // The half-cycle: the first lag anti-correlated with lag zero.
    let first_neg = (1..=max_lag).find(|&lag| r[lag] < 0.0)?;
    // The full cycle: the strongest positive lag past it, the earliest on a tie.
    let (lag, peak) = r.iter().enumerate().skip(first_neg + 1).fold((0, 0.0), |best, (lag, &v)| {
        if v > best.1 {
            (lag, v)
        } else {
            best
        }
    });
    (peak > 0.0).then_some((lag, peak / energy))
}

/// Independent partial sums a product is accumulated in.
const LANES: usize = 8;

/// Samples per block of [`autocorrelation`]: 8 KB, so a block and the
/// [`MAX_LAG`] samples past it stay in the L1 cache while every lag is
/// taken over it, whatever the length of the series.
const BLOCK: usize = 1024;

/// `r[lag] = Σ x[i]·x[i+lag]` for `lag` in `0..=max_lag` (`r[0]` is the
/// energy), block by block. Every element pair goes to a fixed block and,
/// inside [`dot`], to a fixed lane, and blocks and lanes are folded first to
/// last: each sum is a pure function of the input — rounded differently
/// from a sequential sum, identically on every call and every machine.
fn autocorrelation(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    let mut r = vec![0.0; max_lag + 1];
    for start in (0..n).step_by(BLOCK) {
        for (lag, sum) in r.iter_mut().enumerate() {
            // Pairs `(i, i + lag)` with `i` in this block.
            let end = (start + BLOCK).min(n - lag);
            if start < end {
                *sum += dot(&x[start..end], &x[start + lag..end + lag]);
            }
        }
    }
    r
}

/// `Σ a[i]·b[i]` in [`LANES`] partial sums. A single `f64` accumulator is
/// one dependency chain the compiler may not reorder, so it runs at one
/// add per four cycles; eight chains fill the vector units.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut a = a.chunks_exact(LANES);
    let mut b = b.chunks_exact(LANES);
    for (pa, pb) in a.by_ref().zip(b.by_ref()) {
        for k in 0..LANES {
            acc[k] += pa[k] * pb[k];
        }
    }
    let rest: f64 = a.remainder().iter().zip(b.remainder()).map(|(p, q)| p * q).sum();
    acc.iter().sum::<f64>() + rest
}

/// Period estimate from mean-crossing count: `crossings / 2` full cycles
/// over the observed span. Needs at least two full cycles to say anything.
fn zero_crossing_period(centered: &[f64], dt: u64) -> Option<u64> {
    let mut crossings = 0u64;
    let mut prev_sign = 0i8;
    for &x in centered {
        let sign = if x > 0.0 {
            1
        } else if x < 0.0 {
            -1
        } else {
            0
        };
        if sign != 0 {
            if prev_sign != 0 && sign != prev_sign {
                crossings += 1;
            }
            prev_sign = sign;
        }
    }
    if crossings < 4 {
        return None;
    }
    let span = dt * (centered.len() as u64 - 1);
    Some(2 * span / crossings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_of(values: &[f64], dt: u64) -> Series {
        let mut s = Series::new("test", values.len().max(1));
        for (i, v) in values.iter().enumerate() {
            s.push(i as u64 * dt, *v);
        }
        s
    }

    /// The scan `autocorr_peak` replaced: every lag up to half the window,
    /// one sequential accumulator. Kept as the reference the bounded,
    /// lane-accumulated scan is compared against.
    fn full_scan_peak(centered: &[f64], energy: f64) -> Option<(usize, f64)> {
        let n = centered.len();
        let max_lag = n / 2;
        let r = |lag: usize| -> f64 {
            let mut acc = 0.0;
            for i in 0..n - lag {
                acc += centered[i] * centered[i + lag];
            }
            acc / energy
        };
        let first_neg = (1..max_lag).find(|&lag| r(lag) < 0.0)?;
        let mut best: Option<(usize, f64)> = None;
        for lag in first_neg + 1..max_lag {
            let v = r(lag);
            if best.is_none_or(|(_, b)| v > b) {
                best = Some((lag, v));
            }
        }
        best.filter(|&(_, strength)| strength > 0.0)
    }

    fn centered(values: &[f64]) -> (Vec<f64>, f64) {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let c: Vec<f64> = values.iter().map(|v| v - mean).collect();
        let energy = c.iter().map(|x| x * x).sum();
        (c, energy)
    }

    fn sine(n: usize, period: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * std::f64::consts::TAU / period).sin()).collect()
    }

    /// A sawtooth of `period` samples with a deterministic wobble on top.
    fn noisy_sawtooth(n: usize, period: usize) -> Vec<f64> {
        let mut rng = netsim::Pcg32::seed_from_u64(7);
        (0..n).map(|i| (i % period) as f64 + rng.next_f64()).collect()
    }

    #[test]
    fn empty_series_yields_zeroes() {
        let a = analyze_series(&series_of(&[], 1000));
        assert_eq!(a.points, 0);
        assert_eq!(a.period_ns, None);
        assert!(!a.oscillating, "empty series cannot oscillate");
    }

    #[test]
    fn flat_series_is_not_oscillating() {
        let a = analyze_series(&series_of(&[7.0; 64], 1000));
        assert_eq!(a.mean, 7.0);
        assert_eq!(a.peak_to_peak, 0.0);
        assert_eq!(a.period_ns, None);
        assert!(!a.oscillating, "constant series must not be flagged");
    }

    #[test]
    fn square_wave_period_detected() {
        // Period-8 square wave, 8 cycles: +1 +1 +1 +1 -1 -1 -1 -1 ...
        let mut v = Vec::new();
        for i in 0..64 {
            v.push(if (i / 4) % 2 == 0 { 1.0 } else { -1.0 });
        }
        let a = analyze_series(&series_of(&v, 1000));
        assert!(a.oscillating, "square wave must be flagged oscillating");
        let period = a.period_ns.expect("square wave has a period");
        assert_eq!(period, 8000, "period-8 wave at dt=1000ns");
        assert!(a.period_strength >= OSC_THRESHOLD);
        assert_eq!(a.peak_to_peak, 2.0);
    }

    #[test]
    fn periods_inside_the_bound_are_flagged_at_ring_size() {
        // The default ring: 4 096 points at 10 us.
        let square: Vec<f64> =
            (0..4096).map(|i| if (i / 25) % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let a = analyze_series(&series_of(&square, 10_000));
        assert!(a.oscillating, "a 50-sample square wave must be flagged");
        assert_eq!(a.period_ns, Some(50 * 10_000));

        let a = analyze_series(&series_of(&sine(4096, 200.0), 10_000));
        assert!(a.oscillating, "a 200-sample sine is under MAX_LAG and must be flagged");
        assert_eq!(a.period_ns, Some(200 * 10_000));
        assert!(a.period_strength > 0.9, "strength {}", a.period_strength);
    }

    #[test]
    fn shapes_that_do_not_repeat_four_times_are_not_flagged() {
        let n = 4096;
        let step: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        let ramp: Vec<f64> = (0..n).map(|i| i as f64).collect();
        // The DCTCP false positive of the full-lag scan: a 16 ms shape in a
        // 41 ms window, flow arrivals seen two and a half times.
        let arrivals = sine(n, 1600.0);
        // Under the lag cap but not four times in a short window.
        let thrice = sine(90, 30.0);
        for (what, values) in
            [("step", step), ("ramp", ramp), ("16 ms in 41 ms", arrivals), ("3 cycles", thrice)]
        {
            let a = analyze_series(&series_of(&values, 10_000));
            assert!(!a.oscillating, "{what}: flagged with period {:?}", a.period_ns);
            assert_eq!(a.period_strength, 0.0, "{what}: no autocorrelation peak may be reported");
        }
        // The scan this replaced did flag the arrivals shape.
        let (c, energy) = centered(&sine(n, 1600.0));
        let (lag, strength) = full_scan_peak(&c, energy).expect("the full scan sees the repeat");
        assert!((1590..=1610).contains(&lag) && strength >= OSC_THRESHOLD, "{lag} {strength}");
    }

    #[test]
    fn bounded_scan_agrees_with_the_full_scan_under_the_bound() {
        for (what, values, lag) in [
            ("square/8", (0..64).map(|i| ((i / 4) % 2) as f64).collect::<Vec<_>>(), 8),
            ("sine/200", sine(4096, 200.0), 200),
            ("sine/37", sine(1000, 37.0), 37),
            ("sawtooth/60", noisy_sawtooth(4096, 60), 60),
            ("sawtooth/256", noisy_sawtooth(4096, MAX_LAG), MAX_LAG),
        ] {
            let (c, energy) = centered(&values);
            let bounded = autocorr_peak(&c).expect(what);
            let full = full_scan_peak(&c, energy).expect(what);
            assert_eq!(bounded.0, lag, "{what}: bounded scan's lag");
            assert_eq!(full.0, lag, "{what}: full scan's lag");
            assert!((bounded.1 - full.1).abs() < 1e-9, "{what}: {} vs {}", bounded.1, full.1);
        }
    }

    #[test]
    fn lane_accumulated_sum_is_a_pure_function_of_its_input() {
        // Not a multiple of the block or the lane count: every tail runs.
        let (c, _) = centered(&noisy_sawtooth(4099, 60));
        let (a, b) = (autocorrelation(&c, MAX_LAG), autocorrelation(&c, MAX_LAG));
        assert_eq!(a.len(), MAX_LAG + 1);
        for lag in 0..=MAX_LAG {
            assert_eq!(a[lag].to_bits(), b[lag].to_bits(), "lag {lag}: two calls, two sums");
            let sequential: f64 = c.iter().zip(&c[lag..]).map(|(p, q)| p * q).sum();
            assert!((a[lag] - sequential).abs() <= 1e-9 * sequential.abs().max(1.0), "lag {lag}");
        }
    }

    #[test]
    fn evicted_points_are_reported() {
        let mut s = Series::new("ring", 16);
        for i in 0..20u64 {
            s.push(i * 1_000, (i % 4) as f64);
        }
        let a = analyze_series(&s);
        assert_eq!((a.points, a.evicted), (16, 4));
        assert_eq!(analyze_series(&series_of(&[1.0, 2.0], 1_000)).evicted, 0);
    }

    #[test]
    fn ramp_is_not_flagged() {
        let v: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let a = analyze_series(&series_of(&v, 1000));
        assert!(!a.oscillating, "a monotone ramp is not an oscillation");
    }

    #[test]
    fn short_series_skips_detection() {
        let a = analyze_series(&series_of(&[0.0, 1.0, 0.0, 1.0], 1000));
        assert_eq!(a.period_ns, None, "below MIN_POINTS no period is attempted");
        assert!(!a.oscillating);
        assert_eq!(a.peak_to_peak, 1.0);
    }

    #[test]
    fn analysis_is_deterministic() {
        let mut v = Vec::new();
        for i in 0..100 {
            v.push((i % 10) as f64);
        }
        let a = analyze_series(&series_of(&v, 500));
        let b = analyze_series(&series_of(&v, 500));
        assert_eq!(a, b, "same series must give the identical analysis");
    }
}
