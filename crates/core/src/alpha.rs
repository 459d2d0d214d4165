//! The DCTCP congestion-level estimator α and its minimum tracker.
//!
//! DCTCP maintains, per flow, an EWMA of the fraction of ECN-marked
//! packets (Eq. 1 in the paper):
//!
//! ```text
//! α ← (1 − g)·α + g·F
//! ```
//!
//! PPT's intermittent loop initialization (§3.1, case 2) watches α and
//! opens an LCP loop whenever α reaches its minimum over the past RTTs —
//! a small α means the queue has drained below the marking threshold and
//! spare capacity is likely.

use std::collections::VecDeque;

/// Default EWMA gain g = 1/16 (the DCTCP paper's recommendation).
pub const DEFAULT_G: f64 = 1.0 / 16.0;

/// Default number of past per-RTT α observations the minimum is taken over.
pub const DEFAULT_MIN_WINDOW: usize = 16;

/// Per-flow α estimator.
///
/// ```
/// use ppt_core::AlphaEstimator;
/// let mut a = AlphaEstimator::default();
/// // One RTT where 30% of acked bytes carried CE echoes:
/// a.on_ack(100, 30);
/// let alpha = a.end_of_round();
/// assert!(alpha < 1.0 && alpha > 0.9); // EWMA moves slowly from 1.0
/// ```
#[derive(Clone, Debug)]
pub struct AlphaEstimator {
    g: f64,
    alpha: f64,
    acked: u64,
    marked: u64,
}

impl Default for AlphaEstimator {
    fn default() -> Self {
        Self::new(DEFAULT_G)
    }
}

impl AlphaEstimator {
    /// New estimator with gain `g` (0 < g ≤ 1). α starts at 1.0 so a brand
    /// new flow backs off conservatively on its very first mark, matching
    /// the Linux dctcp module's `dctcp_alpha_on_init`.
    pub fn new(g: f64) -> Self {
        assert!(g > 0.0 && g <= 1.0, "g must be in (0, 1]");
        AlphaEstimator { g, alpha: 1.0, acked: 0, marked: 0 }
    }

    /// Record acked bytes (or packets — units only need to be consistent),
    /// with `marked` of them carrying an echoed CE mark.
    pub fn on_ack(&mut self, acked: u64, marked: u64) {
        debug_assert!(marked <= acked, "marked bytes {marked} exceed acked {acked}");
        self.acked += acked;
        self.marked += marked;
    }

    /// Close out one RTT: fold the observed mark fraction F into α and
    /// reset the per-RTT counters. Returns the new α.
    pub fn end_of_round(&mut self) -> f64 {
        let f = if self.acked == 0 { 0.0 } else { self.marked as f64 / self.acked as f64 };
        self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
        self.acked = 0;
        self.marked = 0;
        self.alpha
    }

    /// Current α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The window multiplier DCTCP applies on congestion: w ← w·(1 − α/2).
    pub fn cut_factor(&self) -> f64 {
        1.0 - self.alpha / 2.0
    }
}

/// Sliding-window minimum detector over per-RTT α values.
///
/// ```
/// use ppt_core::MinTracker;
/// let mut m = MinTracker::new(8);
/// assert!(m.push(0.4));   // first observation
/// assert!(!m.push(0.4));  // tie: steady state must not re-trigger
/// assert!(m.push(0.1));   // strict new minimum: open an LCP loop
/// ```
///
/// [`MinTracker::push`] returns `true` when the new value is the minimum of
/// the last `window` observations — PPT's trigger for opening an LCP loop
/// in the queue-buildup phase.
#[derive(Clone, Debug)]
pub struct MinTracker {
    window: usize,
    values: VecDeque<f64>,
}

/// Minima over the paper's [`DEFAULT_MIN_WINDOW`] rounds; nothing is
/// allocated until the first observation.
impl Default for MinTracker {
    fn default() -> Self {
        MinTracker { window: DEFAULT_MIN_WINDOW, values: VecDeque::new() }
    }
}

impl MinTracker {
    /// Track minima over the last `window` observations (≥ 1).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "MinTracker window must be at least 1");
        MinTracker { window, values: VecDeque::with_capacity(window + 1) }
    }

    /// Add an observation; report whether it is a *strict* new minimum of
    /// the window (the first observation counts).
    ///
    /// Strictness matters: in DCTCP's steady state α settles to a nearly
    /// constant value, and a tie-counting tracker would fire every RTT —
    /// turning PPT's *intermittent* loop initialization into a continuous
    /// burst generator that overflows switch buffers. A strict minimum
    /// fires only when congestion genuinely eased below everything seen
    /// in the recent past.
    pub fn push(&mut self, v: f64) -> bool {
        self.values.push_back(v);
        if self.values.len() > self.window {
            self.values.pop_front();
        }
        // Strictly below every *other* observation still in the window.
        let n = self.values.len();
        self.values.iter().take(n - 1).all(|&x| x > v)
    }

    /// Current minimum over the window (NaN when empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_decays_toward_zero_without_marks() {
        let mut a = AlphaEstimator::default();
        assert_eq!(a.alpha(), 1.0);
        for _ in 0..100 {
            a.on_ack(10, 0);
            a.end_of_round();
        }
        assert!(a.alpha() < 0.01, "alpha={}", a.alpha());
    }

    #[test]
    fn alpha_converges_to_mark_fraction() {
        let mut a = AlphaEstimator::default();
        for _ in 0..500 {
            a.on_ack(100, 30);
            a.end_of_round();
        }
        assert!((a.alpha() - 0.3).abs() < 1e-6, "alpha={}", a.alpha());
    }

    #[test]
    fn single_round_update_matches_equation() {
        let mut a = AlphaEstimator::new(1.0 / 16.0);
        a.on_ack(10, 10);
        // α = (1-g)*1 + g*1 = 1
        assert!((a.end_of_round() - 1.0).abs() < 1e-12);
        a.on_ack(10, 0);
        // α = (15/16)*1
        assert!((a.end_of_round() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn idle_round_counts_as_unmarked() {
        let mut a = AlphaEstimator::default();
        let before = a.alpha();
        let after = a.end_of_round();
        assert!(after < before);
    }

    #[test]
    fn cut_factor_bounds() {
        let mut a = AlphaEstimator::default();
        assert_eq!(a.cut_factor(), 0.5); // α=1 → halve, TCP-style
        for _ in 0..200 {
            a.on_ack(10, 0);
            a.end_of_round();
        }
        assert!(a.cut_factor() > 0.99); // α→0 → barely cut
    }

    #[test]
    fn min_tracker_detects_window_minimum() {
        let mut m = MinTracker::new(3);
        assert!(m.push(0.5)); // first value is trivially the min
        assert!(!m.push(0.7));
        assert!(m.push(0.4));
        assert!(!m.push(0.6));
        // Window now [0.4, 0.6]; 0.4 still inside, so 0.5 is not a min.
        assert!(!m.push(0.5));
        // Window [0.6, 0.5]: 0.45 is the new strict min.
        assert!(m.push(0.45));
    }

    #[test]
    fn min_tracker_forgets_old_minima() {
        let mut m = MinTracker::new(2);
        m.push(0.1);
        m.push(0.9);
        // 0.1 has slid out; window is [0.9]; 0.5 beats it strictly.
        assert!(m.push(0.5));
    }

    #[test]
    fn ties_do_not_trigger() {
        // A steady-state constant α must not fire every round — that
        // would make "intermittent" loop initialization continuous.
        let mut m = MinTracker::new(4);
        assert!(m.push(0.3));
        for _ in 0..20 {
            assert!(!m.push(0.3), "tie fired a loop");
        }
    }
}
