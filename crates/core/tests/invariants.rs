//! Invariants over the paper's §3/§4 algorithms: deterministic seeded
//! sweeps driven by the in-tree [`Pcg32`].

use netsim::{Pcg32, SimDuration, SimTime};
use ppt_core::{
    initial_window_case1, initial_window_case2, AlphaEstimator, LcpAckClock, LcpAction, LcpLoop,
    MinTracker, MirrorTagger, PptConfig,
};

/// α is always in [0, 1] no matter the feedback sequence.
#[test]
fn alpha_stays_in_unit_interval_seeded() {
    for seed in 0..16u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut a = AlphaEstimator::default();
        let rounds = 1 + rng.gen_index(199);
        for _ in 0..rounds {
            let acked = rng.gen_range(1000);
            let marked = rng.gen_range(1000).min(acked);
            a.on_ack(acked, marked);
            let alpha = a.end_of_round();
            assert!((0.0..=1.0).contains(&alpha), "seed {seed}: alpha={alpha}");
            assert!((0.5..=1.0).contains(&a.cut_factor()), "seed {seed}");
        }
    }
}

/// Eq. 2 never asks for more than half of (the scaled) W_max, and is
/// monotone: a lower α_min yields a bigger initial window.
#[test]
fn eq2_bounds_and_monotonicity_seeded() {
    let mut rng = Pcg32::seed_from_u64(0);
    for _ in 0..500 {
        let wmax = 1 + rng.gen_range(100_000_000 - 1);
        let a1 = rng.next_f64();
        let a2 = rng.next_f64();
        let i1 = initial_window_case2(a1, wmax);
        let i2 = initial_window_case2(a2, wmax);
        assert!(i1 <= wmax / 2 + 1);
        if a1 < a2 {
            assert!(i1 >= i2, "lower alpha must not shrink the window");
        }
    }
}

/// Case-1 window never exceeds the BDP.
#[test]
fn case1_bounded_by_bdp_seeded() {
    let mut rng = Pcg32::seed_from_u64(1);
    for _ in 0..500 {
        let bdp = rng.gen_range(10_000_000);
        let iw = rng.gen_range(10_000_000);
        assert!(initial_window_case1(bdp, iw) <= bdp);
    }
}

/// Tagging monotonicity: priorities never *improve* as a flow sends more
/// bytes, and the LCP mirror never crosses into the HCP band.
#[test]
fn tagging_is_monotone_and_banded_seeded() {
    let mut rng = Pcg32::seed_from_u64(2);
    for _ in 0..500 {
        let sent_a = rng.gen_range(100_000_000);
        let delta = rng.gen_range(100_000_000);
        let large = rng.gen_range(2) == 1;
        let t = MirrorTagger;
        let before = t.hcp_priority(large, sent_a);
        let after = t.hcp_priority(large, sent_a + delta);
        assert!(after >= before, "priority improved with bytes sent");
        assert!(before <= 3);
        let lcp = t.lcp_priority(large, sent_a);
        assert!((4..=7).contains(&lcp));
        assert_eq!(lcp, before + 4);
    }
}

/// The EWD clock emits exactly floor(n/2) ACKs for n data packets and
/// ECE is set iff a CE mark arrived within the pair.
#[test]
fn ewd_clock_rate_halving_invariant_seeded() {
    for seed in 0..16u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let marks: Vec<bool> = (0..rng.gen_index(300)).map(|_| rng.gen_range(2) == 1).collect();
        let mut clock = LcpAckClock::new();
        let mut acks = 0;
        let mut pending_ce = false;
        for &ce in &marks {
            pending_ce |= ce;
            if let Some(ece) = clock.on_data(ce) {
                assert_eq!(ece, pending_ce, "seed {seed}");
                pending_ce = false;
                acks += 1;
            }
        }
        assert_eq!(acks, marks.len() / 2, "seed {seed}");
    }
}

/// MinTracker: over any sequence, the number of triggers is at most the
/// number of strict descents + 1, and a constant tail never triggers.
#[test]
fn min_tracker_trigger_budget_seeded() {
    for seed in 0..16u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let values: Vec<f64> = (0..1 + rng.gen_index(99)).map(|_| rng.next_f64()).collect();
        let mut m = MinTracker::new(16);
        let mut triggers = 0;
        for &v in &values {
            if m.push(v) {
                triggers += 1;
            }
        }
        let descents = values.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(triggers <= descents + 1, "seed {seed}: triggers={triggers} descents={descents}");
        // Constant tail: repeating the last value can never trigger again
        // (ties are not strict minima).
        let tail = *values.last().expect("generated at least one value");
        for _ in 0..32 {
            assert!(!m.push(tail), "seed {seed}: tie triggered");
        }
    }
}

/// LCP loop expiry is exactly the 2-RTT silence rule.
#[test]
fn lcp_expiry_is_two_rtts_seeded() {
    let mut rng = Pcg32::seed_from_u64(3);
    for _ in 0..500 {
        let last_ack_ns = rng.gen_range(10_000_000);
        let probe_ns = rng.gen_range(30_000_000);
        let rtt = SimDuration::from_micros(80);
        let mut l = LcpLoop::open(10_000, SimTime::ZERO);
        l.on_low_priority_ack(false, SimTime(last_ack_ns));
        let probe = SimTime(last_ack_ns.saturating_add(probe_ns));
        let expired = l.is_expired(probe, rtt);
        assert_eq!(expired, probe_ns >= 2 * 80_000);
    }
}

#[test]
fn ecn_thresholds_scale_with_environment() {
    // Eq. 3 sanity across the paper's three fabrics.
    for (gbps, rtt_us) in [(10u64, 80u64), (40, 12), (100, 12)] {
        let cfg = PptConfig::new(netsim::Rate::gbps(gbps), SimDuration::from_micros(rtt_us));
        let (hi, lo) = cfg.ecn_thresholds();
        assert!(lo < hi, "{gbps}G: K_low must be below K_high");
        let bdp = cfg.bdp_bytes();
        assert!(hi < bdp, "{gbps}G: K_high={hi} must be a fraction of BDP={bdp}");
    }
}

#[test]
fn constant_alpha_sequence_triggers_once() {
    let mut m = MinTracker::new(16);
    let mut triggers = 0;
    for _ in 0..100 {
        if m.push(0.25) {
            triggers += 1;
        }
    }
    assert_eq!(triggers, 1, "steady state must not re-trigger");
}

#[test]
fn ignored_ece_acks_still_count_for_liveness() {
    // An all-ECE stream keeps the loop alive (it is receiving feedback)
    // but never clocks new packets.
    let rtt = SimDuration::from_micros(80);
    let mut l = LcpLoop::open(10_000, SimTime::ZERO);
    for i in 1..10u64 {
        let t = SimTime(i * 50_000);
        assert_eq!(l.on_low_priority_ack(true, t), LcpAction::Ignore);
        assert!(!l.is_expired(t, rtt));
    }
    let (total, ece) = l.ack_counts();
    assert_eq!((total, ece), (9, 9));
}
