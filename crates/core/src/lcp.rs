//! The LCP (low-priority control loop) state machine: intermittent loop
//! initialization (§3.1) and exponential window decreasing (§3.2).
//!
//! This module is pure protocol logic — no simulator types — so the same
//! code drives the simulation transport and can be tested exhaustively.

use netsim::{SimDuration, SimTime};

/// Initial LCP window for case 1 (flow start): the BDP minus the DCTCP
/// initial window — the pipe capacity the slow-starting HCP loop is not
/// yet using. Saturates at zero.
pub fn initial_window_case1(bdp_bytes: u64, hcp_initial_window_bytes: u64) -> u64 {
    bdp_bytes.saturating_sub(hcp_initial_window_bytes)
}

/// Initial LCP window for case 2 (queue buildup), Eq. 2 of the paper:
///
/// ```
/// use ppt_core::initial_window_case2;
/// assert_eq!(initial_window_case2(0.1, 100_000), 40_000); // (0.5-0.1)*MW
/// assert_eq!(initial_window_case2(0.6, 100_000), 0);      // no spare capacity
/// ```
///
/// ```text
/// I = (1/2 − α_min) · W_max
/// ```
///
/// Rationale: a small α_min means the network likely has spare capacity;
/// DCTCP cuts its window by at most half, so I never exceeds W_max / 2.
/// Returns 0 when α_min ≥ 1/2 (no spare capacity to exploit).
pub fn initial_window_case2(alpha_min: f64, w_max_bytes: u64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&alpha_min), "alpha_min {alpha_min} outside [0, 1]");
    let frac = 0.5 - alpha_min;
    if frac <= 0.0 {
        0
    } else {
        (frac * w_max_bytes as f64).floor() as u64
    }
}

/// What the sender should do in response to a low-priority ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LcpAction {
    /// Transmit one new opportunistic packet (EWD: one per non-ECE ACK,
    /// where the receiver sends one ACK per two data packets ⇒ the rate
    /// halves every RTT).
    SendOne,
    /// ECE-marked ACK: congestion — send nothing, preserve HCP traffic.
    Ignore,
}

/// One LCP loop instance.
///
/// ```
/// use ppt_core::{LcpAction, LcpLoop};
/// use netsim::{SimDuration, SimTime};
/// let mut l = LcpLoop::open(80_000, SimTime::ZERO);
/// // EWD: every clean low-priority ACK clocks exactly one new packet...
/// assert_eq!(l.on_low_priority_ack(false, SimTime(1000)), LcpAction::SendOne);
/// // ...and ECE-marked ones are ignored to protect normal traffic.
/// assert_eq!(l.on_low_priority_ack(true, SimTime(2000)), LcpAction::Ignore);
/// // Two silent RTTs close the loop.
/// assert!(l.is_expired(SimTime(2000) + SimDuration::from_micros(160), SimDuration::from_micros(80)));
/// ```
///
/// Lifecycle: [`LcpLoop::open`] → paced initial burst of `initial_window`
/// bytes → per-ACK clocking via [`LcpLoop::on_low_priority_ack`] →
/// terminated by [`LcpLoop::is_expired`] after 2 RTTs of ACK silence
/// (§3.2, "Remarks").
#[derive(Clone, Debug)]
pub struct LcpLoop {
    initial_window_bytes: u64,
    last_ack_at: SimTime,
    acks_received: u64,
    ece_acks: u64,
}

/// ACK-silence horizon after which a loop is declared dead, in RTTs.
pub const LOOP_EXPIRY_RTTS: u64 = 2;

impl LcpLoop {
    /// Open a loop with the given initial window. A zero window is legal
    /// (the loop exists but transmits nothing and quickly expires).
    pub fn open(initial_window_bytes: u64, now: SimTime) -> Self {
        LcpLoop { initial_window_bytes, last_ack_at: now, acks_received: 0, ece_acks: 0 }
    }

    /// The initial window to pace out over one RTT (rate I/RTT).
    pub fn initial_window_bytes(&self) -> u64 {
        self.initial_window_bytes
    }

    /// Handle a low-priority ACK; implements the EWD sender rule.
    pub fn on_low_priority_ack(&mut self, ece: bool, now: SimTime) -> LcpAction {
        self.last_ack_at = now;
        self.acks_received += 1;
        if ece {
            self.ece_acks += 1;
            LcpAction::Ignore
        } else {
            LcpAction::SendOne
        }
    }

    /// True once no low-priority ACK has arrived for [`LOOP_EXPIRY_RTTS`]
    /// RTTs: the loop should be closed and spare-bandwidth discovery
    /// restarted.
    pub fn is_expired(&self, now: SimTime, rtt: SimDuration) -> bool {
        now.saturating_since(self.last_ack_at) >= rtt.saturating_mul(LOOP_EXPIRY_RTTS)
    }

    /// Total and ECE-marked ACK counts (diagnostics).
    pub fn ack_counts(&self) -> (u64, u64) {
        (self.acks_received, self.ece_acks)
    }
}

/// Number of opportunistic data packets the receiver coalesces into one
/// low-priority ACK. Two-for-one is what makes the sender's per-ACK
/// clocking halve the LCP rate each RTT (§3.2).
pub const LCP_PACKETS_PER_ACK: u32 = 2;

/// Receiver-side EWD: count arriving opportunistic packets and decide when
/// to emit a low-priority ACK (one per [`LCP_PACKETS_PER_ACK`] arrivals).
/// The ACK echoes whether any coalesced packet carried a CE mark.
#[derive(Clone, Debug, Default)]
pub struct LcpAckClock {
    pending: u32,
    pending_ce: bool,
}

impl LcpAckClock {
    /// New clock with no pending packets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an arriving opportunistic data packet. Returns
    /// `Some(ece)` when an ACK should be emitted now.
    pub fn on_data(&mut self, ce_marked: bool) -> Option<bool> {
        self.pending += 1;
        self.pending_ce |= ce_marked;
        if self.pending >= LCP_PACKETS_PER_ACK {
            let ece = self.pending_ce;
            self.pending = 0;
            self.pending_ce = false;
            Some(ece)
        } else {
            None
        }
    }

    /// Packets received since the last emitted ACK.
    pub fn pending(&self) -> u32 {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_window_is_bdp_minus_iw() {
        assert_eq!(initial_window_case1(100_000, 14_600), 85_400);
        assert_eq!(initial_window_case1(10_000, 14_600), 0, "saturates");
    }

    #[test]
    fn case2_window_follows_equation_2() {
        // α_min = 0 → I = W_max/2.
        assert_eq!(initial_window_case2(0.0, 100_000), 50_000);
        // α_min = 0.3 → I = 0.2·W_max.
        assert_eq!(initial_window_case2(0.3, 100_000), 20_000);
        // α_min ≥ 0.5 → no loop.
        assert_eq!(initial_window_case2(0.5, 100_000), 0);
        assert_eq!(initial_window_case2(0.9, 100_000), 0);
    }

    #[test]
    fn ewd_sender_rule() {
        let mut l = LcpLoop::open(50_000, SimTime::ZERO);
        assert_eq!(l.on_low_priority_ack(false, SimTime(100)), LcpAction::SendOne);
        assert_eq!(l.on_low_priority_ack(true, SimTime(200)), LcpAction::Ignore);
        assert_eq!(l.ack_counts(), (2, 1));
    }

    #[test]
    fn loop_expires_after_two_silent_rtts() {
        let rtt = SimDuration::from_micros(80);
        let mut l = LcpLoop::open(10_000, SimTime::ZERO);
        assert!(!l.is_expired(SimTime(100_000), rtt)); // 100us < 160us
        assert!(l.is_expired(SimTime(160_000), rtt)); // exactly 2 RTTs
                                                      // An ACK resets the expiry clock.
        l.on_low_priority_ack(false, SimTime(150_000));
        assert!(!l.is_expired(SimTime(200_000), rtt));
        assert!(l.is_expired(SimTime(310_000), rtt));
    }

    #[test]
    fn ack_clock_coalesces_two_to_one() {
        let mut c = LcpAckClock::new();
        assert_eq!(c.on_data(false), None);
        assert_eq!(c.on_data(false), Some(false));
        assert_eq!(c.pending(), 0);
        // CE on either packet of the pair sets ECE on the ACK.
        assert_eq!(c.on_data(true), None);
        assert_eq!(c.on_data(false), Some(true));
        assert_eq!(c.on_data(false), None);
        assert_eq!(c.on_data(true), Some(true));
    }

    #[test]
    fn halving_dynamics_emerge_from_the_rules() {
        // Send W packets; receiver ACKs W/2 of them; each ACK clocks one
        // new packet — so the next round sends W/2. Simulate 4 rounds.
        let mut window = 64u32;
        let mut clock = LcpAckClock::new();
        for _ in 0..4 {
            let mut acks = 0;
            for _ in 0..window {
                if clock.on_data(false).is_some() {
                    acks += 1;
                }
            }
            window = acks;
        }
        assert_eq!(window, 4, "64 → 32 → 16 → 8 → 4");
    }
}
