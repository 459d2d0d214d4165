//! PPT configuration: the environment PPT runs in and the five knobs the
//! paper varies. Every other §3/§4 value is the paper's constant: λ
//! ([`LAMBDA_HIGH`], [`LAMBDA_LOW`]), the α-minimum window
//! ([`crate::DEFAULT_MIN_WINDOW`]), the identification threshold and the
//! demotion thresholds ([`crate::scheduling`]).

use netsim::{bdp_bytes, Rate, SimDuration};

use crate::ecn::{LAMBDA_HIGH, LAMBDA_LOW};

/// Full PPT parameterization.
#[derive(Clone, Copy, Debug)]
pub struct PptConfig {
    /// Bottleneck (edge) link rate — defines the BDP.
    pub link_rate: Rate,
    /// Base (unloaded) round-trip time.
    pub base_rtt: SimDuration,
    /// TCP send buffer capacity per flow. First-syscall sizes are clamped
    /// to this; the paper shows 128 KB suffices on the testbed and 2 MB in
    /// the large-scale sims (appendix F).
    pub send_buffer_bytes: u64,
    /// What the paper varies: Fig 3's fill and the ablations of Figs 15–18.
    pub knobs: PptKnobs,
}

/// The five axes along which the paper varies PPT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PptKnobs {
    /// ECN-based protection of HCP by LCP (off in Fig 15).
    pub lcp_ecn: bool,
    /// EWD; without it the LCP sends at line rate while open (Fig 16).
    pub ewd: bool,
    /// Flow scheduling; without it everything is tagged P0/P4 (Fig 17).
    pub scheduling: bool,
    /// Buffer-aware identification (off in Fig 18).
    pub identification: bool,
    /// Fraction of MW to fill to (1.0 per §2.3; Fig 3 asks the question).
    pub fill: f64,
}

impl PptKnobs {
    /// PPT as the paper runs it: every mechanism on, filling to MW.
    pub const PAPER: PptKnobs =
        PptKnobs { lcp_ecn: true, ewd: true, scheduling: true, identification: true, fill: 1.0 };
}

impl PptConfig {
    /// Paper defaults for a given link rate and base RTT.
    pub fn new(link_rate: Rate, base_rtt: SimDuration) -> Self {
        PptConfig { link_rate, base_rtt, send_buffer_bytes: 2 << 20, knobs: PptKnobs::PAPER }
    }

    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        bdp_bytes(self.link_rate, self.base_rtt)
    }

    /// (K_high, K_low) ECN thresholds per Eq. 3.
    pub fn ecn_thresholds(&self) -> (u64, u64) {
        (
            crate::ecn::marking_threshold_bytes(LAMBDA_HIGH, self.link_rate, self.base_rtt),
            crate::ecn::marking_threshold_bytes(LAMBDA_LOW, self.link_rate, self.base_rtt),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PptConfig::new(Rate::gbps(40), SimDuration::from_micros(16));
        assert_eq!(crate::alpha::DEFAULT_G, 1.0 / 16.0);
        assert_eq!(c.knobs, PptKnobs::PAPER);
        assert_eq!(c.knobs.fill, 1.0);
        assert!(c.knobs.lcp_ecn && c.knobs.ewd && c.knobs.scheduling && c.knobs.identification);
        assert_eq!(c.bdp_bytes(), 80_000);
        let (hi, lo) = c.ecn_thresholds();
        assert!(lo < hi);
    }
}
