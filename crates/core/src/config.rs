//! PPT configuration: every §3/§4 knob in one place, with the paper's
//! defaults.

use netsim::{bdp_bytes, Rate, SimDuration};

use crate::alpha::DEFAULT_MIN_WINDOW;
use crate::ecn::{LAMBDA_HIGH, LAMBDA_LOW};
use crate::scheduling::{DEFAULT_DEMOTION_THRESHOLDS, DEFAULT_IDENT_THRESHOLD_BYTES};

/// Full PPT parameterization.
#[derive(Clone, Debug)]
pub struct PptConfig {
    /// Bottleneck (edge) link rate — defines the BDP.
    pub link_rate: Rate,
    /// Base (unloaded) round-trip time.
    pub base_rtt: SimDuration,
    /// Window (in RTTs) over which α-minimum triggers are detected.
    pub alpha_min_window: usize,
    /// λ for the HCP queues' ECN threshold (Eq. 3).
    pub lambda_high: f64,
    /// λ for the LCP queues' ECN threshold (Eq. 3).
    pub lambda_low: f64,
    /// Buffer-aware identification threshold (first-syscall bytes).
    pub ident_threshold_bytes: u64,
    /// Aging thresholds for the mirror tagger.
    pub demotion_thresholds: Vec<u64>,
    /// TCP send buffer capacity per flow. First-syscall sizes are clamped
    /// to this; the paper shows 128 KB suffices on the testbed and 2 MB in
    /// the large-scale sims (appendix F).
    pub send_buffer_bytes: u64,
    /// Ablation: disable ECN-based protection of HCP by LCP (Fig 15).
    pub lcp_ecn_enabled: bool,
    /// Ablation: disable EWD — LCP sends at line rate while open (Fig 16).
    pub ewd_enabled: bool,
    /// Ablation: disable flow scheduling — tag everything P0/P4 (Fig 17).
    pub scheduling_enabled: bool,
    /// Ablation: disable buffer-aware identification (Fig 18).
    pub identification_enabled: bool,
    /// Fraction of MW to fill to (1.0 per §2.3; swept in Fig 3).
    pub fill_fraction: f64,
}

impl PptConfig {
    /// Paper defaults for a given link rate and base RTT.
    pub fn new(link_rate: Rate, base_rtt: SimDuration) -> Self {
        PptConfig {
            link_rate,
            base_rtt,
            alpha_min_window: DEFAULT_MIN_WINDOW,
            lambda_high: LAMBDA_HIGH,
            lambda_low: LAMBDA_LOW,
            ident_threshold_bytes: DEFAULT_IDENT_THRESHOLD_BYTES,
            demotion_thresholds: DEFAULT_DEMOTION_THRESHOLDS.to_vec(),
            send_buffer_bytes: 2 << 20,
            lcp_ecn_enabled: true,
            ewd_enabled: true,
            scheduling_enabled: true,
            identification_enabled: true,
            fill_fraction: 1.0,
        }
    }

    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        bdp_bytes(self.link_rate, self.base_rtt)
    }

    /// (K_high, K_low) ECN thresholds per Eq. 3.
    pub fn ecn_thresholds(&self) -> (u64, u64) {
        (
            crate::ecn::marking_threshold_bytes(self.lambda_high, self.link_rate, self.base_rtt),
            crate::ecn::marking_threshold_bytes(self.lambda_low, self.link_rate, self.base_rtt),
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
        assert_eq!(c.lambda_high, 0.17);
        assert_eq!(c.lambda_low, 0.1);
        assert_eq!(c.fill_fraction, 1.0);
        assert!(c.lcp_ecn_enabled && c.ewd_enabled && c.scheduling_enabled);
        assert_eq!(c.bdp_bytes(), 80_000);
        let (hi, lo) = c.ecn_thresholds();
        assert!(lo < hi);
    }
}
