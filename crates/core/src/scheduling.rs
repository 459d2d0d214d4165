//! Buffer-aware flow scheduling (§4): large-flow identification and
//! mirror-symmetric packet tagging.

/// Buffer-aware large-flow identification (§4.1).
///
/// A flow is flagged *large at start* when its first send() syscall copies
/// more than `threshold_bytes` into the TCP send buffer. Flows that dodge
/// this check (incremental writers) are caught during transmission by
/// PIAS-style aging in the tagger below.
#[derive(Clone, Copy, Debug)]
pub struct FlowIdentifier {
    /// First-syscall size above which a flow is immediately large.
    pub threshold_bytes: u64,
}

/// The paper's default identification threshold (Table 3).
pub const DEFAULT_IDENT_THRESHOLD_BYTES: u64 = 100_000;

impl Default for FlowIdentifier {
    fn default() -> Self {
        FlowIdentifier { threshold_bytes: DEFAULT_IDENT_THRESHOLD_BYTES }
    }
}

impl FlowIdentifier {
    /// Identify from the first syscall's size.
    pub fn is_large_at_start(&self, first_write_bytes: u64) -> bool {
        first_write_bytes > self.threshold_bytes
    }
}

/// Mirror-symmetric packet tagging (§4.2).
///
/// ```
/// use ppt_core::MirrorTagger;
/// let t = MirrorTagger;
/// // Identified-large flows are pinned to the band floors P3/P7:
/// assert_eq!(t.hcp_priority(true, 0), 3);
/// assert_eq!(t.lcp_priority(true, 0), 7);
/// // Unidentified flows start at the top and age downward in lock-step:
/// assert_eq!(t.hcp_priority(false, 0), 0);
/// assert_eq!(t.lcp_priority(false, 0), 4);
/// ```
///
/// Eight priorities are split into a high half (P0–P3) for HCP packets and
/// a low half (P4–P7) for LCP packets. Within each half:
/// * flows identified large at start use the half's lowest priority
///   (P3 / P7) from the first byte;
/// * unidentified flows start at the half's highest priority (P0 / P4) and
///   demote one level each time their bytes-sent crosses one of the
///   [`DEFAULT_DEMOTION_THRESHOLDS`] — the PIAS fallback that eventually
///   catches unidentified large flows.
#[derive(Clone, Copy, Debug, Default)]
pub struct MirrorTagger;

/// Aging thresholds (bytes sent) for demotion P0→P1→P2→P3. Chosen
/// geometrically so the bulk of small flows (≤100 KB) finish in the top
/// two levels while anything beyond 1 MB lands in the lowest level with
/// the identified-large flows.
pub const DEFAULT_DEMOTION_THRESHOLDS: [u64; 3] = [100_000, 400_000, 1_000_000];

impl MirrorTagger {
    /// HCP priority (0..=3) for a flow's next packet.
    pub fn hcp_priority(&self, identified_large: bool, bytes_sent: u64) -> u8 {
        if identified_large {
            return 3;
        }
        DEFAULT_DEMOTION_THRESHOLDS.iter().take_while(|&&t| bytes_sent >= t).count() as u8
    }

    /// LCP priority: the mirror of the HCP priority in the low half
    /// (P_i ↦ P_{i+4}).
    pub fn lcp_priority(&self, identified_large: bool, bytes_sent: u64) -> u8 {
        self.hcp_priority(identified_large, bytes_sent) + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_uses_strict_threshold() {
        let id = FlowIdentifier { threshold_bytes: 1_000 };
        assert!(!id.is_large_at_start(1_000));
        assert!(id.is_large_at_start(1_001));
        assert!(!id.is_large_at_start(0));
    }

    #[test]
    fn identified_large_pinned_to_lowest() {
        let t = MirrorTagger;
        assert_eq!(t.hcp_priority(true, 0), 3);
        assert_eq!(t.hcp_priority(true, 10_000_000), 3);
        assert_eq!(t.lcp_priority(true, 0), 7);
    }

    #[test]
    fn unidentified_demote_with_bytes_sent() {
        let t = MirrorTagger;
        assert_eq!(t.hcp_priority(false, 0), 0);
        assert_eq!(t.hcp_priority(false, 99_999), 0);
        assert_eq!(t.hcp_priority(false, 100_000), 1);
        assert_eq!(t.hcp_priority(false, 250_000), 1);
        assert_eq!(t.hcp_priority(false, 400_000), 2);
        assert_eq!(t.hcp_priority(false, 999_999), 2);
        assert_eq!(t.hcp_priority(false, 1_000_000), 3);
        assert_eq!(t.hcp_priority(false, u64::MAX), 3);
    }

    #[test]
    fn mirror_symmetry_holds_everywhere() {
        let t = MirrorTagger;
        for &large in &[false, true] {
            for sent in [0u64, 50_000, 150_000, 500_000, 2_000_000] {
                let h = t.hcp_priority(large, sent);
                let l = t.lcp_priority(large, sent);
                assert_eq!(l, h + 4, "mirror violated at large={large} sent={sent}");
                assert!(h <= 3 && (4..=7).contains(&l));
            }
        }
    }

    #[test]
    fn hcp_always_beats_lcp() {
        // Any HCP priority must be numerically smaller (= strictly higher
        // priority) than any LCP priority: HCP is never harmed by LCP.
        let t = MirrorTagger;
        let worst_hcp = t.hcp_priority(true, u64::MAX);
        let best_lcp = t.lcp_priority(false, 0);
        assert!(worst_hcp < best_lcp);
    }
}
