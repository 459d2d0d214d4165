//! Application write behaviour: how much data the first send() syscall
//! copies into the TCP send buffer.
//!
//! PPT's buffer-aware identifier (§4.1) flags a flow as large when its
//! *first* syscall injects more than a threshold. The paper measures that
//! this catches 86.7 % of >1 KB Memcached flows and 84.3 % of >10 KB web
//! flows — i.e. real applications usually, but not always, hand the whole
//! message to the kernel at once. This model reproduces that behaviour:
//! with probability `full_write_prob` the application writes the entire
//! message in the first syscall; otherwise it writes in small chunks, so
//! the flow starts with a sub-threshold first write and must be caught by
//! PIAS-style aging instead.

use netsim::Pcg32;

/// Default probability that an application writes the whole message in the
/// first syscall (calibrated to the paper's 86.7 % identification rate).
pub const DEFAULT_FULL_WRITE_PROB: f64 = 0.867;

/// Default chunk size of incremental writers (a typical buffered-IO chunk).
pub const DEFAULT_CHUNK_BYTES: u64 = 512;

/// The application write model.
#[derive(Clone, Copy, Debug)]
pub struct AppWriteModel {
    /// Probability the first syscall carries the whole message.
    pub full_write_prob: f64,
    /// First-syscall size of incremental writers, bytes.
    pub chunk_bytes: u64,
}

impl Default for AppWriteModel {
    fn default() -> Self {
        AppWriteModel { full_write_prob: DEFAULT_FULL_WRITE_PROB, chunk_bytes: DEFAULT_CHUNK_BYTES }
    }
}

impl AppWriteModel {
    /// Draw the first-syscall size for a flow of `size_bytes`.
    pub fn first_write(&self, size_bytes: u64, rng: &mut Pcg32) -> u64 {
        if size_bytes <= self.chunk_bytes || rng.next_f64() < self.full_write_prob {
            size_bytes
        } else {
            self.chunk_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_write_fraction_matches_probability() {
        let m = AppWriteModel::default();
        let mut rng = Pcg32::seed_from_u64(11);
        let n = 50_000;
        let full = (0..n).filter(|_| m.first_write(1_000_000, &mut rng) == 1_000_000).count();
        let frac = full as f64 / n as f64;
        assert!((frac - DEFAULT_FULL_WRITE_PROB).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn tiny_flows_always_written_fully() {
        let m = AppWriteModel { full_write_prob: 0.0, chunk_bytes: 512 };
        let mut rng = Pcg32::seed_from_u64(1);
        assert_eq!(m.first_write(100, &mut rng), 100);
        assert_eq!(m.first_write(512, &mut rng), 512);
        assert_eq!(m.first_write(513, &mut rng), 512);
    }
}
