//! Link rates and bandwidth-delay arithmetic.

use crate::time::SimDuration;

/// A link transmission rate.
///
/// Stored as bits per second. Constructors are provided for the usual
/// datacenter units. Serialization-time math is exact in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rate {
    bits_per_sec: u64,
    /// Picoseconds one byte takes on the wire, when that is a whole number
    /// no larger than 8 × 10⁹ (every rate from 1 kbps that divides
    /// 8 × 10¹² bps, which is every rate a topology uses); 0 otherwise.
    /// A function of `bits_per_sec`, so the derived orderings agree.
    ps_per_byte: u64,
}

/// Picoseconds per byte at one bit per second.
const PS_PER_BYTE_AT_1BPS: u64 = 8_000_000_000_000;

impl Rate {
    /// Rate from raw bits per second.
    pub const fn from_bps(bits_per_sec: u64) -> Self {
        let whole = bits_per_sec >= 1_000 && PS_PER_BYTE_AT_1BPS.is_multiple_of(bits_per_sec);
        let ps_per_byte = if whole { PS_PER_BYTE_AT_1BPS / bits_per_sec } else { 0 };
        Rate { bits_per_sec, ps_per_byte }
    }

    /// Rate from gigabits per second (e.g. `Rate::gbps(40)`).
    pub const fn gbps(g: u64) -> Self {
        Self::from_bps(g * 1_000_000_000)
    }

    /// Rate from megabits per second.
    pub const fn mbps(m: u64) -> Self {
        Self::from_bps(m * 1_000_000)
    }

    /// Raw bits per second.
    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Bytes per second.
    pub const fn bytes_per_sec(self) -> u64 {
        self.bits_per_sec / 8
    }

    /// Time to serialize `bytes` onto the wire at this rate.
    ///
    /// Rounds up to the next nanosecond so that back-to-back transmissions
    /// never overlap.
    ///
    /// Per packet per hop. At a rate with whole picoseconds per byte,
    /// `8e9 · bytes / bps` is `ps_per_byte · bytes / 1 000` exactly, and
    /// the division by a constant compiles to a multiply; any other rate
    /// pays the 64-bit division. `ps_per_byte ≤ 8e9` keeps the product
    /// within the range of the general form's.
    pub fn serialization_time(self, bytes: u64) -> SimDuration {
        debug_assert!(self.bits_per_sec > 0, "zero-rate link");
        let ns = if self.ps_per_byte != 0 {
            (bytes * self.ps_per_byte).div_ceil(1_000)
        } else {
            (bytes * 8 * 1_000_000_000).div_ceil(self.bits_per_sec)
        };
        SimDuration::from_nanos(ns)
    }

    /// Bytes that can be transmitted in `dur` at this rate (rounded down).
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        (self.bits_per_sec as u128 * dur.as_nanos() as u128 / (8 * 1_000_000_000)) as u64
    }
}

/// Bandwidth-delay product in bytes for a given bottleneck rate and
/// base round-trip time.
pub fn bdp_bytes(rate: Rate, base_rtt: SimDuration) -> u64 {
    rate.bytes_in(base_rtt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_exact() {
        // 1500B at 10Gbps = 12000 bits / 10^10 bps = 1.2us
        assert_eq!(Rate::gbps(10).serialization_time(1500).as_nanos(), 1200);
        // 1500B at 40Gbps = 300ns
        assert_eq!(Rate::gbps(40).serialization_time(1500).as_nanos(), 300);
        // rounding up: 1 byte at 3 bps -> ceil(8e9/3)
        assert_eq!(Rate::from_bps(3).serialization_time(1).as_nanos(), 2_666_666_667);
    }

    /// The division-free form is the exact ceiling at every topology rate,
    /// and a rate without whole picoseconds per byte takes the general one.
    #[test]
    fn serialization_time_is_the_exact_ceiling_for_every_wire_size() {
        let rates = [
            Rate::gbps(1),
            Rate::mbps(2_500),
            Rate::gbps(10),
            Rate::gbps(25),
            Rate::gbps(40),
            Rate::gbps(100),
            Rate::gbps(400),
            Rate::from_bps(3),
        ];
        for rate in rates {
            assert_eq!(rate.ps_per_byte != 0, rate.bits_per_sec() != 3, "{rate:?}");
            for bytes in 1..=1_500u64 {
                let exact = (bytes * 8 * 1_000_000_000).div_ceil(rate.bits_per_sec());
                assert_eq!(
                    rate.serialization_time(bytes).as_nanos(),
                    exact,
                    "{bytes} B at {rate:?}"
                );
            }
        }
    }

    #[test]
    fn bdp_matches_hand_math() {
        // 40Gbps * 16us RTT = 80KB
        assert_eq!(bdp_bytes(Rate::gbps(40), SimDuration::from_micros(16)), 80_000);
        // 10Gbps * 80us = 100KB
        assert_eq!(bdp_bytes(Rate::gbps(10), SimDuration::from_micros(80)), 100_000);
    }

    #[test]
    fn bytes_in_inverts_serialization() {
        let r = Rate::gbps(25);
        let d = r.serialization_time(123_456);
        assert!(r.bytes_in(d) >= 123_456);
    }
}
