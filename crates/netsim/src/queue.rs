//! Strict-priority packet queues used at every egress port.

use std::collections::VecDeque;

use crate::packet::{Packet, NUM_PRIORITIES};

/// A bank of eight strict-priority FIFO queues with byte accounting.
///
/// Priority 0 is served first. The bank tracks the byte backlog of each
/// queue and of the whole bank; switches use those for ECN-marking and
/// shared-buffer admission decisions.
#[derive(Debug)]
pub struct PrioQueues<P> {
    queues: [VecDeque<Packet<P>>; NUM_PRIORITIES],
    bytes: [u64; NUM_PRIORITIES],
    total_bytes: u64,
}

impl<P> Default for PrioQueues<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PrioQueues<P> {
    /// An empty queue bank.
    pub fn new() -> Self {
        PrioQueues {
            queues: std::array::from_fn(|_| VecDeque::new()),
            bytes: [0; NUM_PRIORITIES],
            total_bytes: 0,
        }
    }

    // simlint: hot-path
    /// Append a packet to its priority queue.
    pub fn push(&mut self, pkt: Packet<P>) {
        let p = pkt.priority as usize;
        debug_assert!(p < NUM_PRIORITIES, "packet priority {p} out of range");
        self.bytes[p] += pkt.wire_bytes as u64;
        self.total_bytes += pkt.wire_bytes as u64;
        self.queues[p].push_back(pkt);
    }

    /// Remove and return the head of the highest-priority non-empty queue.
    pub fn pop(&mut self) -> Option<Packet<P>> {
        self.pop_unpaused(0)
    }

    /// Remove and return the head of the highest-priority non-empty queue
    /// whose priority bit is clear in `paused_mask` (bit `p` set = priority
    /// `p` is PFC-paused).
    pub fn pop_unpaused(&mut self, paused_mask: u8) -> Option<Packet<P>> {
        for p in 0..NUM_PRIORITIES {
            if paused_mask & (1 << p) != 0 {
                continue;
            }
            if let Some(pkt) = self.queues[p].pop_front() {
                self.bytes[p] -= pkt.wire_bytes as u64;
                self.total_bytes -= pkt.wire_bytes as u64;
                return Some(pkt);
            }
        }
        None
    }

    /// Evict the most recently queued packet of the lowest-priority
    /// non-empty queue whose priority is strictly below `above`.
    /// Models shared-buffer push-out: arriving high-priority traffic
    /// reclaims space from low-priority backlog.
    pub fn evict_lowest_below(&mut self, above: u8) -> Option<Packet<P>> {
        for p in (above as usize + 1..NUM_PRIORITIES).rev() {
            if let Some(pkt) = self.queues[p].pop_back() {
                self.bytes[p] -= pkt.wire_bytes as u64;
                self.total_bytes -= pkt.wire_bytes as u64;
                return Some(pkt);
            }
        }
        None
    }
    // simlint: hot-path-end

    /// Byte backlog of one priority queue.
    pub fn bytes_at(&self, priority: u8) -> u64 {
        self.bytes[priority as usize]
    }

    /// Byte backlog across a half-open range of priorities.
    pub fn bytes_in_range(&self, range: std::ops::Range<u8>) -> u64 {
        range.map(|p| self.bytes[p as usize]).sum()
    }

    /// Total byte backlog across all priorities.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total queued packet count.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True when no packet is queued.
    pub fn is_empty(&self) -> bool {
        self.total_bytes == 0 && self.len() == 0
    }

    /// Recompute the byte counters from the queue contents and compare
    /// them against the incrementally maintained ones. Returns
    /// `Some((recomputed_total, counter_total))` when any per-priority or
    /// total counter has drifted; `None` when accounting is consistent.
    /// Used by the simsan queue-accounting audit.
    pub fn audit_counters(&self) -> Option<(u64, u64)> {
        let mut sum = 0u64;
        let mut per_ok = true;
        for p in 0..NUM_PRIORITIES {
            let b: u64 = self.queues[p].iter().map(|pkt| pkt.wire_bytes as u64).sum();
            if b != self.bytes[p] {
                per_ok = false;
            }
            sum += b;
        }
        if sum != self.total_bytes || !per_ok {
            Some((sum, self.total_bytes))
        } else {
            None
        }
    }

    /// Deliberately skew the byte counters away from the queue contents
    /// (simsan selftest hook for the accounting-drift bug class).
    #[cfg(any(test, feature = "simsan-selftest"))]
    pub fn corrupt_skew_bytes(&mut self, skew: u64) {
        self.bytes[0] += skew;
        self.total_bytes += skew;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::NoPayload;

    fn pkt(prio: u8, payload: u32) -> Packet<NoPayload> {
        Packet::data(FlowId(0), HostId(0), HostId(1), payload, NoPayload).with_priority(prio)
    }

    #[test]
    fn strict_priority_order() {
        let mut q = PrioQueues::new();
        q.push(pkt(5, 100));
        q.push(pkt(2, 200));
        q.push(pkt(2, 300));
        q.push(pkt(0, 400));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|p| p.payload_bytes())).collect();
        assert_eq!(order, vec![400, 200, 300, 100]);
        assert!(q.is_empty());
    }

    #[test]
    fn byte_accounting_tracks_push_pop() {
        let mut q = PrioQueues::new();
        q.push(pkt(1, 100));
        q.push(pkt(6, 50));
        assert_eq!(q.bytes_at(1), 140);
        assert_eq!(q.bytes_at(6), 90);
        assert_eq!(q.total_bytes(), 230);
        assert_eq!(q.bytes_in_range(0..4), 140);
        assert_eq!(q.bytes_in_range(4..8), 90);
        q.pop();
        assert_eq!(q.total_bytes(), 90);
        q.pop();
        assert_eq!(q.total_bytes(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_unpaused_skips_paused_priorities() {
        let mut q = PrioQueues::new();
        q.push(pkt(0, 100));
        q.push(pkt(3, 200));
        q.push(pkt(5, 300));
        // P0 paused: the P3 packet is served first.
        assert_eq!(q.pop_unpaused(0b0000_0001).unwrap().payload_bytes(), 200);
        // P0 and P5 paused: nothing eligible remains but the bank is not empty.
        assert!(q.pop_unpaused(0b0010_0001).is_none());
        assert!(!q.is_empty());
        // Unpausing resumes normal strict-priority service with intact bytes.
        assert_eq!(q.total_bytes(), 100 + 300 + 2 * 40);
        assert_eq!(q.pop_unpaused(0).unwrap().payload_bytes(), 100);
        assert_eq!(q.pop_unpaused(0).unwrap().payload_bytes(), 300);
        assert_eq!(q.total_bytes(), 0);
    }

    #[test]
    fn fifo_within_priority() {
        let mut q = PrioQueues::new();
        for i in 1..=5u32 {
            q.push(pkt(3, i));
        }
        for i in 1..=5u32 {
            assert_eq!(q.pop().unwrap().payload_bytes(), i);
        }
    }
}
