//! Strict-priority packet queues used at every egress port.

use std::collections::VecDeque;

use crate::packet::{Packet, NUM_PRIORITIES};

/// What a queue bank reads of the items it stores: which queue an item
/// joins and how many bytes it adds to the backlog.
pub trait Queued {
    /// Strict priority, 0 (highest) .. 7 (lowest).
    fn priority(&self) -> u8;
    /// Bytes occupied on the wire.
    fn wire_bytes(&self) -> u32;
}

impl<P> Queued for Packet<P> {
    fn priority(&self) -> u8 {
        self.priority
    }
    fn wire_bytes(&self) -> u32 {
        self.wire_bytes
    }
}

/// A bank of eight strict-priority FIFO queues with byte accounting.
///
/// Priority 0 is served first. The bank tracks the byte backlog of each
/// queue and of the whole bank; switches use those for ECN-marking and
/// shared-buffer admission decisions. It stores `T`: whole packets
/// ([`PrioQueues`]) or, inside the engine, the pool handle of one.
#[derive(Debug)]
pub struct QueueBank<T> {
    queues: [VecDeque<T>; NUM_PRIORITIES],
    bytes: [u64; NUM_PRIORITIES],
    total_bytes: u64,
    /// Bit `p` set = queue `p` holds at least one item, so the head of
    /// line is one `trailing_zeros` away instead of a scan of the bank.
    occupied: u8,
    len: usize,
}

/// A queue bank that holds its packets by value.
pub type PrioQueues<P> = QueueBank<Packet<P>>;

impl<T: Queued> Default for QueueBank<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Queued> QueueBank<T> {
    /// An empty queue bank.
    pub fn new() -> Self {
        QueueBank {
            queues: std::array::from_fn(|_| VecDeque::new()),
            bytes: [0; NUM_PRIORITIES],
            total_bytes: 0,
            occupied: 0,
            len: 0,
        }
    }

    // simlint: hot-path
    /// Append an item to its priority queue.
    pub fn push(&mut self, item: T) {
        let p = item.priority() as usize;
        debug_assert!(p < NUM_PRIORITIES, "packet priority {p} out of range");
        self.bytes[p] += item.wire_bytes() as u64;
        self.total_bytes += item.wire_bytes() as u64;
        self.occupied |= 1 << p;
        self.len += 1;
        self.queues[p].push_back(item);
    }

    /// Remove and return the head of the highest-priority non-empty queue.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_unpaused(0)
    }

    /// Remove and return the head of the highest-priority non-empty queue
    /// whose priority bit is clear in `paused_mask` (bit `p` set = priority
    /// `p` is PFC-paused).
    pub fn pop_unpaused(&mut self, paused_mask: u8) -> Option<T> {
        let eligible = self.occupied & !paused_mask;
        if eligible == 0 {
            return None;
        }
        let p = eligible.trailing_zeros() as usize;
        let item = self.queues[p].pop_front()?;
        self.removed(p, &item);
        Some(item)
    }

    /// Evict the most recently queued item of the lowest-priority
    /// non-empty queue whose priority is strictly below `above`.
    /// Models shared-buffer push-out: arriving high-priority traffic
    /// reclaims space from low-priority backlog.
    pub fn evict_lowest_below(&mut self, above: u8) -> Option<T> {
        // Bits above+1 ..= 7.
        let lower = self.occupied & !(u8::MAX >> (7 - above.min(7)));
        if lower == 0 {
            return None;
        }
        let p = NUM_PRIORITIES - 1 - lower.leading_zeros() as usize;
        let item = self.queues[p].pop_back()?;
        self.removed(p, &item);
        Some(item)
    }

    /// Book `item` out of queue `p`, which it has just left.
    fn removed(&mut self, p: usize, item: &T) {
        self.bytes[p] -= item.wire_bytes() as u64;
        self.total_bytes -= item.wire_bytes() as u64;
        self.len -= 1;
        if self.queues[p].is_empty() {
            self.occupied &= !(1 << p);
        }
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
        self.len
    }

    /// True when no packet is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every queued item, highest priority first, FIFO within one.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queues.iter().flatten()
    }

    /// Recompute the byte counters from the queue contents and compare
    /// them against the incrementally maintained ones. Returns
    /// `Some((recomputed_total, counter_total))` when any per-priority or
    /// total counter has drifted — or the occupancy mask or the item count
    /// disagrees with the contents; `None` when accounting is consistent.
    /// Used by the simsan queue-accounting audit.
    pub fn audit_counters(&self) -> Option<(u64, u64)> {
        let mut sum = 0u64;
        let mut consistent = true;
        let mut items = 0;
        for p in 0..NUM_PRIORITIES {
            let b: u64 = self.queues[p].iter().map(|item| item.wire_bytes() as u64).sum();
            consistent &= b == self.bytes[p];
            consistent &= self.queues[p].is_empty() == (self.occupied & (1 << p) == 0);
            items += self.queues[p].len();
            sum += b;
        }
        if sum != self.total_bytes || items != self.len || !consistent {
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

    #[test]
    fn occupancy_mask_and_count_follow_the_contents() {
        let mut q = PrioQueues::new();
        assert!(q.is_empty() && q.audit_counters().is_none());
        assert_eq!(q.len(), 0);
        for (prio, bytes) in [(7, 10), (2, 20), (7, 30), (4, 40)] {
            q.push(pkt(prio, bytes));
            assert!(q.audit_counters().is_none(), "after push at P{prio}");
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.iter().map(|p| p.payload_bytes()).collect::<Vec<_>>(), vec![20, 40, 10, 30]);
        // Nothing strictly below P7; below P4 only P7, newest first.
        assert!(q.evict_lowest_below(7).is_none());
        assert_eq!(q.evict_lowest_below(4).unwrap().payload_bytes(), 30);
        assert_eq!(q.evict_lowest_below(4).unwrap().payload_bytes(), 10);
        assert!(q.evict_lowest_below(4).is_none(), "P7 drained: its bit must clear");
        assert_eq!(q.evict_lowest_below(0).unwrap().payload_bytes(), 40);
        assert!(q.audit_counters().is_none());
        assert_eq!((q.len(), q.is_empty()), (1, false));
        assert_eq!(q.pop().unwrap().payload_bytes(), 20);
        assert!(q.is_empty() && q.pop().is_none() && q.audit_counters().is_none());
    }
}
