//! The event-queue core: one totally-ordered schedule keyed by `(time, seq)`.
//!
//! The engine dispatches every event through a single queue whose pop order
//! *is* the determinism contract: entries come out in ascending `(at, seq)`,
//! where `seq` is the globally monotone insertion number the engine assigns
//! in [`crate::Simulator`]'s `schedule`. This module provides the
//! [`EventQueue`] abstraction and two interchangeable implementations:
//!
//! * [`HeapQueue`] — the original `BinaryHeap`, kept as the *oracle*: its
//!   correctness is a one-liner (heap property + inverted [`Ord`] on
//!   [`QEntry`]), so every other implementation is differentially tested
//!   against it (see the tests at the bottom of this file).
//! * [`CalendarQueue`] — a calendar queue / timing wheel with O(1) insert
//!   for near-horizon events (serialization `TxDone`, RTO timers, telemetry
//!   samples — the bulk of real runs) and a `BinaryHeap` overflow tier for
//!   far-future events (flow starts spread over seconds). This is the
//!   engine default.
//!
//! Both implementations pop in *exactly* the same order for unique keys —
//! enforced by the pinned golden digests in `tests/determinism.rs` running
//! over the calendar path and by the randomized differential tests here —
//! so switching queues never moves a byte of any trace or FCT stream.
//!
//! # How the calendar queue preserves the FIFO tie-break
//!
//! The wheel is a ring of `2^BUCKET_BITS` buckets, each `2^shift` ns wide;
//! an event at absolute time `at` within the wheel's horizon lands in
//! bucket `(at >> shift) & mask`. Buckets are plain unsorted `Vec`s —
//! insertion is push-to-back — except the *live* bucket (the one currently
//! being drained), which is kept sorted descending by `(at, seq)` so the
//! next entry is always `pop()` from the back. When rotation reaches a
//! bucket it is sorted once; entries that arrive for the live bucket while
//! it drains are placed by binary search. Sorting by the full `(at, seq)`
//! key is what lets FIFO survive rotation: two same-tick entries may enter
//! a bucket in any physical order, but the sort (and the sorted insert)
//! always restores ascending-seq draining, byte-identical to the heap.
//! Events beyond the horizon wait in the overflow heap and are promoted
//! into the ring as rotation exposes their epoch — always into the
//! *farthest* bucket, never the sorted live one, so a promotion can never
//! reorder entries already eligible to pop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Default bucket width: `2^11` ns ≈ 2 µs, about one MTU serialization at
/// 10 Gbps — so `TxDone` lands in the live or adjacent bucket.
pub const DEFAULT_SHIFT: u32 = 11;
/// Default ring size: `2^10` = 1024 buckets, giving a ~2.1 ms horizon that
/// covers propagation delays, ECN-scale queueing and most RTO timers.
pub const DEFAULT_BUCKET_BITS: u32 = 10;

/// One scheduled entry. `(at, seq)` is the total dispatch order; `ev` is
/// the engine's (or a test's) payload and never participates in ordering.
#[derive(Clone, Copy, Debug)]
pub struct QEntry<T> {
    /// Absolute dispatch time.
    pub at: SimTime,
    /// Globally monotone insertion number (the FIFO tie-break).
    pub seq: u64,
    /// Payload, carried untouched.
    pub ev: T,
}

impl<T> PartialEq for QEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for QEntry<T> {}
impl<T> PartialOrd for QEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QEntry<T> {
    // Inverted: the *earliest* (time, seq) is the greatest entry, so a
    // max-`BinaryHeap` pops it first and an ascending sort lays a bucket
    // out back-to-front for `Vec::pop` draining.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered event queue: entries pop in ascending `(at, seq)`.
///
/// `peek_key` takes `&mut self` because the calendar queue may rotate its
/// wheel to locate the minimum; implementations must never let a peek
/// change the subsequent pop order.
pub trait EventQueue<T: Copy> {
    /// Insert an entry. Keys are expected unique and (per the engine's
    /// contract) never earlier than the last popped time; the calendar
    /// queue tolerates earlier keys via an O(n) rewind.
    fn push(&mut self, entry: QEntry<T>);
    /// Remove and return the entry with the smallest `(at, seq)`.
    fn pop(&mut self) -> Option<QEntry<T>>;
    /// The smallest `(at, seq)` without removing its entry.
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;
    /// Entries currently queued.
    fn len(&self) -> usize;
    /// Whether no entries are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `BinaryHeap` implementation: O(log n) push/pop, O(1) peek. Kept as
/// the differential-testing oracle; tests select it via
/// [`crate::Simulator::set_queue_kind`].
pub struct HeapQueue<T> {
    heap: BinaryHeap<QEntry<T>>,
}

impl<T: Copy> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new() }
    }
}

impl<T: Copy> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> EventQueue<T> for HeapQueue<T> {
    // simlint: hot-path
    fn push(&mut self, entry: QEntry<T>) {
        self.heap.push(entry);
    }

    fn pop(&mut self) -> Option<QEntry<T>> {
        self.heap.pop()
    }
    // simlint: hot-path-end

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The calendar-queue implementation: O(1) insert for events within the
/// wheel's horizon, amortized-cheap pops, and a heap overflow tier for
/// far-future events. See the module docs for the layout and the argument
/// that the `(time, seq)` FIFO tie-break survives rotation.
pub struct CalendarQueue<T> {
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// `n_buckets - 1` (ring size is a power of two).
    mask: u64,
    /// The ring. Only the live bucket (`buckets[cur]`) is sorted
    /// (descending by `(at, seq)`, drained from the back).
    buckets: Vec<Vec<QEntry<T>>>,
    /// Index of the live bucket.
    cur: usize,
    /// Absolute start time of the live bucket (multiple of the width).
    wheel_time: u64,
    /// Entries across all ring buckets (excludes overflow).
    wheel_len: usize,
    /// Events at or beyond `wheel_time + span`, promoted as rotation
    /// exposes their epoch.
    overflow: BinaryHeap<QEntry<T>>,
    /// Total entries (ring + overflow).
    len: usize,
}

impl<T: Copy> CalendarQueue<T> {
    /// A calendar queue with the default geometry (2 µs × 1024 buckets).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_BUCKET_BITS)
    }

    /// A calendar queue with `2^bucket_bits` buckets of `2^shift` ns.
    /// Small geometries are useful in tests to force rotation, overflow
    /// promotion and empty-wheel jumps on short schedules.
    pub fn with_geometry(shift: u32, bucket_bits: u32) -> Self {
        assert!(bucket_bits >= 1, "calendar queue needs at least two buckets");
        assert!(shift + bucket_bits < 63, "calendar span must fit in a u64");
        let n = 1usize << bucket_bits;
        CalendarQueue {
            shift,
            mask: (n - 1) as u64,
            buckets: (0..n).map(|_| Vec::new()).collect(),
            cur: 0,
            wheel_time: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    fn width(&self) -> u64 {
        1u64 << self.shift
    }

    fn span(&self) -> u64 {
        (self.mask + 1) << self.shift
    }

    /// First absolute time *not* representable in the ring.
    fn horizon(&self) -> u64 {
        self.wheel_time.saturating_add(self.span())
    }

    fn bucket_of(&self, at: u64) -> usize {
        ((at >> self.shift) & self.mask) as usize
    }

    /// Rotate (or jump) the wheel until the live bucket is non-empty,
    /// sorting it on entry. Returns false when the queue is empty. Never
    /// pops, so peeking through this cannot change the dispatch order.
    // simlint: hot-path
    fn seek(&mut self) -> bool {
        if !self.buckets[self.cur].is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        loop {
            if self.wheel_len == 0 {
                // Ring drained: jump straight to the overflow minimum's
                // bucket instead of rotating through empty epochs.
                let at = self.overflow.peek().expect("len > 0 with an empty ring").at.0; // simlint: allow(panic_hygiene)
                self.wheel_time = (at >> self.shift) << self.shift;
                self.cur = self.bucket_of(at);
                self.promote();
            } else {
                self.cur = (self.cur + 1) & (self.mask as usize);
                self.wheel_time += self.width();
                self.promote();
            }
            if !self.buckets[self.cur].is_empty() {
                // Entering the bucket: one sort re-establishes descending
                // (at, seq); the FIFO tie-break holds however entries were
                // physically appended or promoted.
                self.buckets[self.cur].sort_unstable();
                return true;
            }
        }
    }

    /// Move every overflow entry whose epoch is now inside the horizon
    /// into the ring. Called on each rotation step (where promotions land
    /// only in the newly exposed farthest bucket) and after a jump (where
    /// the live bucket is sorted afterwards by `seek`).
    fn promote(&mut self) {
        let horizon = self.horizon();
        while self.overflow.peek().is_some_and(|e| e.at.0 < horizon) {
            let e = self.overflow.pop().expect("peeked entry must pop"); // simlint: allow(panic_hygiene)
            let b = self.bucket_of(e.at.0);
            self.buckets[b].push(e);
            self.wheel_len += 1;
        }
    }
    // simlint: hot-path-end

    /// Re-anchor the wheel at `at`'s bucket after a push earlier than
    /// `wheel_time` (possible only when a peek rotated past a stop point,
    /// e.g. a `max_time` run limit, and the caller then scheduled from an
    /// earlier `now`). O(ring) but off every hot path.
    fn rewind(&mut self, at: u64) {
        let mut stash: Vec<QEntry<T>> = Vec::with_capacity(self.wheel_len);
        for b in &mut self.buckets {
            stash.append(b);
        }
        self.wheel_len = 0;
        self.wheel_time = (at >> self.shift) << self.shift;
        self.cur = self.bucket_of(at);
        let horizon = self.horizon();
        for e in stash {
            if e.at.0 >= horizon {
                self.overflow.push(e);
            } else {
                let b = self.bucket_of(e.at.0);
                self.buckets[b].push(e);
                self.wheel_len += 1;
            }
        }
        self.buckets[self.cur].sort_unstable();
    }
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> EventQueue<T> for CalendarQueue<T> {
    // simlint: hot-path
    fn push(&mut self, entry: QEntry<T>) {
        let at = entry.at.0;
        if at < self.wheel_time {
            self.rewind(at);
        }
        if at >= self.horizon() {
            self.overflow.push(entry);
        } else {
            let b = self.bucket_of(at);
            if b == self.cur {
                // The live bucket stays sorted descending: binary-insert.
                let v = &mut self.buckets[b];
                let key = (entry.at, entry.seq);
                let pos = v.partition_point(|e| (e.at, e.seq) > key);
                v.insert(pos, entry);
            } else {
                self.buckets[b].push(entry);
            }
            self.wheel_len += 1;
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<QEntry<T>> {
        if !self.seek() {
            return None;
        }
        let e = self.buckets[self.cur].pop().expect("seek guarantees a live entry"); // simlint: allow(panic_hygiene)
        self.wheel_len -= 1;
        self.len -= 1;
        Some(e)
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.seek() {
            return None;
        }
        self.buckets[self.cur].last().map(|e| (e.at, e.seq))
    }
    // simlint: hot-path-end

    fn len(&self) -> usize {
        self.len
    }
}

/// Which [`EventQueue`] implementation a [`crate::Simulator`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The `BinaryHeap` oracle.
    Heap,
    /// The calendar queue / timing wheel (the default).
    Calendar,
}

/// Static dispatch over the two implementations — the engine stores this
/// so the per-event cost is one branch, not a vtable call.
pub enum Queue<T> {
    /// A [`HeapQueue`].
    Heap(HeapQueue<T>),
    /// A [`CalendarQueue`].
    Calendar(CalendarQueue<T>),
}

impl<T: Copy> Queue<T> {
    /// An empty queue of the given kind (default geometry for calendar).
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => Queue::Heap(HeapQueue::new()),
            QueueKind::Calendar => Queue::Calendar(CalendarQueue::new()),
        }
    }

    /// The kind of the active implementation.
    pub fn kind(&self) -> QueueKind {
        match self {
            Queue::Heap(_) => QueueKind::Heap,
            Queue::Calendar(_) => QueueKind::Calendar,
        }
    }

    // simlint: hot-path
    /// See [`EventQueue::push`].
    #[inline]
    pub fn push(&mut self, entry: QEntry<T>) {
        match self {
            Queue::Heap(q) => q.push(entry),
            Queue::Calendar(q) => q.push(entry),
        }
    }

    /// See [`EventQueue::pop`].
    #[inline]
    pub fn pop(&mut self) -> Option<QEntry<T>> {
        match self {
            Queue::Heap(q) => q.pop(),
            Queue::Calendar(q) => q.pop(),
        }
    }

    /// See [`EventQueue::peek_key`].
    #[inline]
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self {
            Queue::Heap(q) => q.peek_key(),
            Queue::Calendar(q) => q.peek_key(),
        }
    }
    // simlint: hot-path-end

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        match self {
            Queue::Heap(q) => q.len(),
            Queue::Calendar(q) => q.len(),
        }
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Copy> EventQueue<T> for Queue<T> {
    fn push(&mut self, entry: QEntry<T>) {
        Queue::push(self, entry);
    }
    fn pop(&mut self) -> Option<QEntry<T>> {
        Queue::pop(self)
    }
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        Queue::peek_key(self)
    }
    fn len(&self) -> usize {
        Queue::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn e(at: u64, seq: u64) -> QEntry<u32> {
        QEntry { at: SimTime(at), seq, ev: seq as u32 }
    }

    /// The geometries every differential test runs under: the engine
    /// default plus two tiny wheels that force rotation, overflow
    /// promotion and empty-wheel jumps even on nanosecond schedules.
    const GEOMETRIES: [(u32, u32); 3] = [(DEFAULT_SHIFT, DEFAULT_BUCKET_BITS), (4, 3), (1, 1)];

    /// Drive a randomized schedule through the heap oracle and a calendar
    /// queue in lockstep, checking every peek and pop agrees. Pushes obey
    /// the engine's contract: monotone `seq`, `at >=` last popped time.
    fn differential_run(shift: u32, bucket_bits: u32, seed: u64, ops: usize) {
        let mut oracle: HeapQueue<u32> = HeapQueue::new();
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(shift, bucket_bits);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut live = 0usize;
        for _ in 0..ops {
            let r = rng.next_u32() % 100;
            if r < 55 || live == 0 {
                // Push. Offset mixture: same-tick (the adversarial case —
                // see tests/determinism.rs tie-break goldens), near
                // (in-wheel), medium, and far (overflow on every geometry).
                let offset = match rng.next_u32() % 10 {
                    0..=2 => 0,
                    3..=6 => (rng.next_u32() % 4096) as u64,
                    7..=8 => (rng.next_u32() % (1 << 17)) as u64,
                    _ => (rng.next_u32() % (1 << 26)) as u64,
                };
                let entry = e(now + offset, seq);
                seq += 1;
                live += 1;
                oracle.push(entry);
                cal.push(entry);
            } else {
                assert_eq!(oracle.peek_key(), cal.peek_key(), "peek diverged (seed {seed})");
                let a = oracle.pop().expect("live > 0");
                let b = cal.pop().expect("oracle popped");
                assert_eq!((a.at, a.seq, a.ev), (b.at, b.seq, b.ev), "pop diverged (seed {seed})");
                now = a.at.0;
                live -= 1;
            }
            assert_eq!(oracle.len(), cal.len());
        }
        // Drain: the tails must agree entry for entry.
        while let Some(a) = oracle.pop() {
            let b = cal.pop().expect("calendar drained early");
            assert_eq!((a.at, a.seq, a.ev), (b.at, b.seq, b.ev), "drain diverged (seed {seed})");
        }
        assert!(cal.pop().is_none(), "calendar held extra entries");
    }

    /// Satellite: 10k randomized insert/pop/same-key sequences through
    /// both implementations must agree on every `(time, seq)` pop.
    #[test]
    fn randomized_schedules_pop_identically_across_implementations() {
        for (shift, bits) in GEOMETRIES {
            for seed in [1u64, 42, 7, 0xDEAD_BEEF] {
                differential_run(shift, bits, seed, 10_000);
            }
        }
    }

    /// The adversarial same-tick case: a burst of equal-time entries must
    /// drain in insertion (`seq`) order from both implementations, even
    /// when pops interleave with further same-tick pushes.
    #[test]
    fn same_tick_bursts_stay_fifo() {
        for (shift, bits) in GEOMETRIES {
            let mut oracle: HeapQueue<u32> = HeapQueue::new();
            let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(shift, bits);
            let at = 1_000_000u64;
            for s in 0..64u64 {
                oracle.push(e(at, s));
                cal.push(e(at, s));
            }
            // Interleave: pop half, push a second same-tick wave.
            for expect in 0..32u64 {
                assert_eq!(cal.pop().expect("entry").seq, expect);
                oracle.pop();
            }
            for s in 64..96u64 {
                oracle.push(e(at, s));
                cal.push(e(at, s));
            }
            for expect in 32..96u64 {
                let a = oracle.pop().expect("oracle entry");
                let b = cal.pop().expect("calendar entry");
                assert_eq!((a.seq, b.seq), (expect, expect), "FIFO broke at {expect}");
            }
            assert!(cal.is_empty());
        }
    }

    /// Far-future events sit in the overflow tier and must still come out
    /// in global order as the wheel rotates or jumps into their epoch.
    #[test]
    fn overflow_promotion_preserves_global_order() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(4, 3); // span 128 ns
        let mut keys: Vec<(u64, u64)> = Vec::new();
        // Alternate near and far pushes so promotions and jumps both fire.
        for s in 0..200u64 {
            let at = if s % 2 == 0 { s } else { 10_000 + 37 * s };
            cal.push(e(at, s));
            keys.push((at, s));
        }
        keys.sort_unstable();
        let mut got = Vec::new();
        while let Some(x) = cal.pop() {
            got.push((x.at.0, x.seq));
        }
        assert_eq!(got, keys);
    }

    /// A peek may rotate the wheel past a stop point; a later push from an
    /// earlier `now` (the resumed-run case) must rewind, not misfile.
    #[test]
    fn push_before_wheel_time_after_peek_rewinds() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(4, 3);
        cal.push(e(1_000_000, 0));
        // Rotating peek: jumps the wheel into the far event's epoch.
        assert_eq!(cal.peek_key(), Some((SimTime(1_000_000), 0)));
        // The engine stops at max_time=100 and a sampler schedules at 150.
        cal.push(e(150, 1));
        cal.push(e(150, 2));
        assert_eq!(cal.peek_key(), Some((SimTime(150), 1)));
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop()).map(|x| x.seq).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    /// The `Queue` wrapper dispatches to whichever kind it was built as.
    #[test]
    fn queue_wrapper_dispatches_to_its_kind() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q: Queue<u32> = Queue::new(kind);
            assert_eq!(q.kind(), kind);
            assert!(q.is_empty());
            q.push(e(5, 0));
            q.push(e(5, 1));
            q.push(e(3, 2));
            assert_eq!(q.len(), 3);
            assert_eq!(q.peek_key(), Some((SimTime(3), 2)));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|x| x.seq).collect();
            assert_eq!(order, vec![2, 0, 1]);
        }
    }
}
