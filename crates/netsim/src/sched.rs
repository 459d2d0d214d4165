//! The event-queue core: one totally-ordered schedule keyed by `(time, seq)`.
//!
//! The engine dispatches every event through a single queue whose pop order
//! *is* the determinism contract: entries come out in ascending `(at, seq)`,
//! where `seq` is the globally monotone insertion number the engine assigns
//! in [`crate::Simulator`]'s `schedule`. [`CalendarQueue`] is that queue: a
//! timing wheel whose cost follows the number of events, not the rate of
//! the links behind them. Two oracles hold it to the contract:
//!
//! * in this file's tests, a `BinaryHeap` reference (`HeapQueue`, whose
//!   correctness is a one-liner: heap property + inverted [`Ord`] on
//!   [`QEntry`]) runs every randomized and scripted schedule in lockstep;
//! * at run time, simsan ([`crate::sanitizer`]) shadows every pushed key and
//!   requires each pop to be the least of them (`SanCheck::EventOrder`).
//!
//! # Layout of the calendar queue
//!
//! A ring of `2^bucket_bits` buckets, each `2^shift` ns wide; an event at
//! `at` inside the horizon belongs to bucket `(at >> shift) & mask`.
//!
//! * **Ring.** Every ring entry is a `{QEntry, next}` node in *one slab*
//!   with a free list; a bucket is the `u32` head of an unsorted LIFO list,
//!   so a push is two stores and the ring's memory is its peak occupancy.
//!   One bit per bucket says which lists are non-empty: leaving a drained
//!   bucket is a `trailing_zeros` to the next occupied one, however many
//!   empty ones lie between.
//! * **Live bucket.** On arrival a bucket's list is unlinked into `live`, a
//!   reusable `Vec` kept *ascending* and read through a cursor. A push into
//!   the live bucket's window is inserted in order; the usual one — later
//!   than everything queued — is a tail `push`.
//! * **Overflow.** Events at or beyond the horizon wait in a `BinaryHeap`
//!   and are promoted into the ring as the wheel advances.
//!
//! **Why FIFO survives.** Nothing pops except from `live`, and `live` is
//! ordered by the full `(at, seq)` key: sorted once when loaded (the list is
//! reversed first, so the sort sees arrival order, which is nearly
//! ascending) and kept sorted by every later insert. Same-tick entries may
//! lie in a list in any physical order and may have come through different
//! tiers; the sort restores ascending `seq`, the order a heap pops in.
//!
//! **Why one promotion per jump is enough.** An overflow entry is at or
//! beyond the horizon it was refused at, and the horizon only grows, so all
//! of them lie after every ring entry. Jumping from bucket `c` at `t` to the
//! next occupied bucket `c'` at `t'` makes `[t + span, t' + span)`
//! representable — buckets `c .. c'`, the ones just skipped, now a turn
//! ahead, never `c'` itself. One `promote` after the jump files exactly
//! what stepping bucket by bucket would have.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Default bucket width: `2^8` ns, two MTU serializations at 100 Gbps.
/// Narrow buckets keep `live` short on fast links, which is what the sort
/// and the in-order insert cost; the bitmap makes the buckets this leaves
/// empty at 10 Gbps (an MTU is 1.2 µs there) free.
pub const DEFAULT_SHIFT: u32 = 8;
/// Default ring size: `2^13` buckets — the ~2.1 ms horizon of the 2 µs ×
/// 1 024 wheel this replaced, so propagation, queueing and most RTO timers
/// stay in the ring and the overflow tier sees the entries it always saw.
pub const DEFAULT_BUCKET_BITS: u32 = 13;

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

impl<T> QEntry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for QEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
    // max-`BinaryHeap` pops it first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// What [`EventQueue::pop_due`] found at the front of the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Due<T> {
    /// The front entry, removed: it is due at or before the limit.
    Entry(QEntry<T>),
    /// The front entry is later than the limit; it stays queued.
    Later,
    /// Nothing is queued.
    Empty,
}

/// A time-ordered event queue: entries pop in ascending `(at, seq)`.
///
/// `peek_key` takes `&mut self` because the calendar queue may advance its
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
    /// Remove and return the front entry unless it is later than
    /// `max_time`: the run loop's peek-then-pop as one call.
    fn pop_due(&mut self, max_time: SimTime) -> Due<T> {
        match self.peek_key() {
            None => Due::Empty,
            Some((at, _)) if at > max_time => Due::Later,
            Some(_) => self.pop().map_or(Due::Empty, Due::Entry),
        }
    }
}

/// End of a bucket list / of the free list.
const NIL: u32 = u32::MAX;

/// A ring entry in the slab: on a bucket's list, or on the free list.
struct Node<T> {
    entry: QEntry<T>,
    next: u32,
}

/// The calendar queue: O(1) insert for events within the wheel's horizon,
/// a pop that costs the same however many buckets lie empty, and a heap
/// overflow tier for far-future events. Layout and the argument that the
/// `(time, seq)` FIFO tie-break survives: module docs.
pub struct CalendarQueue<T> {
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// `n_buckets - 1` (ring size is a power of two).
    mask: u64,
    /// Per bucket, the slab index of its list's first node (`NIL` = empty).
    /// The live bucket's list is always empty: its entries are in `live`.
    heads: Vec<u32>,
    /// One bit per bucket: set iff `heads[b] != NIL`.
    occupied: Vec<u64>,
    /// Every ring node, and the head of the free list threaded through
    /// them. Grows only when that list is empty, so its length is the peak
    /// number of entries the bucket lists ever held at once.
    slab: Vec<Node<T>>,
    free: u32,
    /// The live bucket's entries, ascending; `live[cursor..]` are queued.
    live: Vec<QEntry<T>>,
    cursor: usize,
    /// Index of the live bucket.
    cur: usize,
    /// Absolute start time of the live bucket (multiple of the width).
    wheel_time: u64,
    /// Entries on bucket lists (excludes `live` and overflow).
    wheel_len: usize,
    /// Events at or beyond the horizon, promoted as the wheel advances.
    overflow: BinaryHeap<QEntry<T>>,
}

impl<T: Copy> CalendarQueue<T> {
    /// A calendar queue with the default geometry (256 ns × 8 192 buckets).
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
            heads: vec![NIL; n],
            occupied: vec![0; n.div_ceil(64)],
            slab: Vec::new(),
            free: NIL,
            live: Vec::new(),
            cursor: 0,
            cur: 0,
            wheel_time: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// First absolute time *not* representable in the ring.
    fn horizon(&self) -> u64 {
        self.wheel_time.saturating_add((self.mask + 1) << self.shift)
    }

    fn bucket_of(&self, at: u64) -> usize {
        ((at >> self.shift) & self.mask) as usize
    }

    /// Make `at`'s bucket the live one.
    fn anchor(&mut self, at: u64) {
        self.wheel_time = (at >> self.shift) << self.shift;
        self.cur = self.bucket_of(at);
    }

    // simlint: hot-path
    /// Put `entry` at the head of bucket `b`'s list.
    fn link(&mut self, b: usize, entry: QEntry<T>) {
        let node = Node { entry, next: self.heads[b] };
        let i = self.free;
        if i == NIL {
            assert!(self.slab.len() < NIL as usize, "calendar queue slab is full");
            self.heads[b] = self.slab.len() as u32;
            self.slab.push(node);
        } else {
            self.free = std::mem::replace(&mut self.slab[i as usize], node).next;
            self.heads[b] = i;
        }
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.wheel_len += 1;
    }

    /// Insert into the live bucket, keeping `live[cursor..]` ascending.
    fn insert_live(&mut self, entry: QEntry<T>) {
        let key = entry.key();
        if self.live.last().is_none_or(|e| e.key() < key) {
            self.live.push(entry);
        } else {
            let pos = self.live[self.cursor..].partition_point(|e| e.key() < key);
            self.live.insert(self.cursor + pos, entry);
        }
    }

    /// The first occupied bucket after the live one, in ring order. The
    /// live bucket's own bit is clear, so with `wheel_len > 0` the scan
    /// ends within one turn.
    fn next_occupied(&self) -> usize {
        let from = (self.cur + 1) & self.mask as usize;
        let mut w = from >> 6;
        let mut bits = self.occupied[w] & (!0u64 << (from & 63));
        while bits == 0 {
            w = (w + 1) & (self.occupied.len() - 1);
            bits = self.occupied[w];
        }
        (w << 6) | bits.trailing_zeros() as usize
    }

    /// Advance (or jump) the wheel until the live bucket has an unread
    /// entry. Returns false when the queue is empty. Never pops, so peeking
    /// through this cannot change the dispatch order.
    fn seek(&mut self) -> bool {
        if self.cursor < self.live.len() {
            return true;
        }
        self.live.clear();
        self.cursor = 0;
        if self.wheel_len == 0 {
            // Ring drained: jump straight to the overflow minimum's bucket
            // instead of turning through empty epochs.
            let Some(min) = self.overflow.peek() else { return false };
            self.anchor(min.at.0);
        } else {
            let b = self.next_occupied();
            let steps = (b.wrapping_sub(self.cur) as u64) & self.mask;
            self.wheel_time += steps << self.shift;
            self.cur = b;
            self.load();
        }
        self.promote();
        true
    }

    /// Unlink the live bucket's list into `live` (empty on entry) and put
    /// it in `(at, seq)` order. The list is newest-first; reversing it
    /// hands the sort the order of arrival, which is ascending or nearly.
    fn load(&mut self) {
        let b = self.cur;
        let mut i = std::mem::replace(&mut self.heads[b], NIL);
        self.occupied[b >> 6] &= !(1 << (b & 63));
        while i != NIL {
            let node = &mut self.slab[i as usize];
            self.live.push(node.entry);
            // The node moves from the bucket's list to the free list.
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = i;
            i = next;
        }
        self.wheel_len -= self.live.len();
        if self.live.len() > 1 {
            self.live.reverse();
            self.live.sort_unstable_by_key(QEntry::key);
        }
    }

    /// Move every overflow entry the horizon has reached into the ring.
    /// After an advance they land in the buckets just passed, never the
    /// live one (module docs). After a jump onto the overflow minimum the
    /// first of them are the live bucket's: those go straight to `live`,
    /// which is empty then, in the heap's pop order — ascending.
    fn promote(&mut self) {
        let horizon = self.horizon();
        while self.overflow.peek().is_some_and(|e| e.at.0 < horizon) {
            let e = self.overflow.pop().expect("peeked entry must pop"); // simlint: allow(panic_hygiene)
            match self.bucket_of(e.at.0) {
                b if b == self.cur => self.live.push(e),
                b => self.link(b, e),
            }
        }
    }
    // simlint: hot-path-end

    /// Re-anchor the wheel at `at`'s bucket after a push earlier than
    /// `wheel_time` (possible only when a peek advanced past a stop point,
    /// e.g. a `max_time` run limit, and the caller then scheduled from an
    /// earlier `now`). O(ring) but off every hot path.
    fn rewind(&mut self, at: u64) {
        let mut stash: Vec<QEntry<T>> = self.live.drain(self.cursor..).collect();
        for head in &mut self.heads {
            let mut i = std::mem::replace(head, NIL);
            while i != NIL {
                stash.push(self.slab[i as usize].entry);
                i = self.slab[i as usize].next;
            }
        }
        self.occupied.fill(0);
        self.slab.clear();
        self.free = NIL;
        self.wheel_len = 0;
        self.live.clear();
        self.cursor = 0;
        self.anchor(at);
        for e in stash {
            self.push(e);
        }
    }

    /// The key of every queued entry, in no particular order: simsan seeds
    /// its shadow of the queue from this when installed mid-run.
    pub(crate) fn keys(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let link = |i: u32| (i != NIL).then_some(i);
        let ring = self.heads.iter().flat_map(move |&head| {
            std::iter::successors(link(head), move |&i| link(self.slab[i as usize].next))
        });
        let unread = self.live[self.cursor..].iter().chain(self.overflow.iter());
        unread.map(QEntry::key).chain(ring.map(|i| self.slab[i as usize].entry.key()))
    }
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> EventQueue<T> for CalendarQueue<T> {
    // simlint: hot-path
    #[inline(always)] // into the engine's `schedule` and `push_tx_done`
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
                self.insert_live(entry);
            } else {
                self.link(b, entry);
            }
        }
    }

    fn pop(&mut self) -> Option<QEntry<T>> {
        self.seek().then(|| {
            self.cursor += 1;
            self.live[self.cursor - 1]
        })
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.seek().then(|| self.live[self.cursor].key())
    }

    fn pop_due(&mut self, max_time: SimTime) -> Due<T> {
        if !self.seek() {
            return Due::Empty;
        }
        let e = self.live[self.cursor];
        if e.at > max_time {
            return Due::Later;
        }
        self.cursor += 1;
        Due::Entry(e)
    }
    // simlint: hot-path-end

    fn len(&self) -> usize {
        self.wheel_len + (self.live.len() - self.cursor) + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    /// The reference implementation every test here holds the calendar
    /// queue to: a `BinaryHeap`, correct by the heap property and the
    /// inverted [`Ord`] on [`QEntry`].
    struct HeapQueue<T> {
        heap: BinaryHeap<QEntry<T>>,
    }

    impl<T: Copy> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new() }
        }
    }

    impl<T: Copy> EventQueue<T> for HeapQueue<T> {
        fn push(&mut self, entry: QEntry<T>) {
            self.heap.push(entry);
        }

        fn pop(&mut self) -> Option<QEntry<T>> {
            self.heap.pop()
        }

        fn peek_key(&mut self) -> Option<(SimTime, u64)> {
            self.heap.peek().map(QEntry::key)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    fn e(at: u64, seq: u64) -> QEntry<u32> {
        QEntry { at: SimTime(at), seq, ev: seq as u32 }
    }

    /// The geometries every differential test runs under: the engine
    /// default, the 2 µs × 1 024 wheel it replaced, and two tiny wheels that
    /// force rotation, overflow promotion and empty-wheel jumps even on
    /// nanosecond schedules.
    const GEOMETRIES: [(u32, u32); 4] =
        [(DEFAULT_SHIFT, DEFAULT_BUCKET_BITS), (11, 10), (4, 3), (1, 1)];

    fn same(a: QEntry<u32>, b: QEntry<u32>) -> bool {
        (a.at, a.seq, a.ev) == (b.at, b.seq, b.ev)
    }

    /// Nodes on the calendar queue's free list.
    fn free_nodes(cal: &CalendarQueue<u32>) -> usize {
        let link = |i: u32| (i != NIL).then_some(i);
        std::iter::successors(link(cal.free), |&i| link(cal.slab[i as usize].next)).count()
    }

    /// Drive a randomized schedule through the heap oracle and a calendar
    /// queue in lockstep, checking every peek and pop agrees. Pushes obey
    /// the engine's contract: unique `seq`, key later than the last popped
    /// one — including keys *reserved* earlier and pushed late, as
    /// `push_tx_done` does. With `limits`, some pops are `pop_due` against
    /// a stop time (the oracle through the trait's default), and a `Later`
    /// that advanced the wheel makes the next push rewind. Without, the
    /// slab must end as large as the ring's peak occupancy and all free.
    fn differential_run(shift: u32, bucket_bits: u32, seed: u64, ops: usize, limits: bool) {
        let mut oracle: HeapQueue<u32> = HeapQueue::new();
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(shift, bucket_bits);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut last = (0u64, 0u64); // the last popped key
        let mut seq = 1u64;
        let mut live = 0usize;
        let mut peak = 0usize;
        let mut reserved: Vec<(u64, u64)> = Vec::new();
        // Offset mixture: same-tick (the adversarial case — see
        // tests/determinism.rs tie-break goldens), near (in-wheel), medium,
        // and far (overflow on every geometry).
        let offset = |rng: &mut Pcg32| match rng.next_u32() % 10 {
            0..=2 => 0,
            3..=6 => (rng.next_u32() % 4096) as u64,
            7..=8 => (rng.next_u32() % (1 << 17)) as u64,
            _ => (rng.next_u32() % (1 << 26)) as u64,
        };
        for _ in 0..ops {
            let r = rng.next_u32() % 100;
            if r < 8 {
                // Reserve a key now, to be pushed after later-minted ones.
                reserved.push((last.0 + (rng.next_u32() % 4096) as u64, seq));
                seq += 1;
            } else if r < 16 && !reserved.is_empty() {
                let (at, s) = reserved.swap_remove(rng.next_u32() as usize % reserved.len());
                if (at, s) > last {
                    oracle.push(e(at, s));
                    cal.push(e(at, s));
                    live += 1;
                }
            } else if r < 58 || live == 0 {
                let entry = e(last.0 + offset(&mut rng), seq);
                seq += 1;
                live += 1;
                oracle.push(entry);
                cal.push(entry);
            } else if limits && r < 70 {
                let limit = SimTime(last.0 + offset(&mut rng));
                let (a, b) = (oracle.pop_due(limit), cal.pop_due(limit));
                match (a, b) {
                    (Due::Entry(a), Due::Entry(b)) => {
                        assert!(same(a, b), "pop_due diverged (seed {seed})");
                        last = (a.at.0, a.seq);
                        live -= 1;
                    }
                    _ => assert_eq!((a, b), (Due::Later, Due::Later), "pop_due (seed {seed})"),
                }
            } else {
                assert_eq!(oracle.peek_key(), cal.peek_key(), "peek diverged (seed {seed})");
                let a = oracle.pop().expect("live > 0");
                let b = cal.pop().expect("oracle popped");
                assert!(same(a, b), "pop diverged (seed {seed})");
                last = (a.at.0, a.seq);
                live -= 1;
            }
            assert_eq!(oracle.len(), cal.len());
            peak = peak.max(cal.wheel_len);
        }
        // Drain: the tails must agree entry for entry.
        while let Some(a) = oracle.pop() {
            let b = cal.pop().expect("calendar drained early");
            assert!(same(a, b), "drain diverged (seed {seed})");
            peak = peak.max(cal.wheel_len);
        }
        assert!(cal.pop().is_none(), "calendar held extra entries");
        assert_eq!(cal.pop_due(SimTime::MAX), Due::Empty);
        assert_eq!((cal.wheel_len, free_nodes(&cal)), (0, cal.slab.len()), "a node leaked");
        if !limits {
            assert_eq!(cal.slab.len(), peak, "ring memory is its peak occupancy (seed {seed})");
        }
    }

    /// 10k randomized insert/pop/same-key sequences through both
    /// implementations must agree on every `(time, seq)` pop.
    #[test]
    fn randomized_schedules_pop_identically_across_implementations() {
        for (shift, bits) in GEOMETRIES {
            for seed in [1u64, 42, 7, 0xDEAD_BEEF] {
                differential_run(shift, bits, seed, 10_000, false);
                differential_run(shift, bits, seed, 10_000, true);
            }
        }
    }

    /// The same at 1 M operations per schedule; `scripts/check.sh` runs it
    /// in `--release`.
    #[test]
    #[ignore = "long form: seconds in --release, run by scripts/check.sh"]
    fn randomized_schedules_pop_identically_at_a_million_ops() {
        for (shift, bits) in GEOMETRIES {
            differential_run(shift, bits, 21, 1_000_000, false);
            differential_run(shift, bits, 22, 1_000_000, true);
        }
    }

    /// One step of a [`lockstep`] script: push the key `(at, seq)`, or pop
    /// that many entries.
    enum Step {
        Push(u64, u64),
        Pop(usize),
    }
    use Step::{Pop, Push};

    /// Run `script` through both queues on every geometry; every pop and
    /// the final drain must agree.
    fn lockstep(script: &[Step]) {
        for (shift, bits) in GEOMETRIES {
            let mut oracle: HeapQueue<u32> = HeapQueue::new();
            let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(shift, bits);
            for step in script {
                match *step {
                    Push(at, seq) => {
                        oracle.push(e(at, seq));
                        cal.push(e(at, seq));
                    }
                    Pop(n) => {
                        for _ in 0..n {
                            assert_eq!(oracle.peek_key(), cal.peek_key());
                            assert_eq!(oracle.pop().map(|x| x.seq), cal.pop().map(|x| x.seq));
                        }
                    }
                }
                assert_eq!(oracle.len(), cal.len());
            }
            while let Some(a) = oracle.pop() {
                assert_eq!(Some(a.seq), cal.pop().map(|x| x.seq), "geometry ({shift}, {bits})");
            }
            assert!(cal.is_empty());
        }
    }

    /// What `push_tx_done` does: a key minted before entries that are
    /// already queued, pushed into the bucket being drained — for the tick
    /// being dispatched (between its queued neighbours by `seq`) and for an
    /// earlier tick than queued ones.
    #[test]
    fn reserved_keys_sort_before_entries_already_queued() {
        let t = 1_000_000;
        lockstep(&[
            Push(t, 1),
            Push(t, 4),
            Push(t, 5),
            Push(t + 30, 7),
            Push(t + 90, 8),
            Pop(1),          // (t, 1) dispatches; the bucket is live
            Push(t, 2),      // same tick, ahead of 4 and 5
            Push(t + 20, 3), // earlier tick than 7, smaller seq than 4
            Push(t + 30, 6), // same tick as 7, ahead of it
            Pop(2),
            Push(t + 90, 0), // ahead of everything left at t + 90
        ]);
    }

    /// A bucket whose last entry has popped is still the live one until the
    /// next seek; a push into its window must be read before anything later.
    #[test]
    fn push_into_a_drained_live_bucket_is_found() {
        lockstep(&[Push(5, 0), Pop(1), Push(7, 1), Push(300, 2), Pop(1), Push(7, 3)]);
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

    /// One promotion per jump: the wheel leaps from bucket 0 to bucket 6
    /// over empty buckets, and the overflow entries the new horizon admits
    /// are filed into the buckets it skipped, one turn ahead.
    #[test]
    fn promotion_lands_in_the_buckets_a_jump_skipped() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(4, 3); // 8 × 16 ns
        let keys = [(0, 0), (100, 1), (130, 2), (150, 3), (200, 4), (215, 5), (230, 6)];
        for (at, s) in keys {
            cal.push(e(at, s));
        }
        assert_eq!((cal.wheel_len, cal.overflow.len()), (1, 5));
        assert_eq!(cal.pop().map(|x| x.seq), Some(0));
        assert_eq!(cal.pop().map(|x| x.seq), Some(1));
        // Live bucket 6 at 96 ns, horizon 224: buckets 0, 1, 4, 5 filled.
        assert_eq!((cal.cur, cal.wheel_time, cal.overflow.len()), (6, 96, 1));
        assert_eq!(cal.occupied[0], 0b0011_0011);
        let rest: Vec<u64> = std::iter::from_fn(|| cal.pop()).map(|x| x.seq).collect();
        assert_eq!(rest, vec![2, 3, 4, 5, 6]);
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

    /// A rewind must carry over the unread part of a half-drained live
    /// bucket, and only that part.
    #[test]
    fn rewind_keeps_the_unread_half_of_the_live_bucket() {
        lockstep(&[
            Push(1_000, 0),
            Push(1_001, 1),
            Push(1_001, 2),
            Push(1_100, 3),
            Push(90_000_000, 4),
            Pop(2),
            Push(50, 5), // before the wheel: rewind with one live entry unread
            Push(1_001, 6),
        ]);
    }

    /// The engine's queue and the reference agree through every trait
    /// method on one script: a same-time pair and an earlier key pushed
    /// after it, drained by `pop_due` up to the pair's time, then by `pop`.
    #[test]
    fn queue_wrapper_dispatches_to_its_kind() {
        let (mut heap, mut cal) = (HeapQueue::new(), CalendarQueue::new());
        let queues: [&mut dyn EventQueue<u32>; 2] = [&mut heap, &mut cal];
        let orders = queues.map(|q| {
            assert!(q.is_empty());
            for x in [e(5, 0), e(5, 1), e(3, 2), e(9, 3)] {
                q.push(x);
            }
            assert_eq!((q.len(), q.peek_key()), (4, Some((SimTime(3), 2))));
            let mut order = Vec::new();
            while let Due::Entry(x) = q.pop_due(SimTime(5)) {
                order.push(x.seq);
            }
            assert_eq!(q.pop_due(SimTime(5)), Due::Later);
            order.extend(q.pop().map(|x| x.seq));
            assert_eq!(q.pop_due(SimTime::MAX), Due::Empty);
            order
        });
        assert_eq!(orders, [vec![2, 0, 1, 3], vec![2, 0, 1, 3]]);
    }

    /// `keys()` names every queued entry once, wherever it waits: the
    /// unread part of the live bucket, a bucket list, or the overflow heap.
    #[test]
    fn keys_lists_every_tier() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::with_geometry(4, 3); // span 128 ns
        for (at, s) in [(0, 0), (1, 1), (20, 2), (40, 3), (5_000, 4)] {
            cal.push(e(at, s));
        }
        cal.pop();
        let mut keys: Vec<u64> = cal.keys().map(|(_, s)| s).collect();
        keys.sort_unstable();
        assert_eq!((keys, cal.len()), (vec![1, 2, 3, 4], 4));
    }
}
