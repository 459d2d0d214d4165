//! Shared transport machinery: byte-interval bookkeeping, timer tokens,
//! and the TCP-family RTO arm/service helpers.

use std::collections::BTreeMap;

use netsim::trace::SanCheck;
use netsim::{Ctx, Payload, SanNote, SimTime};

use crate::tcp_base::DctcpFlowTx;

/// A set of disjoint, coalesced half-open byte ranges `[start, end)`.
///
/// Used for receiver reassembly (which bytes arrived), sender scoreboards
/// (which bytes were SACKed) and the dual-loop "claimed" set (which bytes
/// either loop has transmitted at least once).
#[derive(Clone, Debug, Default)]
pub struct IntervalSet {
    // start -> end, non-overlapping, non-adjacent.
    ranges: BTreeMap<u64, u64>,
    covered: u64,
}

impl IntervalSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `[start, end)`, merging with neighbours. Returns how many
    /// previously-uncovered bytes became covered.
    // simlint: hot-path
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        if start >= end {
            return 0;
        }
        // Absorb every range that overlaps or touches [start, end), from
        // the last one starting at or before `end` downwards. Ranges are
        // disjoint and non-adjacent, so their ends rise with their starts:
        // the first one ending below `start` ends the walk, and one that
        // starts at or below `start` is the last that can reach it.
        let mut new_end = end;
        let mut absorbed_bytes = 0u64;
        while let Some((&s, e)) = self.ranges.range_mut(..=end).next_back() {
            if *e < start {
                break;
            }
            new_end = new_end.max(*e);
            if s <= start {
                // In-order progress: the range it lands in grows in place.
                let gained = new_end - *e - absorbed_bytes;
                *e = new_end;
                self.covered += gained;
                return gained;
            }
            absorbed_bytes += *e - s;
            self.ranges.remove(&s);
        }
        self.ranges.insert(start, new_end);
        let gained = (new_end - start) - absorbed_bytes;
        self.covered += gained;
        gained
    }
    // simlint: hot-path-end

    /// Total covered bytes.
    pub fn covered_bytes(&self) -> u64 {
        self.covered
    }

    /// Length of the contiguous covered prefix starting at 0.
    pub fn contiguous_prefix(&self) -> u64 {
        match self.ranges.first_key_value() {
            Some((&0, &e)) => e,
            _ => 0,
        }
    }

    /// True when `[0, size)` is fully covered.
    pub fn covers(&self, size: u64) -> bool {
        self.contiguous_prefix() >= size
    }

    /// Is `offset` covered?
    pub fn contains(&self, offset: u64) -> bool {
        self.ranges.range(..=offset).next_back().is_some_and(|(&s, &e)| s <= offset && offset < e)
    }

    /// The lowest uncovered range within `[from, limit)`, if any.
    pub fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
        if from >= limit {
            return None;
        }
        let mut cursor = from;
        // Extend cursor through any range covering it.
        if let Some((&s, &e)) = self.ranges.range(..=cursor).next_back() {
            if s <= cursor && cursor < e {
                cursor = e;
            }
        }
        while cursor < limit {
            match self.ranges.range(cursor..).next() {
                Some((&s, &e)) => {
                    if s > cursor {
                        return Some((cursor, s.min(limit)));
                    }
                    cursor = e;
                }
                None => return Some((cursor, limit)),
            }
        }
        None
    }

    /// The highest uncovered range within `[0, limit)`, if any.
    pub fn last_gap(&self, limit: u64) -> Option<(u64, u64)> {
        if limit == 0 {
            return None;
        }
        let mut cursor = limit;
        // Walk ranges from the top down.
        for (&s, &e) in self.ranges.range(..limit).rev() {
            if e >= cursor {
                // Range covers up to (or beyond) the cursor: skip below it.
                cursor = s;
                if cursor == 0 {
                    return None;
                }
                continue;
            }
            return Some((e, cursor));
        }
        if cursor > 0 {
            Some((0, cursor))
        } else {
            None
        }
    }

    /// Iterate covered ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }

    /// Number of disjoint ranges (diagnostics).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }
}

/// Timer token encoding: `[kind: 8][generation: 16][flow: 40]`.
///
/// Transports key timers by flow and kind; the generation implements lazy
/// cancellation (bump it and stale timers no longer match).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: u8,
    pub generation: u16,
    pub flow: u64,
}

impl Token {
    /// Pack into the u64 the engine carries.
    pub fn encode(self) -> u64 {
        debug_assert!(self.flow < (1 << 40), "flow id exceeds 40 bits");
        ((self.kind as u64) << 56) | ((self.generation as u64) << 40) | self.flow
    }

    /// Unpack.
    pub fn decode(raw: u64) -> Self {
        Token {
            kind: (raw >> 56) as u8,
            generation: ((raw >> 40) & 0xFFFF) as u16,
            flow: raw & ((1 << 40) - 1),
        }
    }
}

/// Timer kind shared by every TCP-family transport: the retransmission
/// timeout armed by [`arm_rto`] and serviced by [`service_rto`].
pub const TIMER_RTO: u8 = 1;

/// The RTO timer token for `flow`. The generation is always 0: a flow
/// tells its one live RTO timer from superseded ones by fire time
/// (`rto_timer_at`), not by token — see [`arm_rto`].
pub fn rto_token(flow: u64) -> u64 {
    Token { kind: TIMER_RTO, generation: 0, flow }.encode()
}

/// Sum window and in-flight bytes over an endpoint's senders that are
/// still running, for `Transport::cc_snapshot`. Each item pairs a flow's
/// [`DctcpFlowTx`] with the window bytes it holds outside it (an open LCP
/// loop's; 0 for a plain window).
pub(crate) fn cc_snapshot<'a>(
    flows: impl Iterator<Item = (&'a DctcpFlowTx, u64)>,
) -> netsim::CcSnapshot {
    let mut snap = netsim::CcSnapshot::default();
    for (tx, extra_window_bytes) in flows.filter(|(tx, _)| !tx.is_done()) {
        snap.cwnd_bytes += tx.cwnd_bytes() + extra_window_bytes;
        snap.inflight_bytes += tx.inflight_bytes();
        snap.flows += 1;
    }
    snap
}

/// simsan probe shared by [`arm_rto`] and [`service_rto`]: every live
/// TCP-family sender must hold a positive congestion window and only ever
/// advance its cumulative ACK. Queues ledger notes via [`Ctx::san_note`]
/// (one branch when the sanitizer is off); never schedules anything, so
/// sanitized runs stay byte-identical.
fn san_probe<P: Payload>(flow: &DctcpFlowTx, ctx: &mut Ctx<'_, P>) {
    if !ctx.sanitizing() {
        return;
    }
    if flow.cwnd_bytes() == 0 {
        ctx.san_note(SanNote::Violation {
            check: SanCheck::TransportConservation,
            flow: flow.id.0,
            expected: 1,
            actual: 0,
        });
    }
    ctx.san_note(SanNote::AckAdvance { flow: flow.id.0, cum_acked: flow.cum_acked() });
}

/// Schedule `flow`'s live RTO timer at its current deadline.
fn schedule_rto<P: Payload>(flow: &mut DctcpFlowTx, ctx: &mut Ctx<'_, P>) {
    // The engine fires a past-due timer at `now`; the flow must expect it there.
    flow.rto_timer_at = flow.rto_deadline().max(ctx.now());
    ctx.san_note(SanNote::RtoArm { flow: flow.id.0 });
    ctx.timer_at(flow.rto_timer_at, rto_token(flow.id.0));
}

/// Keep `flow`'s RTO timer armed. No-op for finished flows. Call after
/// every pump that may have started or moved the deadline.
///
/// A flow holds at most one *live* timer, the one firing at
/// `rto_timer_at`. Timers cannot be cancelled, so a deadline that moved
/// later (ACK progress) schedules nothing — the live timer re-sleeps when
/// it fires, in [`service_rto`] — and only a deadline that moved *earlier*
/// (an ACK resetting the back-off) schedules a new timer, which supersedes
/// the old one: that one's fire time no longer matches and is dropped.
pub fn arm_rto<P: Payload>(flow: &mut DctcpFlowTx, ctx: &mut Ctx<'_, P>) {
    if flow.is_done() {
        return;
    }
    san_probe(flow, ctx);
    if flow.rto_deadline() < flow.rto_timer_at {
        if flow.rto_timer_at != SimTime::MAX {
            ctx.san_note(SanNote::RtoDisarm { flow: flow.id.0 });
        }
        schedule_rto(flow, ctx);
    }
}

/// Service a fired RTO timer for `flow`: drop a superseded fire, ignore
/// the fire of a finished flow, go back to sleep (once) when the deadline
/// has moved later, and otherwise apply the timeout. Returns true when the
/// timeout fired — the caller must then pump the flow, which also re-arms
/// the timer.
pub fn service_rto<P: Payload>(flow: &mut DctcpFlowTx, ctx: &mut Ctx<'_, P>) -> bool {
    let now = ctx.now();
    if now != flow.rto_timer_at {
        return false;
    }
    flow.rto_timer_at = SimTime::MAX;
    ctx.san_note(SanNote::RtoDisarm { flow: flow.id.0 });
    if flow.is_done() {
        return false;
    }
    san_probe(flow, ctx);
    if now < flow.rto_deadline() {
        schedule_rto(flow, ctx);
        return false;
    }
    flow.on_rto(now);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rto_helpers_arm_filter_and_fire() {
        use crate::proto::AckHdr;
        use crate::tcp_base::TcpCfg;
        use netsim::host::Effects;
        use netsim::{FlowId, HostId, NoPayload, SimDuration};

        /// Run `f` against a fresh effects sink at `now`; the timers it armed.
        fn timers(now: SimTime, f: impl FnOnce(&mut Ctx<'_, NoPayload>)) -> Vec<(SimTime, u64)> {
            let mut fx = Effects::<NoPayload>::default();
            f(&mut Ctx::new(now, HostId(0), &mut fx));
            fx.into_parts().1
        }
        fn ack(cum: u64) -> AckHdr {
            AckHdr {
                cum,
                sacks: vec![],
                ece: false,
                lcp: false,
                ts_echo: SimTime::ZERO,
                int_echo: None,
            }
        }

        let cfg = TcpCfg::new(SimDuration::from_micros(80));
        let min_rto = cfg.min_rto;
        let tok = rto_token(3);
        let mut flow = DctcpFlowTx::new(FlowId(3), HostId(0), HostId(1), 1_000_000, cfg);
        // Sending arms the deadline.
        let first = flow.next_segment(SimTime::ZERO).expect("window open");
        let d0 = flow.rto_deadline();
        assert_eq!(d0, SimTime::ZERO + min_rto);

        // The first arm schedules the flow's one live timer at the deadline;
        // a second arm at an equal deadline schedules nothing.
        assert_eq!(timers(SimTime::ZERO, |ctx| arm_rto(&mut flow, ctx)), vec![(d0, tok)]);
        assert_eq!(timers(SimTime::ZERO, |ctx| arm_rto(&mut flow, ctx)), vec![]);
        // Nor does one at a later deadline (ACK progress pushed it out).
        let t1 = SimTime(50_000);
        flow.on_ack(&ack(first.offset + first.len as u64), t1);
        assert!(flow.next_segment(t1).is_some());
        let d1 = flow.rto_deadline();
        assert_eq!(d1, t1 + min_rto);
        assert_eq!(timers(t1, |ctx| arm_rto(&mut flow, ctx)), vec![]);

        // The live timer fires before the moved deadline: no timeout, and
        // it re-sleeps exactly once, until the deadline.
        let mut timed_out = true;
        let armed = timers(d0, |ctx| timed_out = service_rto(&mut flow, ctx));
        assert!(!timed_out);
        assert_eq!(flow.rto_deadline(), d1, "a stale fire must not touch the flow");
        assert_eq!(armed, vec![(d1, tok)]);

        // At the deadline the live timer takes the timeout and backs the
        // deadline off; the caller is told to pump, which re-arms.
        let armed = timers(d1, |ctx| timed_out = service_rto(&mut flow, ctx));
        assert!(timed_out && armed.is_empty());
        let retx = flow.next_segment(d1).expect("the timeout queued a retransmission");
        let d2 = flow.rto_deadline();
        assert_eq!(d2, d1 + min_rto + min_rto, "timeout must back the deadline off");
        assert_eq!(timers(d1, |ctx| arm_rto(&mut flow, ctx)), vec![(d2, tok)]);

        // ACK progress resets the back-off, so the deadline moves *earlier*:
        // one new timer, which supersedes the one sleeping until d2.
        let t3 = SimTime(d1.0 + 1_000);
        flow.on_ack(&ack(retx.offset + retx.len as u64), t3);
        assert!(flow.next_segment(t3).is_some());
        let d3 = flow.rto_deadline();
        assert!(d3 < d2);
        assert_eq!(timers(t3, |ctx| arm_rto(&mut flow, ctx)), vec![(d3, tok)]);
        let armed = timers(d3, |ctx| timed_out = service_rto(&mut flow, ctx));
        assert!(timed_out && armed.is_empty());
        let d4 = flow.rto_deadline();
        assert_eq!(timers(d3, |ctx| arm_rto(&mut flow, ctx)), vec![(d4, tok)]);
        // The superseded fire is dropped: no timeout, no re-sleep.
        assert!(d3 < d2 && d2 < d4);
        let armed = timers(d2, |ctx| timed_out = service_rto(&mut flow, ctx));
        assert!(!timed_out && armed.is_empty());
        assert_eq!(flow.rto_deadline(), d4);
    }

    #[test]
    fn rto_token_layout_is_stable() {
        let t = Token::decode(rto_token((1 << 40) - 1));
        assert_eq!(t, Token { kind: TIMER_RTO, generation: 0, flow: (1 << 40) - 1 });
    }

    #[test]
    fn insert_and_coalesce() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(0, 10), 10);
        assert_eq!(s.insert(20, 30), 10);
        assert_eq!(s.range_count(), 2);
        // Bridge the gap: coalesces to one range.
        assert_eq!(s.insert(10, 20), 10);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.contiguous_prefix(), 30);
        assert_eq!(s.covered_bytes(), 30);
    }

    #[test]
    fn overlapping_insert_counts_only_new_bytes() {
        let mut s = IntervalSet::new();
        s.insert(0, 100);
        assert_eq!(s.insert(50, 150), 50);
        assert_eq!(s.insert(0, 150), 0);
        assert_eq!(s.covered_bytes(), 150);
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(20, 30);
        assert_eq!(s.range_count(), 1);
        assert!(s.contains(10) && s.contains(29) && !s.contains(30) && !s.contains(9));
    }

    #[test]
    fn first_gap_walks_holes() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(s.first_gap(0, 100), Some((0, 10)));
        assert_eq!(s.first_gap(10, 100), Some((20, 30)));
        assert_eq!(s.first_gap(35, 100), Some((40, 100)));
        assert_eq!(s.first_gap(15, 18), None);
        s.insert(0, 10);
        assert_eq!(s.first_gap(0, 100), Some((20, 30)));
    }

    #[test]
    fn first_gap_respects_limit() {
        let mut s = IntervalSet::new();
        s.insert(0, 10);
        assert_eq!(s.first_gap(0, 10), None);
        assert_eq!(s.first_gap(0, 15), Some((10, 15)));
    }

    #[test]
    fn last_gap_finds_highest_hole() {
        let mut s = IntervalSet::new();
        assert_eq!(s.last_gap(100), Some((0, 100)));
        s.insert(90, 100);
        assert_eq!(s.last_gap(100), Some((0, 90)));
        s.insert(50, 60);
        assert_eq!(s.last_gap(100), Some((60, 90)));
        s.insert(60, 90);
        assert_eq!(s.last_gap(100), Some((0, 50)));
        s.insert(0, 50);
        assert_eq!(s.last_gap(100), None);
    }

    #[test]
    fn last_gap_with_range_straddling_limit() {
        let mut s = IntervalSet::new();
        s.insert(40, 200);
        assert_eq!(s.last_gap(100), Some((0, 40)));
        assert_eq!(s.last_gap(40), Some((0, 40)));
        assert_eq!(s.last_gap(30), Some((0, 30)));
    }

    #[test]
    fn covers_needs_contiguity_from_zero() {
        let mut s = IntervalSet::new();
        s.insert(1, 100);
        assert!(!s.covers(100));
        s.insert(0, 1);
        assert!(s.covers(100));
    }

    #[test]
    fn token_roundtrip() {
        let t = Token { kind: 3, generation: 65535, flow: (1 << 40) - 1 };
        assert_eq!(Token::decode(t.encode()), t);
        let z = Token { kind: 0, generation: 0, flow: 0 };
        assert_eq!(Token::decode(z.encode()), z);
    }

    /// Insert `[start, end)` into both the set and its byte-per-slot twin,
    /// checking `insert`'s return value and the fragment count.
    fn insert_both(s: &mut IntervalSet, brute: &mut [bool], start: u64, end: u64, what: &str) {
        let fresh = brute[start as usize..end as usize].iter().filter(|&&b| !b).count();
        brute[start as usize..end as usize].fill(true);
        assert_eq!(s.insert(start, end), fresh as u64, "{what}: bytes gained by [{start}, {end})");
        let runs = (0..brute.len()).filter(|&i| brute[i] && (i == 0 || !brute[i - 1])).count();
        assert_eq!(s.range_count(), runs, "{what}: fragments after [{start}, {end})");
    }

    /// Covered bytes always equals the brute-force union size, and gaps
    /// returned never overlap covered ranges. Deterministic seeded sweep.
    #[test]
    fn interval_set_matches_brute_force_seeded() {
        for seed in 0..32u64 {
            let mut rng = netsim::Pcg32::seed_from_u64(seed);
            let mut s = IntervalSet::new();
            let mut brute = vec![false; 300];
            for _ in 0..rng.gen_index(40) {
                let start = rng.gen_range(200);
                let len = 1 + rng.gen_range(49);
                insert_both(&mut s, &mut brute, start, start + len, &format!("seed {seed}"));
            }
            let expect = brute.iter().filter(|&&b| b).count() as u64;
            assert_eq!(s.covered_bytes(), expect, "seed {seed}");
            let prefix = brute.iter().take_while(|&&b| b).count() as u64;
            assert_eq!(s.contiguous_prefix(), prefix, "seed {seed}");
            // first_gap over the whole domain agrees with brute force.
            let gap = s.first_gap(0, 300);
            let brute_gap_start = brute.iter().position(|&b| !b).map(|i| i as u64);
            assert_eq!(gap.map(|g| g.0), brute_gap_start, "seed {seed}");
            // last_gap end agrees with brute force.
            let lgap = s.last_gap(300);
            let brute_lgap_end = brute.iter().rposition(|&b| !b).map(|i| i as u64 + 1);
            assert_eq!(lgap.map(|g| g.1), brute_lgap_end, "seed {seed}");
        }
    }

    /// `insert` on heavily fragmented sets (a tail-first sender's `claimed`
    /// and `acked`): the return value and the fragment count agree with
    /// brute force for random spans and for every way of touching an
    /// existing fragment.
    #[test]
    fn insert_matches_brute_force_on_fragmented_sets_seeded() {
        for seed in 0..4u64 {
            let what = format!("seed {seed}");
            let mut rng = netsim::Pcg32::seed_from_u64(seed);
            let mut s = IntervalSet::new();
            let mut brute = vec![false; 8_200];
            // 1 600 two-byte fragments on a four-byte pitch, in random order.
            let mut slots: Vec<u64> = (0..1_600).collect();
            while !slots.is_empty() {
                let at = 100 + 4 * slots.swap_remove(rng.gen_index(slots.len()));
                insert_both(&mut s, &mut brute, at, at + 2, &what);
            }
            assert!(s.range_count() >= 1_000, "{what}: {} fragments", s.range_count());
            for _ in 0..400 {
                let (fs, fe) = s.iter().nth(rng.gen_index(s.range_count())).expect("nth < count");
                let (below, above) = (1 + rng.gen_range(40), 1 + rng.gen_range(40));
                let (start, end) = match rng.gen_index(6) {
                    0 => (fe, fe + above),                       // start == e
                    1 => (fs.saturating_sub(below), fs),         // end == s
                    2 => (fs, fe),                               // exact duplicate
                    3 => (fs.saturating_sub(below), fe + above), // superset, maybe of several
                    4 => (fs + 1, fe + above),                   // overlaps from inside
                    _ => {
                        let start = rng.gen_range(8_000);
                        (start, start + 1 + rng.gen_range(150))
                    }
                };
                insert_both(&mut s, &mut brute, start, end, &what);
            }
            assert_eq!(s.covered_bytes(), brute.iter().filter(|&&b| b).count() as u64, "{what}");
        }
    }

    /// contains() agrees with brute force at every point.
    #[test]
    fn contains_matches_brute_force_seeded() {
        for seed in 0..32u64 {
            let mut rng = netsim::Pcg32::seed_from_u64(seed);
            let mut s = IntervalSet::new();
            let mut brute = [false; 130];
            for _ in 0..rng.gen_index(20) {
                let start = rng.gen_range(100);
                let len = 1 + rng.gen_range(19);
                s.insert(start, start + len);
                for slot in brute.iter_mut().take((start + len) as usize).skip(start as usize) {
                    *slot = true;
                }
            }
            let probe = rng.gen_range(120);
            assert_eq!(s.contains(probe), brute[probe as usize], "seed {seed} probe {probe}");
        }
    }
}
