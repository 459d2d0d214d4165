//! Shared transport machinery: byte-interval bookkeeping, the per-endpoint
//! flow table, timer tokens, and the TCP-family RTO arm/service helpers.

use netsim::trace::SanCheck;
use netsim::{Ctx, FlowId, Payload, SanNote, SimTime};

use crate::tcp_base::DctcpFlowTx;

/// A set of disjoint, coalesced half-open byte ranges `[start, end)`.
///
/// Used for receiver reassembly (which bytes arrived), sender scoreboards
/// (which bytes were SACKed) and the dual-loop "claimed" set (which bytes
/// either loop has transmitted at least once).
///
/// A flow goes out head-first on its primary loop and tail-first on its
/// opportunistic one, so a set is a block growing up from byte 0, at most
/// a block growing down from the end, and the odd hole a loss leaves. The
/// block at 0 is a field; the rest is a sorted vector that an in-order
/// flow never allocates and that almost every insert touches at one end.
#[derive(Clone, Debug, Default)]
pub struct IntervalSet {
    /// `[0, prefix)` is covered; 0 when byte 0 is not.
    prefix: u64,
    /// The ranges above the prefix, ascending: disjoint, non-adjacent, and
    /// the first one starts beyond `prefix`.
    ranges: Vec<(u64, u64)>,
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
        let gained = if start <= self.prefix {
            self.grow_prefix(end)
        } else {
            self.insert_above(start, end)
        };
        self.covered += gained;
        gained
    }

    /// Extend the prefix to `end`, swallowing every range that reaches.
    fn grow_prefix(&mut self, end: u64) -> u64 {
        if end <= self.prefix {
            return 0;
        }
        let reached = self.ranges.iter().take_while(|&&(s, _)| s <= end).count();
        let mut new_end = end;
        let mut absorbed = 0;
        for (s, e) in self.ranges.drain(..reached) {
            absorbed += e - s;
            new_end = new_end.max(e);
        }
        let gained = new_end - self.prefix - absorbed;
        self.prefix = new_end;
        gained
    }

    /// Insert a range that starts beyond the prefix. Ranges are disjoint
    /// and non-adjacent, so their ends rise with their starts: those that
    /// overlap or touch `[start, end)` are consecutive, from the first one
    /// ending at or after `start` to the last one starting at or before
    /// `end`, and they collapse into the first of them. A flow's two loops
    /// each grow one range in place — in order the top one up, tail first
    /// the bottom one down — so those are tried before the search (without
    /// the second, the tail-first kernel reads 12.4 ns an insert, not 5.2).
    fn insert_above(&mut self, start: u64, end: u64) -> u64 {
        let ranges = &mut self.ranges;
        if let Some((s, e)) = ranges.last_mut() {
            if *s <= start && start <= *e {
                // In-order progress: the top range grows in place.
                let gained = end.saturating_sub(*e);
                *e += gained;
                return gained;
            }
        }
        if let Some((s, e)) = ranges.first_mut() {
            if start < *s && *s <= end && end <= *e {
                // Tail-first progress: the bottom range grows down in place.
                let gained = *s - start;
                *s = start;
                return gained;
            }
        }
        let lo = ranges.partition_point(|&(_, e)| e < start);
        let hi = lo + ranges[lo..].partition_point(|&(s, _)| s <= end);
        if lo == hi {
            ranges.insert(lo, (start, end));
            return end - start;
        }
        let merged = (start.min(ranges[lo].0), end.max(ranges[hi - 1].1));
        let absorbed: u64 = ranges[lo..hi].iter().map(|&(s, e)| e - s).sum();
        ranges[lo] = merged;
        if hi - lo > 1 {
            ranges.drain(lo + 1..hi);
        }
        merged.1 - merged.0 - absorbed
    }
    // simlint: hot-path-end

    /// Total covered bytes.
    pub fn covered_bytes(&self) -> u64 {
        self.covered
    }

    /// Length of the contiguous covered prefix starting at 0.
    pub fn contiguous_prefix(&self) -> u64 {
        self.prefix
    }

    /// True when `[0, size)` is fully covered.
    pub fn covers(&self, size: u64) -> bool {
        self.prefix >= size
    }

    /// Is `offset` covered?
    pub fn contains(&self, offset: u64) -> bool {
        offset < self.prefix || {
            let above = self.ranges.partition_point(|&(s, _)| s <= offset);
            above > 0 && offset < self.ranges[above - 1].1
        }
    }

    /// The lowest uncovered range within `[from, limit)`, if any.
    pub fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
        let mut cursor = from.max(self.prefix);
        // The first range ending above the cursor either covers it — the
        // gap then opens at that range's end, and the next range closes it
        // — or lies wholly above and closes the gap the cursor opens.
        let mut at = self.ranges.partition_point(|&(_, e)| e <= cursor);
        if let Some(&(s, e)) = self.ranges.get(at) {
            if s <= cursor {
                cursor = e;
                at += 1;
            }
        }
        if cursor >= limit {
            return None;
        }
        let gap_end = self.ranges.get(at).map_or(limit, |&(s, _)| s.min(limit));
        Some((cursor, gap_end))
    }

    /// The highest uncovered range within `[0, limit)`, if any.
    pub fn last_gap(&self, limit: u64) -> Option<(u64, u64)> {
        let mut cursor = limit;
        // The ranges starting below the limit, from the top down: only the
        // highest can reach the cursor, and the gap then ends where it starts.
        let mut below = self.ranges.partition_point(|&(s, _)| s < limit);
        if below > 0 && self.ranges[below - 1].1 >= cursor {
            cursor = self.ranges[below - 1].0;
            below -= 1;
        }
        let gap_start = if below > 0 { self.ranges[below - 1].1 } else { self.prefix };
        (gap_start < cursor).then_some((gap_start, cursor))
    }

    /// Iterate covered ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let head = (self.prefix > 0).then_some((0, self.prefix));
        head.into_iter().chain(self.ranges.iter().copied())
    }

    /// Number of disjoint ranges (diagnostics).
    pub fn range_count(&self) -> usize {
        (self.prefix > 0) as usize + self.ranges.len()
    }
}

/// One role's per-flow state at an endpoint (its senders, or its
/// receivers): a dense slab of `T`, found through an index of the *live*
/// flows sorted by id.
///
/// An endpoint [`retire`](FlowTable::retire)s a flow the moment it can
/// prove the state inert, so the index holds the flows in progress — a
/// handful, however many the run offers — and a lookup is a binary search
/// of a few cache lines plus one slab probe. Freed slots are reused, so the
/// slab's length is the high-water mark of concurrency. Flow ids arrive
/// almost in ascending order (the engine numbers flows by start time), so
/// an insert is normally an append. Iteration is ascending by id — the
/// order of the ordered map this replaced, so nothing that walks a table
/// (`cc_snapshot`, Homa's grant pass) can tell the difference.
///
/// What must outlive a flow (a *tombstone*: whatever answers a late packet
/// the way the full state did) goes in a second table that is never
/// retired from; DESIGN.md "Flow-state lifetime" lists each endpoint's.
#[derive(Debug)]
pub struct FlowTable<T> {
    /// `(id, slot)` of every live flow, ascending by id.
    index: Vec<(FlowId, usize)>,
    /// `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Free slots; the last one freed is the next one filled.
    free: Vec<usize>,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        FlowTable { index: Vec::new(), slots: Vec::new(), free: Vec::new() }
    }
}

/// Occupancy of a [`FlowTable`]: entries now, and the most it ever held
/// at once (its slab never shrinks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    pub live: usize,
    pub high_water: usize,
}

impl<T> FlowTable<T> {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current and peak occupancy.
    pub fn stats(&self) -> TableStats {
        TableStats { live: self.index.len(), high_water: self.slots.len() }
    }

    // simlint: hot-path
    /// Where `id` sits in the index, or where it would be inserted.
    fn position(&self, id: FlowId) -> Result<usize, usize> {
        match self.index.last() {
            Some(&(last, _)) if last < id => Err(self.index.len()),
            _ => self.index.binary_search_by_key(&id, |&(k, _)| k),
        }
    }

    /// Is `id` in the table?
    pub fn contains(&self, id: FlowId) -> bool {
        self.position(id).is_ok()
    }

    /// `id`'s state.
    pub fn get(&self, id: FlowId) -> Option<&T> {
        let at = self.position(id).ok()?;
        self.slots[self.index[at].1].as_ref()
    }

    /// `id`'s state, mutably.
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        let at = self.position(id).ok()?;
        self.slots[self.index[at].1].as_mut()
    }

    /// Add `id` (replacing its state if it is already here) and hand the
    /// stored state back.
    pub fn insert(&mut self, id: FlowId, value: T) -> &mut T {
        let slot = match self.position(id) {
            Ok(at) => self.index[at].1,
            Err(at) => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    self.slots.len() - 1
                });
                self.index.insert(at, (id, slot));
                slot
            }
        };
        self.slots[slot].insert(value)
    }

    /// Take `id` out of the table, freeing its slot for the next flow.
    pub fn retire(&mut self, id: FlowId) -> Option<T> {
        let at = self.position(id).ok()?;
        let (_, slot) = self.index.remove(at);
        self.free.push(slot);
        self.slots[slot].take()
    }
    // simlint: hot-path-end

    /// Every flow with its state, ascending by flow id.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> + '_ {
        self.index.iter().filter_map(|&(id, slot)| Some((id, self.slots[slot].as_ref()?)))
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

/// Sum window and in-flight bytes over an endpoint's senders (its table
/// holds only the running ones), for `Transport::cc_snapshot`. Each item
/// pairs a flow's [`DctcpFlowTx`] with the window bytes it holds outside
/// it (an open LCP loop's; 0 for a plain window).
pub(crate) fn cc_snapshot<'a>(
    flows: impl Iterator<Item = (&'a DctcpFlowTx, u64)>,
) -> netsim::CcSnapshot {
    let mut snap = netsim::CcSnapshot::default();
    for (tx, extra_window_bytes) in flows {
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

/// Give up a finished sender's live RTO timer, for the endpoint that is
/// about to retire it from its [`FlowTable`]: the timer cannot be
/// cancelled, so it still fires, finds no flow, and is dropped — the
/// simsan ledger hears of the disarm now, not then.
pub fn release_rto<P: Payload>(flow: &DctcpFlowTx, ctx: &mut Ctx<'_, P>) {
    debug_assert!(flow.is_done(), "only a finished sender is retired");
    if flow.rto_timer_at != SimTime::MAX {
        ctx.san_note(SanNote::RtoDisarm { flow: flow.id.0 });
    }
}

/// A scratch [`Ctx`] for driving one endpoint handler at a time — traced
/// and sanitizing, so a test sees every effect a handler can have.
#[cfg(test)]
pub(crate) mod testkit {
    use netsim::host::Effects;
    use netsim::trace::MemorySink;
    use netsim::{Ctx, FlowId, HostId, Packet, SanNote, SimTime, TraceEvent};
    use netsim::{RunLimits, RunReport, SimDuration, Simulator, StopReason};

    use crate::proto::{AckHdr, Proto};

    /// Everything one handler call did.
    #[derive(Debug)]
    pub(crate) struct Did {
        pub packets: Vec<Packet<Proto>>,
        pub timers: Vec<(SimTime, u64)>,
        pub completed: Vec<FlowId>,
        pub notes: Vec<SanNote>,
        pub trace: Vec<TraceEvent>,
    }

    impl Did {
        /// The call had no effect at all.
        pub(crate) fn nothing(&self) -> bool {
            self.packets.is_empty()
                && self.timers.is_empty()
                && self.completed.is_empty()
                && self.notes.is_empty()
                && self.trace.is_empty()
        }

        /// The ACK headers among the packets sent.
        pub(crate) fn acks(&self) -> Vec<AckHdr> {
            let ack = |p: &Packet<Proto>| match &p.payload {
                Proto::Ack(a) => Some(a.clone()),
                _ => None,
            };
            self.packets.iter().filter_map(ack).collect()
        }

        /// Flows whose RTO timer the call told simsan it disarmed.
        pub(crate) fn rto_disarms(&self) -> Vec<u64> {
            let disarm = |n: &SanNote| match n {
                SanNote::RtoDisarm { flow } => Some(*flow),
                _ => None,
            };
            self.notes.iter().filter_map(disarm).collect()
        }
    }

    /// Run `f` as the engine would run a handler of `host` at `now`.
    pub(crate) fn drive(now: SimTime, host: HostId, f: impl FnOnce(&mut Ctx<'_, Proto>)) -> Did {
        let mut fx = Effects::<Proto>::default();
        let mut sink = MemorySink::new();
        f(&mut Ctx::with_trace(now, host, &mut fx, Some(&mut sink)).with_sanitizer(true));
        let notes = fx.san_notes().to_vec();
        let (packets, timers, completed) = fx.into_parts();
        let trace = sink.into_events().into_iter().map(|(_, ev)| ev).collect();
        Did { packets, timers, completed, notes, trace }
    }

    /// Run `sim` for at most `max_time` of simulated time and `max_events`
    /// events, asserting that it stopped because every flow was done: a
    /// sender that never falls silent runs into the bound and fails the
    /// test, where an unbounded run would spin forever.
    pub(crate) fn run_done(
        sim: &mut Simulator<Proto>,
        max_time: SimDuration,
        max_events: u64,
    ) -> RunReport {
        let report = sim.run(RunLimits { max_time: SimTime(max_time.as_nanos()), max_events });
        assert_eq!(report.stop, StopReason::AllFlowsDone, "the run hit its bound: {report:?}");
        report
    }

    /// The ACK a receiver on `from` sends `flow`'s sender on `to`.
    pub(crate) fn ack(flow: u64, (from, to): (u32, u32), cum: u64, lcp: bool) -> Packet<Proto> {
        let (sacks, ts_echo) = ([(0, cum)].into(), SimTime::ZERO);
        let hdr = AckHdr { cum, sacks, ece: false, lcp, ts_echo, int_echo: None };
        Packet::ctrl(FlowId(flow), HostId(from), HostId(to), Proto::Ack(hdr))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// Every lookup, insert and retire of a seeded random sequence agrees
    /// with an ordered-map model, iteration included; ids arrive mostly
    /// ascending with stragglers, as flow ids do.
    #[test]
    fn flow_table_matches_an_ordered_map_model_seeded() {
        for seed in 0..8u64 {
            let mut rng = netsim::Pcg32::seed_from_u64(seed);
            let mut table = FlowTable::<u64>::new();
            let mut model = BTreeMap::<FlowId, u64>::new();
            let mut next_id = 0u64;
            let mut peak = 0;
            for step in 0..4_000u64 {
                // A probe id near the live ones: hits and misses both.
                let near =
                    |rng: &mut netsim::Pcg32| FlowId(next_id.saturating_sub(rng.gen_range(40)));
                // Hold the population near a concurrency of a few dozen.
                let grow = model.len() < 16 + rng.gen_index(48);
                match rng.gen_index(8) {
                    // Insert: usually the next id up, sometimes an older one
                    // (out of order, or one that is in the table already).
                    0..=3 if grow => {
                        let id =
                            if rng.gen_index(4) == 0 { near(&mut rng) } else { FlowId(next_id) };
                        next_id += 1;
                        assert_eq!(*table.insert(id, step), step, "seed {seed}: insert hands back");
                        model.insert(id, step);
                    }
                    // Retire: a live flow, or (4) a guess that may miss.
                    op @ 0..=4 => {
                        let live = model.keys().nth(rng.gen_index(model.len().max(1))).copied();
                        let id = live.filter(|_| op < 4).unwrap_or_else(|| near(&mut rng));
                        assert_eq!(
                            table.retire(id),
                            model.remove(&id),
                            "seed {seed}: retire {id:?}"
                        );
                    }
                    5 => {
                        let id = near(&mut rng);
                        if let Some(v) = table.get_mut(id) {
                            *v += 1;
                        }
                        if let Some(v) = model.get_mut(&id) {
                            *v += 1;
                        }
                    }
                    _ => {
                        let id = near(&mut rng);
                        assert_eq!(table.get(id), model.get(&id), "seed {seed}: get {id:?}");
                        assert_eq!(table.contains(id), model.contains_key(&id), "seed {seed}");
                    }
                }
                peak = peak.max(model.len());
                assert_eq!(table.stats().live, model.len(), "seed {seed} step {step}");
                assert!(
                    table.iter().eq(model.iter().map(|(&id, v)| (id, v))),
                    "seed {seed} step {step}"
                );
            }
            // Freed slots were reused: the slab never outgrew the most
            // flows held at once, far below the ids it has seen.
            let stats = table.stats();
            assert_eq!(stats, TableStats { live: model.len(), high_water: peak }, "seed {seed}");
            assert!(peak <= 64 && next_id > 500, "seed {seed}: peak {peak} of {next_id} ids");
        }
    }

    #[test]
    fn flow_table_takes_ids_in_any_order_and_reuses_the_last_freed_slot() {
        let mut t = FlowTable::new();
        for id in [5u64, 9, 2, 7] {
            t.insert(FlowId(id), id * 10);
        }
        assert_eq!(t.iter().map(|(_, &v)| v).collect::<Vec<_>>(), vec![20, 50, 70, 90]);
        assert_eq!(t.retire(FlowId(5)), Some(50));
        assert_eq!(t.retire(FlowId(5)), None);
        assert_eq!(t.get(FlowId(5)), None);
        t.insert(FlowId(1), 10);
        assert_eq!(t.stats(), TableStats { live: 4, high_water: 4 });
        assert_eq!(t.iter().map(|(_, &v)| v).collect::<Vec<_>>(), vec![10, 20, 70, 90]);
        // Inserting an id that is already live replaces its state in place.
        t.insert(FlowId(7), 71);
        assert_eq!((t.get(FlowId(7)), t.stats().live), (Some(&71), 4));
    }

    #[test]
    fn rto_helpers_arm_filter_and_fire() {
        use crate::dctcp::DctcpLaw;
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
                sacks: [].into(),
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
        let mut law = DctcpLaw::new(&flow);
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
        flow.on_ack(&ack(first.offset + first.len as u64), t1, &mut law);
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
        flow.on_ack(&ack(retx.offset + retx.len as u64), t3, &mut law);
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

    /// The ordered-map byte set `IntervalSet` was before it became a prefix
    /// and a sorted vector, kept as the model of the differential test below.
    #[derive(Default)]
    struct MapSet {
        // start -> end, non-overlapping, non-adjacent.
        ranges: BTreeMap<u64, u64>,
        covered: u64,
    }

    impl MapSet {
        fn insert(&mut self, start: u64, end: u64) -> u64 {
            if start >= end {
                return 0;
            }
            let mut new_end = end;
            let mut absorbed_bytes = 0u64;
            while let Some((&s, e)) = self.ranges.range_mut(..=end).next_back() {
                if *e < start {
                    break;
                }
                new_end = new_end.max(*e);
                if s <= start {
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

        fn contiguous_prefix(&self) -> u64 {
            match self.ranges.first_key_value() {
                Some((&0, &e)) => e,
                _ => 0,
            }
        }

        fn contains(&self, offset: u64) -> bool {
            self.ranges
                .range(..=offset)
                .next_back()
                .is_some_and(|(&s, &e)| s <= offset && offset < e)
        }

        fn first_gap(&self, from: u64, limit: u64) -> Option<(u64, u64)> {
            if from >= limit {
                return None;
            }
            let mut cursor = from;
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

        fn last_gap(&self, limit: u64) -> Option<(u64, u64)> {
            if limit == 0 {
                return None;
            }
            let mut cursor = limit;
            for (&s, &e) in self.ranges.range(..limit).rev() {
                if e >= cursor {
                    cursor = s;
                    if cursor == 0 {
                        return None;
                    }
                    continue;
                }
                return Some((e, cursor));
            }
            Some((0, cursor))
        }
    }

    /// Every accessor agrees with the ordered-map model after every one of
    /// 4 000 inserts per seed, drawn from the shapes transports produce —
    /// in-order appends, tail-first prepends, retransmitted duplicates —
    /// and the ones they could: overlaps, exact adjacency on either side,
    /// and spans that swallow several ranges (or all of them) at once.
    #[test]
    fn interval_set_matches_the_ordered_map_model_seeded() {
        const SPAN: u64 = 60_000;
        for seed in 0..8u64 {
            let mut rng = netsim::Pcg32::seed_from_u64(seed);
            let (mut set, mut model) = (IntervalSet::new(), MapSet::default());
            // The head-first and tail-first frontiers of the current "flow".
            let (mut head, mut tail) = (0u64, SPAN);
            let (mut swallowed_many, mut most_ranges) = (0, 0);
            for step in 0..4_000 {
                let what = format!("seed {seed} step {step}");
                if head >= tail || set.covers(SPAN) || (seed % 2 == 1 && step % 1_000 == 999) {
                    // The flow is over (or, on odd seeds, now and then):
                    // start the next one on an empty pair.
                    (set, model) = (IntervalSet::new(), MapSet::default());
                    (head, tail) = (0, SPAN);
                }
                let len = 1 + rng.gen_range(40);
                let nth = |rng: &mut netsim::Pcg32, set: &IntervalSet| {
                    set.iter().nth(rng.gen_index(set.range_count().max(1)))
                };
                let (start, end) = match rng.gen_index(10) {
                    // In order: extends the prefix, or leaves a hole below.
                    0..=2 => {
                        let start =
                            head + if rng.gen_index(8) == 0 { rng.gen_range(30) } else { 0 };
                        head = start + len;
                        (start, head)
                    }
                    // Tail first, sometimes skipping a little.
                    3..=4 => {
                        let end =
                            tail - (rng.gen_index(8) == 0) as u64 * rng.gen_range(30).min(tail);
                        tail = end.saturating_sub(len);
                        (tail, end)
                    }
                    // Anywhere between the two frontiers.
                    5 => {
                        let start = head + rng.gen_range(tail - head);
                        (start, start + len)
                    }
                    // Around an existing range: adjacent above, adjacent
                    // below, a duplicate, an overlap from inside.
                    6..=7 => match nth(&mut rng, &set) {
                        Some((s, e)) => match rng.gen_index(4) {
                            0 => (e, e + len),
                            1 => (s.saturating_sub(len), s),
                            2 => (s, e),
                            _ => (s + (e - s) / 2, e + len),
                        },
                        None => (0, len),
                    },
                    // A span from inside one range to inside another a few
                    // further up, swallowing those between.
                    8 => {
                        let from = rng.gen_index(set.range_count().max(1));
                        let mut reach = set.iter().skip(from).take(1 + rng.gen_index(4));
                        match (reach.next(), reach.last()) {
                            (Some((s, _)), Some((_, e))) => (s + 1, e - 1),
                            (Some((s, e)), None) => (s + (e - s) / 2, e),
                            _ => (0, len),
                        }
                    }
                    // Fill the lowest hole.
                    _ => set.first_gap(0, SPAN).unwrap_or((0, 1)),
                };
                let before = set.range_count();
                assert_eq!(set.insert(start, end), model.insert(start, end), "{what}: insert");
                swallowed_many += (before >= set.range_count() + 2) as u32;
                most_ranges = most_ranges.max(set.range_count());

                assert!(set.iter().eq(model.ranges.iter().map(|(&s, &e)| (s, e))), "{what}");
                assert_eq!(set.range_count(), model.ranges.len(), "{what}");
                assert_eq!(set.covered_bytes(), model.covered, "{what}");
                assert_eq!(set.contiguous_prefix(), model.contiguous_prefix(), "{what}");
                // Probes at the edges of what was inserted and at random.
                let probes = [
                    0,
                    start.saturating_sub(1),
                    start,
                    end.saturating_sub(1),
                    end,
                    rng.gen_range(SPAN),
                ];
                for p in probes {
                    assert_eq!(set.contains(p), model.contains(p), "{what}: contains {p}");
                    assert_eq!(set.covers(p), model.contiguous_prefix() >= p, "{what}: covers {p}");
                    assert_eq!(set.last_gap(p), model.last_gap(p), "{what}: last_gap {p}");
                    for limit in [end, p + len, SPAN] {
                        assert_eq!(
                            set.first_gap(p, limit),
                            model.first_gap(p, limit),
                            "{what}: first_gap {p}..{limit}"
                        );
                    }
                }
            }
            assert!(
                swallowed_many > 20 && most_ranges >= 8,
                "seed {seed}: {swallowed_many} multi-range merges, {most_ranges} ranges at most"
            );
        }
    }
}
