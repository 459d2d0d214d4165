//! The reliability engine every TCP-family sender runs: [`DctcpFlowTx`]
//! (segmentation, SACK scoreboard, fast retransmit, RTO, and the byte
//! ledgers PPT's low-priority loop claims tail segments from). How the
//! window reacts to an ACK is a [`WindowLaw`], kept in its scheme's file
//! (DCTCP's, which TCP-10 and Halfback share, in `dctcp.rs`).

use std::collections::VecDeque;

use netsim::{FlowId, HostId, SimDuration, SimTime};
use ppt_core::WmaxTracker;

use crate::common::IntervalSet;
use crate::proto::AckHdr;

/// TCP-family configuration.
#[derive(Clone, Debug)]
pub struct TcpCfg {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Initial congestion window, bytes (TCP-10-era default: 10 MSS).
    pub init_cwnd_bytes: u64,
    /// Base round-trip time (Swift's decrease interval, per-RTT ticks, τ).
    pub base_rtt: SimDuration,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// Hard congestion-window cap, bytes.
    pub max_cwnd_bytes: u64,
    /// Duplicate-SACK threshold for fast retransmit.
    pub dupack_threshold: u8,
}

impl TcpCfg {
    /// Sensible defaults for a given base RTT (IW = 10 MSS, RTOmin 10 ms —
    /// the paper's testbed setting).
    pub fn new(base_rtt: SimDuration) -> Self {
        TcpCfg {
            mss: netsim::MSS_BYTES,
            init_cwnd_bytes: 10 * netsim::MSS_BYTES as u64,
            base_rtt,
            min_rto: SimDuration::from_millis(10),
            max_cwnd_bytes: 16 << 20,
            dupack_threshold: 3,
        }
    }
}

/// Congestion-control phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcState {
    SlowStart,
    CongestionAvoidance,
}

/// How a flow's congestion window reacts to its primary-loop ACKs. One
/// value per flow; [`DctcpFlowTx::on_ack`] calls it on every HCP ACK of a
/// live flow — duplicates included — once the ACK's bytes are recorded and
/// the segments it covers cleared, and before fast retransmit reads the
/// window.
pub trait WindowLaw {
    /// React to `ack`, which newly covered `newly` bytes of `tx`'s flow.
    /// Returns the fresh α when the ACK closed a DCTCP round: the value the
    /// endpoints trace as `alpha_update` and PPT's case 2 watches.
    fn on_ack(
        &mut self,
        tx: &mut DctcpFlowTx,
        ack: &AckHdr,
        newly: u64,
        now: SimTime,
    ) -> Option<f64>;
}

/// A segment the transport should put on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegOut {
    pub offset: u64,
    pub len: u32,
    pub retx: bool,
}

/// A scoreboard entry: one primary-loop segment sent and not yet
/// acknowledged, in flight or lost.
#[derive(Clone, Copy, Debug)]
struct InflightSeg {
    offset: u64,
    len: u32,
    /// SACK-hole counter: number of ACK arrivals that SACKed data above
    /// this segment while it was in flight.
    dup_hits: u8,
    /// Declared lost and not sent again yet: not in `inflight_bytes`.
    lost: bool,
    /// Sent again: hits wait for `DctcpFlowTx::recovery_point`.
    resent: bool,
}

// A ring holds an entry per segment outstanding (~11 k at the 16 MB cap) and
// doubles as it grows: an entry's size is most of a large flow's resident
// state (ROADMAP item 4, ring RSS), so it holds only what an ACK reads.
const _: () = assert!(
    std::mem::size_of::<InflightSeg>() == 16,
    "a scoreboard entry outgrew 16 bytes: the ring's RSS grows with it"
);
const _: () = assert!(
    std::mem::size_of::<DctcpFlowTx>() <= 296,
    "a TCP-family sender outgrew 296 bytes: every flow in progress carries one"
);

/// A TCP-family sender flow.
#[derive(Debug)]
pub struct DctcpFlowTx {
    pub id: FlowId,
    pub src: HostId,
    pub dst: HostId,
    pub size: u64,
    cfg: TcpCfg,

    cwnd: f64,
    ssthresh: f64,
    state: CcState,

    /// Bytes transmitted at least once by *any* loop (HCP or LCP).
    /// The LCP tail loop consults this so it never duplicates in-flight
    /// opportunistic data; the HCP loop does NOT skip unacked claimed
    /// bytes — like the kernel, it resends anything not yet acknowledged
    /// when it reaches it (receivers discard duplicates).
    claimed: IntervalSet,
    /// HCP new-data pointer: the next in-order byte the primary loop will
    /// transmit. Jumps over ACKed (possibly LCP-delivered) ranges.
    hcp_next: u64,
    /// Bytes known delivered (cum + SACK).
    acked: IntervalSet,
    /// The scoreboard: every HCP segment sent and not yet acknowledged,
    /// once, ascending by offset. Entries never overlap and all end at or
    /// below `hcp_next`, so new data is appended and the cumulative point
    /// pops the front: a ring. Loss marks an entry; only an ACK removes it.
    inflight: VecDeque<InflightSeg>,
    /// Bytes of the entries not marked lost.
    inflight_bytes: u64,
    /// Highest offset+len ever transmitted.
    snd_hi: u64,
    /// No lost entry starts below this offset (`u64::MAX`: none is lost).
    lost_lo: u64,
    /// `snd_hi` when the last retransmission went out (RFC 6675's
    /// RecoveryPoint). Until `highest_sacked` passes it, SACKs are for data
    /// sent before the resend, so resent entries take no duplicate hits.
    recovery_point: u64,
    highest_sacked: u64,

    /// Maximum congestion-avoidance window (PPT's MW).
    pub wmax: WmaxTracker,

    /// RTO state.
    rto_deadline: SimTime,
    rto_backoff: u32,
    /// Fire time of the one engine timer that is live for this flow
    /// (`SimTime::MAX` = none); owned by `common::{arm_rto, service_rto}`.
    pub(crate) rto_timer_at: SimTime,
    /// Bytes the flow has pushed (for priority aging).
    pub bytes_sent: u64,
    done: bool,
}

impl DctcpFlowTx {
    /// New sender flow.
    pub fn new(id: FlowId, src: HostId, dst: HostId, size: u64, cfg: TcpCfg) -> Self {
        let init = cfg.init_cwnd_bytes as f64;
        DctcpFlowTx {
            id,
            src,
            dst,
            size,
            cfg,
            cwnd: init,
            ssthresh: f64::INFINITY,
            state: CcState::SlowStart,
            claimed: IntervalSet::new(),
            hcp_next: 0,
            acked: IntervalSet::new(),
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            snd_hi: 0,
            lost_lo: u64::MAX,
            recovery_point: 0,
            highest_sacked: 0,
            wmax: WmaxTracker::new(),
            rto_deadline: SimTime::MAX,
            rto_backoff: 0,
            rto_timer_at: SimTime::MAX,
            bytes_sent: 0,
            done: false,
        }
    }

    /// The TCP mechanics this flow runs on.
    pub fn cfg(&self) -> &TcpCfg {
        &self.cfg
    }

    /// Current congestion window, bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current congestion window, unrounded.
    pub(crate) fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Segment size.
    pub fn mss(&self) -> u32 {
        self.cfg.mss
    }

    /// Bytes in flight on the primary loop.
    pub fn inflight_bytes(&self) -> u64 {
        self.inflight_bytes
    }

    /// End of the highest byte ever sent: where the data in flight ends.
    pub(crate) fn snd_hi(&self) -> u64 {
        self.snd_hi
    }

    /// Claim up to one MSS from the tail of the unclaimed bytes below
    /// `limit` (the end of the buffered window) for a co-located
    /// low-priority loop. Returns the claimed `(offset, len)`, or `None`
    /// once the loops have crossed and nothing below `limit` is unclaimed.
    pub fn claim_tail(&mut self, limit: u64, mss: u32) -> Option<(u64, u32)> {
        let (gap_start, gap_end) = self.claimed.last_gap(limit)?;
        let start = gap_end.saturating_sub(mss as u64).max(gap_start);
        self.claimed.insert(start, gap_end);
        Some((start, (gap_end - start) as u32))
    }

    /// True once every byte is acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Fully acknowledged prefix.
    pub fn cum_acked(&self) -> u64 {
        self.acked.contiguous_prefix()
    }

    /// Highest fully-acked watermark used for round accounting: the
    /// contiguous prefix plus SACKed ranges beyond it count toward the
    /// round because DCTCP rounds are about feedback coverage, not order.
    pub(crate) fn cum_high_water(&self) -> u64 {
        self.highest_sacked.max(self.cum_acked())
    }

    /// The next HCP segment to transmit, honouring the window: the lowest
    /// lost entry, else new data (claimed and tracked). `None` when the
    /// window is full or there is nothing (lost or new) to send.
    // simlint: hot-path
    pub fn next_segment(&mut self, now: SimTime) -> Option<SegOut> {
        if self.done {
            return None;
        }
        if self.inflight_bytes + self.cfg.mss as u64 > self.cwnd_bytes().max(self.cfg.mss as u64) {
            return None;
        }
        let seg = match self.resend_lowest_lost() {
            Some(seg) => seg,
            None => {
                // New data: the next in-order byte that is not yet
                // acknowledged. LCP-delivered (acked) tail ranges are jumped
                // over — the paper's "advancing snd_nxt" on crossing;
                // LCP-sent-but-unacked bytes are NOT skipped, so a lost
                // opportunistic packet is repaired by the primary loop in
                // order rather than waiting out an RTO.
                let (gap_start, gap_end) = self.acked.first_gap(self.hcp_next, self.size)?;
                let len = ((gap_end - gap_start).min(self.cfg.mss as u64)) as u32;
                self.claimed.insert(gap_start, gap_start + len as u64);
                self.hcp_next = gap_start + len as u64;
                self.inflight.push_back(InflightSeg::new(gap_start, len));
                SegOut { offset: gap_start, len, retx: false }
            }
        };
        self.inflight_bytes += seg.len as u64;
        self.snd_hi = self.snd_hi.max(seg.offset + seg.len as u64);
        self.bytes_sent += seg.len as u64;
        self.arm_rto(now);
        Some(seg)
    }

    /// Put the lowest lost entry — the hole the cumulative point waits on —
    /// back in flight as resent, found by binary search from `lost_lo`.
    fn resend_lowest_lost(&mut self) -> Option<SegOut> {
        if self.lost_lo == u64::MAX {
            return None;
        }
        let from = self.inflight.partition_point(|seg| seg.offset < self.lost_lo);
        let Some(seg) = self.inflight.range_mut(from..).find(|seg| seg.lost) else {
            self.lost_lo = u64::MAX;
            return None;
        };
        *seg = InflightSeg { resent: true, ..InflightSeg::new(seg.offset, seg.len) };
        self.lost_lo = seg.offset;
        self.recovery_point = self.snd_hi.max(seg.offset + seg.len as u64);
        Some(SegOut { offset: seg.offset, len: seg.len, retx: true })
    }

    /// Process a primary-loop ACK (cumulative + SACK ranges + ECN echo):
    /// record what it covers, let `law` move the window, then look for
    /// losses. Returns what `law` returns.
    pub fn on_ack(&mut self, ack: &AckHdr, now: SimTime, law: &mut impl WindowLaw) -> Option<f64> {
        if self.done {
            return None;
        }
        let mut newly = self.acked.insert(0, ack.cum);
        for &(s, e) in &ack.sacks {
            newly += self.acked.insert(s, e);
            self.highest_sacked = self.highest_sacked.max(e);
        }
        self.highest_sacked = self.highest_sacked.max(ack.cum);
        self.clear_covered(ack);
        let round_alpha = law.on_ack(self, ack, newly, now);
        if newly > 0 {
            self.rto_backoff = 0;
        }
        self.fast_retransmit();
        if !self.finish() {
            self.arm_rto(now);
        }
        round_alpha
    }

    /// Fast retransmit: mark lost the entries in flight with enough SACKed
    /// data above them. Entries never overlap, so those ending at or below
    /// `highest_sacked` are a prefix of the ring, the only part visited.
    /// Resent entries take no hits until the recovery point is passed.
    fn fast_retransmit(&mut self) {
        let (threshold, highest_sacked) = (self.cfg.dupack_threshold, self.highest_sacked);
        let recovering = highest_sacked <= self.recovery_point;
        let mut marked = false;
        for seg in self.inflight.iter_mut() {
            if seg.offset + seg.len as u64 > highest_sacked {
                break;
            }
            if seg.lost || (seg.resent && recovering) {
                continue;
            }
            seg.dup_hits = seg.dup_hits.saturating_add(1);
            if seg.dup_hits == threshold {
                seg.lost = true;
                self.inflight_bytes -= seg.len as u64;
                self.lost_lo = self.lost_lo.min(seg.offset);
                marked = true;
            }
        }
        if marked {
            // One multiplicative cut per loss event.
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
            self.cwnd = self.ssthresh;
            self.enter_ca();
        }
    }

    /// Process a *low-priority* (LCP) ACK: records delivered tail bytes
    /// without feeding congestion control — opportunistic packets must not
    /// inflate α, grow the window, or trigger HCP loss recovery.
    pub fn on_lcp_ack(&mut self, ack: &AckHdr) {
        if self.done {
            return;
        }
        self.acked.insert(0, ack.cum);
        for &(s, e) in &ack.sacks {
            self.acked.insert(s, e);
        }
        // Drop any HCP in-flight segment the LCP ACK happens to cover
        // (possible after crossing) so window accounting stays truthful.
        self.clear_covered(ack);
        self.finish();
    }

    /// Drop every entry `ack` fully covers — by the cumulative point (the
    /// block `[0, cum)`) or by one SACK block; a partial cover clears
    /// nothing. Entries never overlap, so a block covers a run of them, found
    /// by binary search and drained: the cost follows the ACK, not the window.
    fn clear_covered(&mut self, ack: &AckHdr) {
        let blocks = std::iter::once((0, ack.cum)).chain(ack.sacks.iter().copied());
        for (lo, hi) in blocks.filter(|&(lo, hi)| lo < hi) {
            let first = if lo == 0 { 0 } else { self.inflight.partition_point(|s| s.offset < lo) };
            let mut end = first;
            while let Some(seg) = self.inflight.get(end).filter(|s| s.offset + s.len as u64 <= hi) {
                self.inflight_bytes -= if seg.lost { 0 } else { seg.len as u64 };
                end += 1;
            }
            self.inflight.drain(first..end);
        }
    }

    /// Mark the flow done once every byte is acknowledged; true if it is.
    fn finish(&mut self) -> bool {
        if self.acked.covers(self.size) {
            self.done = true;
            self.inflight.clear();
            self.inflight_bytes = 0;
            self.rto_deadline = SimTime::MAX;
        }
        self.done
    }
    // simlint: hot-path-end

    /// Count opportunistic bytes toward the flow's total for priority
    /// aging (§4.2 demotes by bytes sent across both loops).
    pub fn add_sent_bytes(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
    }

    /// For a [`WindowLaw`]: Reno's increase for `newly` acknowledged bytes, which DCTCP and
    /// Swift share: all of them in slow start (leaving it at `ssthresh`),
    /// MSS·newly/cwnd in congestion avoidance. Uncapped: see `set_cwnd`.
    pub(crate) fn grow(&mut self, newly: u64) {
        match self.state {
            CcState::SlowStart => {
                self.cwnd += newly as f64;
                if self.cwnd >= self.ssthresh {
                    self.enter_ca();
                }
            }
            CcState::CongestionAvoidance => {
                self.cwnd += self.cfg.mss as f64 * newly as f64 / self.cwnd;
            }
        }
    }

    /// Multiplicative decrease by `factor`, to no less than one MSS; the
    /// result is the new `ssthresh` and the flow leaves slow start.
    pub(crate) fn cut(&mut self, factor: f64) {
        self.cwnd = (self.cwnd * factor).max(self.cfg.mss as f64);
        self.ssthresh = self.cwnd;
        self.enter_ca();
    }

    /// Set the window to `cwnd`, capped at `max_cwnd_bytes`, and let the
    /// MW tracker observe it.
    pub(crate) fn set_cwnd(&mut self, cwnd: f64) {
        self.cwnd = cwnd.min(self.cfg.max_cwnd_bytes as f64);
        self.wmax.observe(self.cwnd as u64);
    }

    fn enter_ca(&mut self) {
        self.state = CcState::CongestionAvoidance;
        self.wmax.enter_congestion_avoidance();
        self.wmax.observe(self.cwnd as u64);
    }

    // ------------------------------------------------------------
    // RTO
    // ------------------------------------------------------------

    fn rto(&self) -> SimDuration {
        let base = self.cfg.min_rto.as_nanos();
        SimDuration::from_nanos(base << self.rto_backoff.min(6))
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = now + self.rto();
    }

    /// Current RTO deadline (`SimTime::MAX` when idle/done).
    pub fn rto_deadline(&self) -> SimTime {
        self.rto_deadline
    }

    /// Take a due timeout (`common::service_rto` calls this only then): mark
    /// every entry lost, forgetting none, so the ring resends lowest first as
    /// the one-MSS window reopens; the deadline backs off.
    pub fn on_rto(&mut self, now: SimTime) {
        debug_assert!(!self.done && now >= self.rto_deadline, "an RTO fires only when due");
        let Some((start, end)) = self.acked.first_gap(0, self.size) else { return };
        // Only bytes that were sent can be lost.
        if !self.claimed.contains(start) {
            // Nothing outstanding — stall was send-side; just re-arm.
            self.arm_rto(now);
            return;
        }
        if start >= self.hcp_next {
            // Only the LCP sent what the receiver waits on: the primary
            // loop takes those bytes over as a lost entry of its own.
            let len = (end - start).min(self.cfg.mss as u64) as u32;
            self.claimed.insert(start, start + len as u64);
            self.hcp_next = start + len as u64;
            self.inflight.push_back(InflightSeg::new(start, len));
        }
        self.inflight.iter_mut().for_each(|seg| seg.lost = true);
        self.inflight_bytes = 0;
        self.lost_lo = 0;
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.state = CcState::SlowStart;
        self.rto_backoff += 1;
        self.arm_rto(now);
    }
}

impl InflightSeg {
    /// A segment just sent for the first time.
    fn new(offset: u64, len: u32) -> Self {
        InflightSeg { offset, len, dup_hits: 0, lost: false, resent: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dctcp::DctcpLaw;
    use crate::hpcc::HpccLaw;
    use crate::powertcp::PowerTcpLaw;
    use crate::proto::SackBlocks;
    use crate::swift::SwiftLaw;

    fn cfg() -> TcpCfg {
        TcpCfg::new(SimDuration::from_micros(80))
    }

    /// A DCTCP sender of `size` bytes and its law.
    fn flow(size: u64) -> (DctcpFlowTx, DctcpLaw) {
        let tx = DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), size, cfg());
        let law = DctcpLaw::new(&tx);
        (tx, law)
    }

    fn ack<const N: usize>(cum: u64, sacks: [(u64, u64); N], ece: bool) -> AckHdr {
        let sacks = sacks.into();
        AckHdr { cum, sacks, ece, lcp: false, ts_echo: SimTime::ZERO, int_echo: None }
    }

    /// An INT stack of one hop.
    fn int_stack(hop: crate::proto::IntHop) -> Box<crate::proto::IntStack> {
        Box::new([hop].into_iter().collect())
    }

    #[test]
    fn initial_window_limits_burst() {
        let (mut f, _) = flow(1 << 20);
        let mut sent = 0u64;
        while let Some(seg) = f.next_segment(SimTime::ZERO) {
            sent += seg.len as u64;
        }
        assert_eq!(sent, cfg().init_cwnd_bytes);
        assert_eq!(f.inflight_bytes(), sent);
    }

    #[test]
    fn slow_start_doubles_per_round() {
        let (mut f, mut law) = flow(10 << 20);
        let mut t = SimTime::ZERO;
        // Round 1: send IW, ack it all.
        let mut offs = Vec::new();
        while let Some(seg) = f.next_segment(t) {
            offs.push((seg.offset, seg.len));
        }
        let w0 = f.cwnd_bytes();
        t = SimTime(80_000);
        for (o, l) in offs {
            f.on_ack(&ack(o + l as u64, [(o, o + l as u64)], false), t, &mut law);
        }
        // cwnd grew by the acked bytes (exponential growth).
        assert_eq!(f.cwnd_bytes(), 2 * w0);
        assert_eq!(f.state, CcState::SlowStart);
    }

    #[test]
    fn ecn_marks_cut_window_once_per_round() {
        let (mut f, mut law) = flow(10 << 20);
        let mut t = SimTime::ZERO;
        let mut offs = Vec::new();
        while let Some(seg) = f.next_segment(t) {
            offs.push((seg.offset, seg.len));
        }
        t = SimTime(80_000);
        // All ACKs carry ECE: α stays 1 → cut to half at round end.
        let before = f.cwnd_bytes() + cfg().init_cwnd_bytes; // after growth
        for (o, l) in offs {
            f.on_ack(&ack(o + l as u64, [(o, o + l as u64)], true), t, &mut law);
        }
        // After the round: slow-start growth happened then the cut applied.
        assert!(f.cwnd_bytes() < before, "cwnd must be cut");
        assert_eq!(f.state, CcState::CongestionAvoidance);
        assert!(law.alpha() > 0.9, "all-marked round drives α up");
    }

    #[test]
    fn sack_holes_trigger_fast_retransmit() {
        let (mut f, mut law) = flow(1 << 20);
        let mut segs = Vec::new();
        while let Some(seg) = f.next_segment(SimTime::ZERO) {
            segs.push(seg);
        }
        assert_eq!(segs.len(), 10);
        // Lose segments 0, 2 and 4: SACKing the other seven gives each
        // hole at least three duplicate hits.
        let t = SimTime(80_000);
        let mut rcv = IntervalSet::new();
        for seg in [1, 3, 5, 6, 7, 8, 9].map(|i| segs[i]) {
            let block = (seg.offset, seg.offset + seg.len as u64);
            rcv.insert(block.0, block.1);
            f.on_ack(&ack(0, [block], false), t, &mut law);
        }
        // Each repair is delivered in turn, and the holes go out lowest
        // first whatever room the window leaves each time.
        let mut resent: Vec<SegOut> = Vec::new();
        for next in 0..3 {
            resent.extend(std::iter::from_fn(|| f.next_segment(t)).filter(|seg| seg.retx));
            let seg = resent[next];
            let block = (seg.offset, seg.offset + seg.len as u64);
            rcv.insert(block.0, block.1);
            f.on_ack(&ack(rcv.contiguous_prefix(), [block], false), t, &mut law);
        }
        let offsets: Vec<u64> = resent.iter().map(|seg| seg.offset).collect();
        assert_eq!(offsets, [0, 2, 4].map(|i| segs[i].offset));
    }

    #[test]
    fn rto_collapses_window_and_retransmits_head() {
        let (mut f, mut law) = flow(1 << 20);
        while f.next_segment(SimTime::ZERO).is_some() {}
        let outstanding = f.inflight.len();
        let deadline = f.rto_deadline();
        assert!(deadline > SimTime::ZERO && deadline < SimTime::MAX);
        f.on_rto(deadline);
        assert_eq!(f.cwnd_bytes(), cfg().mss as u64);
        // Nothing is forgotten: every segment is still on the scoreboard,
        // lost, and none of them counts as in flight.
        assert_eq!(f.inflight.len(), outstanding);
        assert!(f.inflight.iter().all(|seg| seg.lost) && f.inflight_bytes() == 0);
        let seg = f.next_segment(deadline).expect("head retransmit");
        assert!(seg.retx);
        assert_eq!(seg.offset, 0);
        assert_eq!(f.next_segment(deadline), None, "a one-MSS window");
        // Backoff doubles the next deadline distance.
        let d2 = f.rto_deadline();
        assert_eq!(d2.saturating_since(deadline).as_nanos(), 2 * cfg().min_rto.as_nanos());
        // The head's ACK reopens the window onto the next lost segment.
        let t = SimTime(deadline.as_nanos() + 80_000);
        f.on_ack(&ack(seg.len as u64, [], false), t, &mut law);
        let next = f.next_segment(t).expect("the next hole");
        assert_eq!((next.offset, next.retx), (seg.len as u64, true));
    }

    #[test]
    fn completion_after_all_bytes_acked() {
        let size = 3 * netsim::MSS_BYTES as u64;
        let (mut f, mut law) = flow(size);
        let mut segs = Vec::new();
        while let Some(s) = f.next_segment(SimTime::ZERO) {
            segs.push(s);
        }
        f.on_ack(&ack(size, [], false), SimTime(1), &mut law);
        assert!(f.is_done());
        assert_eq!(f.rto_deadline(), SimTime::MAX);
        assert!(f.next_segment(SimTime(2)).is_none());
    }

    #[test]
    fn lcp_acked_tail_is_skipped_by_hcp() {
        // Simulate the PPT crossing: the tail was delivered by LCP and the
        // low-priority ACK arrived — HCP must jump over it.
        let size = 10 * netsim::MSS_BYTES as u64;
        let (mut f, _) = flow(size);
        let tail_start = size - 2 * netsim::MSS_BYTES as u64;
        f.claimed.insert(tail_start, size);
        let lcp_ack = AckHdr {
            cum: 0,
            sacks: [(tail_start, size)].into(),
            ece: false,
            lcp: true,
            ts_echo: SimTime::ZERO,
            int_echo: None,
        };
        f.on_lcp_ack(&lcp_ack);
        let mut max_off = 0;
        while let Some(seg) = f.next_segment(SimTime::ZERO) {
            max_off = max_off.max(seg.offset + seg.len as u64);
            assert!(
                seg.offset + seg.len as u64 <= tail_start,
                "HCP must not resend the LCP-acked tail"
            );
        }
        assert_eq!(max_off, tail_start);
    }

    #[test]
    fn lcp_unacked_claimed_bytes_are_resent_by_hcp_in_order() {
        // A lost opportunistic packet: claimed but never acked. The
        // primary loop must transmit it when it reaches that offset —
        // never strand it behind an RTO.
        let size = 5 * netsim::MSS_BYTES as u64;
        let (mut f, _) = flow(size);
        let tail_start = size - netsim::MSS_BYTES as u64;
        f.claimed.insert(tail_start, size); // LCP sent it; ack lost
        let mut offsets = Vec::new();
        while let Some(seg) = f.next_segment(SimTime::ZERO) {
            offsets.push(seg.offset);
        }
        assert!(offsets.contains(&tail_start), "HCP must cover the unacked tail: {offsets:?}");
    }

    #[test]
    fn claim_tail_takes_at_most_one_mss_from_the_top_gap() {
        let mss = netsim::MSS_BYTES;
        let size = 10 * mss as u64;
        let (mut f, _) = flow(size);
        // Gap straddling `limit`: only bytes below the limit are reachable.
        let limit = size - mss as u64 / 2;
        assert_eq!(f.claim_tail(limit, mss), Some((limit - mss as u64, mss)));
        // Sub-MSS gap: HCP holds [0, 100), the LCP everything from 300 up.
        f.claimed.insert(0, 100);
        f.claimed.insert(300, limit);
        assert_eq!(f.claim_tail(limit, mss), Some((100, 200)));
        // Empty gap: the loops crossed.
        assert_eq!(f.claim_tail(limit, mss), None);
        assert_eq!(f.claim_tail(0, mss), None);
        // Claiming never counts as sending; callers age priorities themselves.
        assert_eq!(f.bytes_sent, 0);
    }

    #[test]
    fn round_alpha_reported_at_boundary() {
        let (mut f, mut law) = flow(1 << 20);
        let mut segs = Vec::new();
        while let Some(s) = f.next_segment(SimTime::ZERO) {
            segs.push(s);
        }
        let last = segs.last().unwrap();
        let alpha =
            f.on_ack(&ack(last.offset + last.len as u64, [], false), SimTime(80_000), &mut law);
        let alpha = alpha.expect("full-window ACK closes the round");
        assert!(alpha < 1.0);
    }

    fn hop(qlen: u64, tx: u64, ts_ns: u64) -> crate::proto::IntHop {
        crate::proto::IntHop {
            qlen_bytes: qlen,
            qlen_high_bytes: qlen,
            tx_bytes: tx,
            tx_high_bytes: tx,
            ts: SimTime(ts_ns),
            rate_bps: 10_000_000_000,
        }
    }

    // ------------------------------------------------------------
    // Differential test of the scoreboard. The reference is an ordered map
    // of entries by offset, every one of them scanned to clear what an ACK
    // covers, again to count duplicate hits, again to find the lowest lost
    // entry to resend, and once more to mark them all lost on a timeout.
    // Everything else (`acked`, the window law, new data) is the engine's
    // own code on a second flow, whose ring is emptied into the map after
    // every call that sends.
    // ------------------------------------------------------------

    struct Model<W> {
        flow: DctcpFlowTx,
        law: W,
        inflight: std::collections::BTreeMap<u64, InflightSeg>,
    }

    impl<W: WindowLaw> Model<W> {
        /// Move the new data the flow just tracked into the map.
        fn absorb(&mut self) {
            for seg in self.flow.inflight.drain(..) {
                let twice = self.inflight.insert(seg.offset, seg);
                assert!(twice.is_none(), "new data at an outstanding offset {}", seg.offset);
            }
        }

        /// The lowest lost entry if the window has room for it, else
        /// whatever new data the flow sends.
        fn next_segment(&mut self, now: SimTime) -> Option<SegOut> {
            let f = &mut self.flow;
            let mss = f.cfg.mss as u64;
            let open = !f.done && f.inflight_bytes + mss <= f.cwnd_bytes().max(mss);
            let Some(seg) = self.inflight.values_mut().find(|seg| seg.lost).filter(|_| open) else {
                let seg = f.next_segment(now);
                self.absorb();
                return seg;
            };
            *seg = InflightSeg { dup_hits: 0, lost: false, resent: true, ..*seg };
            f.snd_hi = f.snd_hi.max(seg.offset + seg.len as u64);
            f.recovery_point = f.snd_hi;
            f.inflight_bytes += seg.len as u64;
            f.bytes_sent += seg.len as u64;
            f.arm_rto(now);
            Some(SegOut { offset: seg.offset, len: seg.len, retx: true })
        }

        /// A timeout: every entry lost, the first gap added when no entry
        /// holds its first byte, the window collapsed.
        fn on_rto(&mut self, now: SimTime) {
            let f = &mut self.flow;
            let (start, end) = f.acked.first_gap(0, f.size).expect("a flow in progress");
            if !f.claimed.contains(start) {
                f.arm_rto(now);
                return;
            }
            let holds =
                |seg: &InflightSeg| seg.offset <= start && start < seg.offset + seg.len as u64;
            if !self.inflight.values().any(holds) {
                let len = (end - start).min(f.cfg.mss as u64) as u32;
                f.claimed.insert(start, start + len as u64);
                f.hcp_next = start + len as u64;
                self.inflight.insert(start, InflightSeg::new(start, len));
            }
            self.inflight.values_mut().for_each(|seg| seg.lost = true);
            f.inflight_bytes = 0;
            f.ssthresh = (f.cwnd / 2.0).max(2.0 * f.cfg.mss as f64);
            f.cwnd = f.cfg.mss as f64;
            f.state = CcState::SlowStart;
            f.rto_backoff += 1;
            f.arm_rto(now);
        }

        fn clear_covered(&mut self, ack: &AckHdr) {
            self.inflight.retain(|&off, seg| {
                let end = off + seg.len as u64;
                let covered =
                    end <= ack.cum || ack.sacks.iter().any(|&(s, e)| s <= off && end <= e);
                if covered && !seg.lost {
                    self.flow.inflight_bytes -= seg.len as u64;
                }
                !covered
            });
        }

        fn finish(&mut self) -> bool {
            let done = self.flow.finish();
            if done {
                self.inflight.clear();
            }
            done
        }

        fn on_ack(&mut self, ack: &AckHdr, now: SimTime) -> Option<f64> {
            if self.flow.done {
                return None;
            }
            let f = &mut self.flow;
            let mut newly = f.acked.insert(0, ack.cum);
            for &(s, e) in &ack.sacks {
                newly += f.acked.insert(s, e);
                f.highest_sacked = f.highest_sacked.max(e);
            }
            f.highest_sacked = f.highest_sacked.max(ack.cum);
            self.clear_covered(ack);
            let f = &mut self.flow;
            let round_alpha = self.law.on_ack(f, ack, newly, now);
            if newly > 0 {
                f.rto_backoff = 0;
            }

            let recovering = f.highest_sacked <= f.recovery_point;
            let mut marked = false;
            for seg in self.inflight.values_mut() {
                let sacked_above = seg.offset + seg.len as u64 <= f.highest_sacked;
                if sacked_above && !seg.lost && !(seg.resent && recovering) {
                    seg.dup_hits = seg.dup_hits.saturating_add(1);
                    if seg.dup_hits == f.cfg.dupack_threshold {
                        seg.lost = true;
                        f.inflight_bytes -= seg.len as u64;
                        marked = true;
                    }
                }
            }
            if marked {
                f.ssthresh = (f.cwnd / 2.0).max(2.0 * f.cfg.mss as f64);
                f.cwnd = f.ssthresh;
                f.enter_ca();
            }

            if !self.finish() {
                self.flow.arm_rto(now);
            }
            round_alpha
        }

        fn on_lcp_ack(&mut self, ack: &AckHdr) {
            if self.flow.done {
                return;
            }
            self.flow.acked.insert(0, ack.cum);
            for &(s, e) in &ack.sacks {
                self.flow.acked.insert(s, e);
            }
            self.clear_covered(ack);
            self.finish();
        }
    }

    /// The ring holds exactly the map's entries, in the map's order and
    /// without overlap, no lost one below `lost_lo`, and every other field
    /// of the two flows and of their laws is equal.
    fn assert_same<W: WindowLaw + std::fmt::Debug>(
        (real, law): &(DctcpFlowTx, W),
        model: &mut Model<W>,
        what: &str,
    ) {
        let ring: Vec<(u64, u64)> =
            real.inflight.iter().map(|seg| (seg.offset, seg.offset + seg.len as u64)).collect();
        assert!(ring.windows(2).all(|w| w[0].1 <= w[1].0), "{what}: ring out of order: {ring:?}");
        let below = real.inflight.iter().find(|seg| seg.lost && seg.offset < real.lost_lo);
        assert!(below.is_none(), "{what}: {below:?} is lost below {}", real.lost_lo);
        // The low-water mark is the ring's search hint; the map scans.
        model.flow.lost_lo = real.lost_lo;
        model.flow.inflight.extend(model.inflight.values().copied());
        // Debug prints every field, floats to round-trip precision.
        assert_eq!(format!("{real:?}"), format!("{:?}", model.flow), "{what}");
        assert_eq!(format!("{law:?}"), format!("{:?}", model.law), "{what}");
        model.flow.inflight.clear();
    }

    /// Feed `ack` to both flows down the path its `lcp` bit selects.
    fn feed<W: WindowLaw>(
        (real, law): &mut (DctcpFlowTx, W),
        model: &mut Model<W>,
        ack: &AckHdr,
        now: SimTime,
    ) {
        if ack.lcp {
            real.on_lcp_ack(ack);
            model.on_lcp_ack(ack);
        } else {
            let alpha = real.on_ack(ack, now, law);
            assert_eq!(
                alpha.map(f64::to_bits),
                model.on_ack(ack, now).map(f64::to_bits),
                "{ack:?}"
            );
        }
    }

    #[test]
    fn ack_path_matches_the_full_scan_reference_seeded() {
        // Paths the streams must reach: a retransmission, an RTO, an LCP
        // ACK clearing an HCP segment after the loops crossed, a SACK
        // block straddling a segment boundary, `cum` inside a segment, a
        // SACK block clearing a segment from the middle of the ring while
        // the hole below it stays, a resent entry spared a duplicate hit
        // below the recovery point, one marked lost again above it, an RTO
        // over a ring that already holds lost entries, and an RTO whose
        // first gap only the LCP sent.
        let mut reached = [0u32; 10];
        let (rtt, iw) = (cfg().base_rtt, 24 * netsim::MSS_BYTES as u64);
        drive_seeded(0, &mut reached, DctcpLaw::new);
        drive_seeded(1, &mut reached, |_| SwiftLaw::new(rtt));
        drive_seeded(2, &mut reached, |_| HpccLaw::new(iw, false));
        drive_seeded(3, &mut reached, |_| PowerTcpLaw::new(iw));
        assert!(reached.iter().all(|&n| n > 0), "a path was never exercised: {reached:?}");
    }

    /// Sixteen seeded streams of sends, ACKs, losses and timeouts through
    /// a real sender running the law `mk` builds and through the model.
    fn drive_seeded<W: WindowLaw + std::fmt::Debug>(
        mode_ix: u64,
        reached: &mut [u32; 10],
        mk: impl Fn(&DctcpFlowTx) -> W,
    ) {
        let mss = netsim::MSS_BYTES as u64;
        for seed in 0..16u64 {
            let mut rng = netsim::Pcg32::seed_from_u64(seed * 4 + mode_ix);
            let mut c = cfg();
            c.init_cwnd_bytes = 24 * mss;
            // Odd seeds end on a partial segment, so tail-first LCP
            // segments never line up with head-first HCP ones.
            let size = 160 * mss + (seed % 2) * 777;
            // Every fourth seed loses a packet in four, not one in sixteen.
            let lossy = seed % 4 == 3;
            let tx = || DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), size, c.clone());
            let mut real = (tx(), mk(&tx()));
            let mut model = Model { flow: tx(), law: mk(&tx()), inflight: Default::default() };
            // What the receiver holds, and the (offset, len, lcp)
            // packets still in the network.
            let mut rcv = IntervalSet::new();
            let mut wire: Vec<(u64, u32, bool)> = Vec::new();
            let mut last_ack: Option<AckHdr> = None;
            let mut now = SimTime::ZERO;
            let mut tx_bytes = 0u64;
            for step in 0..4000 {
                if real.0.is_done() {
                    break;
                }
                now += SimDuration::from_nanos(1 + rng.gen_range(20_000));
                let what = format!("mode {mode_ix} seed {seed} step {step}");
                let mut ack = AckHdr {
                    cum: rcv.contiguous_prefix(),
                    sacks: SackBlocks::default(),
                    ece: rng.gen_index(8) == 0,
                    lcp: false,
                    ts_echo: SimTime(now.as_nanos().saturating_sub(rng.gen_range(200_000))),
                    int_echo: (mode_ix >= 2).then(|| {
                        tx_bytes += rng.gen_range(3 * mss);
                        int_stack(hop(rng.gen_range(150_000), tx_bytes, now.as_nanos()))
                    }),
                };
                let ring: Vec<u64> = real.0.inflight.iter().map(|seg| seg.offset).collect();
                // Resent entries in flight before this step.
                let resent: Vec<u64> = real
                    .0
                    .inflight
                    .iter()
                    .filter(|s| s.resent && !s.lost)
                    .map(|s| s.offset)
                    .collect();
                // A segment the ACK touches without fully covering.
                let mut partly_covered: Option<(u64, u32)> = None;
                match rng.gen_index(16) {
                    // Pump the window dry.
                    0..=3 => {
                        loop {
                            let seg = real.0.next_segment(now);
                            assert_eq!(seg, model.next_segment(now), "{what}");
                            let Some(seg) = seg else { break };
                            reached[0] += seg.retx as u32;
                            wire.push((seg.offset, seg.len, false));
                        }
                        assert_same(&real, &mut model, &what);
                        continue;
                    }
                    // The LCP claims a tail segment of the buffered window.
                    4..=5 => {
                        let limit = size.min(real.0.cum_acked() + 100 * mss);
                        let claim = real.0.claim_tail(limit, mss as u32);
                        assert_eq!(claim, model.flow.claim_tail(limit, mss as u32), "{what}");
                        wire.extend(claim.map(|(off, len)| (off, len, true)));
                        continue;
                    }
                    // Deliver the oldest packet or (reordering) any one;
                    // EWD may ACK two opportunistic packets at once.
                    6..=11 if !wire.is_empty() => {
                        let oldest = rng.gen_index(3) > 0;
                        let pick = if oldest { 0 } else { rng.gen_index(wire.len()) };
                        let mut delivered = vec![wire.remove(pick)];
                        ack.lcp = delivered[0].2;
                        if ack.lcp && rng.gen_index(2) == 0 {
                            let second = wire.iter().position(|w| w.2);
                            delivered.extend(second.map(|at| wire.remove(at)));
                        }
                        for (off, len, _) in delivered {
                            rcv.insert(off, off + len as u64);
                            ack.sacks.push((off, off + len as u64));
                        }
                        ack.cum = rcv.contiguous_prefix();
                    }
                    // Lose a packet.
                    12 if !wire.is_empty() => {
                        wire.remove(rng.gen_index(wire.len()));
                        continue;
                    }
                    6..=8 if lossy && !wire.is_empty() => {
                        wire.remove(0);
                        continue;
                    }
                    // The previous ACK again.
                    13 if last_ack.is_some() => ack = last_ack.clone().expect("checked"),
                    // Odd shapes around one in-flight segment.
                    14 if !real.0.inflight.is_empty() => {
                        let seg = real.0.inflight[rng.gen_index(real.0.inflight.len())];
                        let (off, end) = (seg.offset, seg.offset + seg.len as u64);
                        match rng.gen_index(3) {
                            // Two overlapping blocks, both covering it.
                            0 => {
                                ack.sacks.push((off, end));
                                ack.sacks.push((off.saturating_sub(100), end + 100));
                            }
                            // A block straddling one of its ends, or
                            // a byte short of one.
                            1 => {
                                let shapes = [(off + 1, end + 10), (off + 1, end), (off, end - 1)];
                                ack.sacks.push(shapes[rng.gen_index(3)]);
                                partly_covered = Some((off, seg.len)).filter(|_| ack.cum < end);
                                reached[3] += partly_covered.is_some() as u32;
                            }
                            // The cumulative point lands inside it.
                            _ => {
                                let inside = [off + seg.len as u64 / 2, end - 1];
                                ack.cum = inside[rng.gen_index(2)];
                                partly_covered = Some((off, seg.len));
                                reached[4] += 1;
                            }
                        }
                    }
                    // The retransmission timer fires.
                    15 if rng.gen_index(4) == 0 && real.0.rto_deadline() != SimTime::MAX => {
                        now = now.max(real.0.rto_deadline());
                        let backoff = real.0.rto_backoff;
                        let lost_before = real.0.inflight.iter().any(|seg| seg.lost);
                        real.0.on_rto(now);
                        model.on_rto(now);
                        let fired = real.0.rto_backoff > backoff;
                        reached[1] += fired as u32;
                        reached[8] += (fired && lost_before) as u32;
                        reached[9] += (real.0.inflight.len() > ring.len()) as u32;
                        let all_lost = real.0.inflight.iter().all(|seg| seg.lost);
                        assert!(!fired || all_lost, "{what}: an RTO marks every entry lost");
                        assert_same(&real, &mut model, &what);
                        continue;
                    }
                    _ => continue,
                }
                feed(&mut real, &mut model, &ack, now);
                assert_same(&real, &mut model, &what);
                let real = &real.0;
                let entry = |off: u64| real.inflight.iter().find(|s| s.offset == off);
                let outstanding = |off: &u64| entry(*off).is_some();
                reached[2] +=
                    (ack.lcp && real.inflight.len() < ring.len() && !real.is_done()) as u32;
                if let [front, middle @ .., _] = &ring[..] {
                    let from_the_middle = middle.iter().any(|off| !outstanding(off));
                    reached[5] += (from_the_middle && outstanding(front)) as u32;
                }
                for seg in resent.iter().filter_map(|&off| entry(off)).filter(|_| !ack.lcp) {
                    let sacked_above = seg.offset + seg.len as u64 <= real.highest_sacked;
                    let recovering = real.highest_sacked <= real.recovery_point;
                    reached[6] += (sacked_above && recovering) as u32;
                    reached[7] += seg.lost as u32;
                }
                if let Some((off, len)) = partly_covered.filter(|_| !real.is_done()) {
                    // Not cleared: in flight or lost, it keeps its entry.
                    assert!(
                        outstanding(&off),
                        "{what}: a partial cover cleared segment {off}+{len}: {ack:?}"
                    );
                }
                last_ack = Some(ack);
            }
        }
    }

    #[test]
    fn window_cap_is_respected() {
        let mut c = cfg();
        c.max_cwnd_bytes = 20 * c.mss as u64;
        let mut f = DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), 100 << 20, c.clone());
        let mut law = DctcpLaw::new(&f);
        let mut t = 0u64;
        for _ in 0..30 {
            let mut segs = Vec::new();
            while let Some(s) = f.next_segment(SimTime(t)) {
                segs.push(s);
            }
            t += 80_000;
            for s in segs {
                let end = s.offset + s.len as u64;
                f.on_ack(&ack(end, [(s.offset, end)], false), SimTime(t), &mut law);
            }
            assert!(f.cwnd_bytes() <= c.max_cwnd_bytes);
        }
        assert_eq!(f.cwnd_bytes(), c.max_cwnd_bytes);
    }
}
