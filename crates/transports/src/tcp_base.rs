//! The shared TCP-family engine: a DCTCP sender flow and a common
//! receiver.
//!
//! `DctcpFlowTx` implements everything a window-based ECN sender needs —
//! segmentation, SACK scoreboarding, fast retransmit, RTO, slow start /
//! congestion avoidance, and the DCTCP α-based window cut. PPT, RC3 and
//! PIAS compose it; Swift and HPCC reuse the reliability plumbing with
//! their own window update.

use std::collections::VecDeque;

use netsim::{FlowId, HostId, SimDuration, SimTime};
use ppt_core::{AlphaEstimator, WmaxTracker};

use crate::common::IntervalSet;
use crate::proto::AckHdr;

/// TCP-family configuration.
#[derive(Clone, Debug)]
pub struct TcpCfg {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Initial congestion window, bytes (TCP-10-era default: 10 MSS).
    pub init_cwnd_bytes: u64,
    /// Base round-trip time (pacing & α round bookkeeping fallback).
    pub base_rtt: SimDuration,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// DCTCP EWMA gain.
    pub g: f64,
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
            g: ppt_core::DEFAULT_G,
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

/// Swift-style delay-based congestion control state (Fig 14's
/// "conceptually equivalent to Swift" variant: the window reacts to the
/// fabric delay only).
#[derive(Clone, Copy, Debug)]
pub struct SwiftCc {
    /// Target one-way+return fabric delay.
    pub target: SimDuration,
    /// Multiplicative-decrease gain β.
    pub beta: f64,
    /// Maximum fraction the window may lose per decrease.
    pub max_mdf: f64,
    /// Last multiplicative decrease (rate-limited to once per RTT).
    pub last_decrease: SimTime,
}

impl SwiftCc {
    /// Swift defaults for a given base RTT: target = 1.5 × base RTT.
    pub fn new(base_rtt: SimDuration) -> Self {
        SwiftCc {
            target: SimDuration::from_nanos(base_rtt.as_nanos() * 3 / 2),
            beta: 0.8,
            max_mdf: 0.5,
            last_decrease: SimTime::ZERO,
        }
    }
}

/// HPCC congestion-control state (per the HPCC paper's per-ACK window
/// update driven by INT telemetry).
#[derive(Clone, Debug)]
pub struct HpccCc {
    /// Utilization target η.
    pub eta: f64,
    /// Additive increase per update, bytes.
    pub w_ai: f64,
    /// Max additive-increase stages before a multiplicative step.
    pub max_stage: u32,
    /// Base RTT (the T in qlen/(B·T)).
    pub base_rtt: SimDuration,
    /// Reference window W_c.
    pub wc: f64,
    pub inc_stage: u32,
    pub last_update_seq: u64,
    /// Previous INT observation per hop, keyed by hop index.
    pub prev_int: Vec<crate::proto::IntHop>,
    /// Most recent inflight estimate U (the appendix-B PPT-over-HPCC
    /// variant opens its LCP loop when this drops below 1).
    pub last_u: f64,
    /// Priority-aware INT: measure only the high-priority band (P0–P3).
    /// Required when an LCP loop shares the path — otherwise HPCC counts
    /// the opportunistic traffic as congestion, yields window, and the
    /// LCP loop absorbs the yield in a spiral.
    pub high_band_only: bool,
}

impl HpccCc {
    /// HPCC defaults: η = 0.95, maxStage = 5, W_AI = one MSS.
    pub fn new(base_rtt: SimDuration, init_cwnd: u64) -> Self {
        HpccCc {
            eta: 0.95,
            w_ai: netsim::MSS_BYTES as f64,
            max_stage: 5,
            base_rtt,
            wc: init_cwnd as f64,
            inc_stage: 0,
            last_update_seq: 0,
            prev_int: Vec::new(),
            last_u: 0.0,
            high_band_only: false,
        }
    }

    /// The normalized max per-hop inflight estimate U from an echoed INT
    /// stack, updating the per-hop history.
    pub fn measure_u(&mut self, int: &[crate::proto::IntHop]) -> f64 {
        let mut u_max: f64 = 0.0;
        for (i, hop) in int.iter().enumerate() {
            let b_bytes_per_sec = hop.rate_bps as f64 / 8.0;
            let t = self.base_rtt.as_secs_f64();
            let qlen = if self.high_band_only { hop.qlen_high_bytes } else { hop.qlen_bytes };
            let mut u = qlen as f64 / (b_bytes_per_sec * t);
            if let Some(prev) = self.prev_int.get(i) {
                let dt_ns = hop.ts.as_nanos().saturating_sub(prev.ts.as_nanos());
                if dt_ns > 0 {
                    let (now_tx, prev_tx) = if self.high_band_only {
                        (hop.tx_high_bytes, prev.tx_high_bytes)
                    } else {
                        (hop.tx_bytes, prev.tx_bytes)
                    };
                    let dbytes = now_tx.saturating_sub(prev_tx) as f64;
                    let tx_rate = dbytes / (dt_ns as f64 / 1e9);
                    u += tx_rate / b_bytes_per_sec;
                }
            }
            u_max = u_max.max(u);
        }
        // Update history.
        self.prev_int.clear();
        self.prev_int.extend_from_slice(int);
        self.last_u = u_max;
        u_max
    }
}

/// PowerTCP congestion-control state (NSDI'22): the window tracks
/// in-network *power* — current × voltage, where the current λ is the
/// per-hop throughput plus queue gradient and the voltage is the queue
/// plus one BDP — normalized so Γ = 1 at the q = 0, λ = C equilibrium.
/// Reacting to the gradient term lets it respond to congestion *while
/// queues are still building*, one RTT earlier than HPCC's inflight
/// estimate, which only sees the queue level itself.
#[derive(Clone, Debug)]
pub struct PowerTcpCc {
    /// EWMA gain γ of the window update (wc/Γ blends into cwnd at γ).
    pub gamma: f64,
    /// Additive increase β per update, bytes.
    pub beta: f64,
    /// Base RTT (the τ that converts rate to BDP and scales base power).
    pub base_rtt: SimDuration,
    /// Reference window W_c, latched once per RTT like HPCC's.
    pub wc: f64,
    pub last_update_seq: u64,
    /// Previous INT observation per hop, keyed by hop index.
    pub prev_int: Vec<crate::proto::IntHop>,
    /// Time-smoothed normalized power Γ (Algorithm 1's ewma over τ).
    pub smoothed: f64,
    /// When the previous power measurement was taken (Δt of the ewma).
    pub last_measure: SimTime,
}

impl PowerTcpCc {
    /// PowerTCP defaults: γ = 0.9, β = one MSS, Γ starts at equilibrium.
    pub fn new(base_rtt: SimDuration, init_cwnd: u64) -> Self {
        PowerTcpCc {
            gamma: 0.9,
            beta: netsim::MSS_BYTES as f64,
            base_rtt,
            wc: init_cwnd as f64,
            last_update_seq: 0,
            prev_int: Vec::new(),
            smoothed: 1.0,
            last_measure: SimTime::ZERO,
        }
    }

    /// Normalized power Γ from an echoed INT stack: per hop,
    /// λ = Δq/Δt + ΔtxBytes/Δt (current), v = q + C·τ (voltage), and the
    /// base power C²·τ normalizes the product so Γ = 1 means "exactly
    /// line rate with empty queues". The max over hops is then smoothed
    /// over one base RTT. Hops without history contribute nothing (the
    /// first ACK of a flow measures neutral power).
    pub fn measure_power(&mut self, int: &[crate::proto::IntHop], now: SimTime) -> f64 {
        let tau = self.base_rtt.as_secs_f64();
        let mut g_max: f64 = 0.0;
        for (i, hop) in int.iter().enumerate() {
            let c = hop.rate_bps as f64 / 8.0; // bytes/sec
            if c <= 0.0 {
                continue;
            }
            let Some(prev) = self.prev_int.get(i) else { continue };
            let dt_ns = hop.ts.as_nanos().saturating_sub(prev.ts.as_nanos());
            if dt_ns == 0 {
                continue;
            }
            let dt = dt_ns as f64 / 1e9;
            let dq = hop.qlen_bytes as f64 - prev.qlen_bytes as f64;
            let tx_rate = hop.tx_bytes.saturating_sub(prev.tx_bytes) as f64 / dt;
            // Draining queues can push λ negative; clamp at zero (the
            // window still grows through the β term and the small Γ).
            let lambda = (dq / dt + tx_rate).max(0.0);
            let voltage = hop.qlen_bytes as f64 + c * tau;
            let base_power = c * c * tau;
            g_max = g_max.max(lambda * voltage / base_power);
        }
        self.prev_int.clear();
        self.prev_int.extend_from_slice(int);
        if g_max <= 0.0 {
            // No history yet (or an idle path): neutral power.
            g_max = 1.0;
        }
        // Time-weighted ewma over one base RTT (PowerTCP Algorithm 1).
        let dt = now.saturating_since(self.last_measure).as_secs_f64();
        self.last_measure = now;
        self.smoothed = if dt >= tau || tau <= 0.0 {
            g_max
        } else {
            (self.smoothed * (tau - dt) + g_max * dt) / tau
        };
        self.smoothed
    }
}

/// Which window-update law the flow runs. The reliability machinery
/// (segmentation, SACK, RTO) is identical across all of them.
#[derive(Clone, Debug)]
pub enum CcMode {
    /// ECN-fraction-based DCTCP (the default).
    Dctcp,
    /// Delay-based Swift-like control.
    Swift(SwiftCc),
    /// INT-based HPCC control.
    Hpcc(HpccCc),
    /// INT-based PowerTCP control (power = current × voltage).
    PowerTcp(PowerTcpCc),
}

/// A segment the transport should put on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegOut {
    pub offset: u64,
    pub len: u32,
    pub retx: bool,
}

/// Everything the caller needs to react to an ACK.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckOutcome {
    /// Bytes newly covered by this ACK.
    pub newly_acked: u64,
    /// An α round closed with this ACK; carries the fresh α.
    pub round_alpha: Option<f64>,
    /// The flow is fully acknowledged.
    pub done: bool,
    /// An RTT sample measured from the echoed timestamp.
    pub rtt_sample: Option<SimDuration>,
    /// Swift mode: the per-ACK delay sample (now − ts_echo).
    pub delay_sample: Option<SimDuration>,
}

#[derive(Clone, Copy, Debug)]
struct InflightSeg {
    offset: u64,
    len: u32,
    sent_at: SimTime,
    /// SACK-hole counter: number of ACK arrivals that SACKed data above
    /// this segment while it remained unacked.
    dup_hits: u8,
    retx: bool,
}

/// A DCTCP sender flow.
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
    /// Outstanding HCP segments, ascending by offset, one per offset. New
    /// data is appended in offset order and acknowledged from the front, so
    /// the scoreboard is a ring; only a retransmission lands inside it.
    inflight: VecDeque<InflightSeg>,
    inflight_bytes: u64,
    /// Highest offset+len ever transmitted (α round bookkeeping).
    snd_hi: u64,
    /// HCP retransmission queue.
    retx_queue: Vec<(u64, u32)>,
    highest_sacked: u64,

    alpha: AlphaEstimator,
    round_end: u64,
    ce_in_round: bool,
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
    /// Which window-update law runs (DCTCP / Swift / HPCC).
    cc_mode: CcMode,
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
            alpha: AlphaEstimator::new(cfg.g),
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
            retx_queue: Vec::new(),
            highest_sacked: 0,
            round_end: 0,
            ce_in_round: false,
            wmax: WmaxTracker::new(),
            rto_deadline: SimTime::MAX,
            rto_backoff: 0,
            rto_timer_at: SimTime::MAX,
            bytes_sent: 0,
            cc_mode: CcMode::Dctcp,
            done: false,
        }
    }

    /// Switch the window-update law (builder-style). The reliability
    /// machinery is shared; only the reaction to feedback changes.
    pub fn with_cc_mode(mut self, mode: CcMode) -> Self {
        self.cc_mode = mode;
        self
    }

    /// Read the current CC mode (e.g. Swift target inspection).
    pub fn cc_mode(&self) -> &CcMode {
        &self.cc_mode
    }

    /// Current congestion window, bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current phase.
    pub fn state(&self) -> CcState {
        self.state
    }

    /// Current α.
    pub fn alpha(&self) -> f64 {
        self.alpha.alpha()
    }

    /// Segment size.
    pub fn mss(&self) -> u32 {
        self.cfg.mss
    }

    /// Bytes in flight on the primary loop.
    pub fn inflight_bytes(&self) -> u64 {
        self.inflight_bytes
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

    /// Bytes known delivered.
    pub fn acked(&self) -> &IntervalSet {
        &self.acked
    }

    /// True once every byte is acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Fully acknowledged prefix.
    pub fn cum_acked(&self) -> u64 {
        self.acked.contiguous_prefix()
    }

    /// The next HCP segment to transmit, honouring the window. Claims the
    /// bytes and tracks the segment; returns `None` when the window is
    /// full or there is nothing (new or lost) to send.
    // simlint: hot-path
    pub fn next_segment(&mut self, now: SimTime) -> Option<SegOut> {
        if self.done {
            return None;
        }
        if self.inflight_bytes + self.cfg.mss as u64 > self.cwnd_bytes().max(self.cfg.mss as u64) {
            return None;
        }
        // Retransmissions first.
        while let Some((offset, len)) = self.retx_queue.pop() {
            if self.acked.contains(offset) {
                continue; // acked in the meantime
            }
            self.track_sent(offset, len, now, true);
            return Some(SegOut { offset, len, retx: true });
        }
        // New data: the next in-order byte that is not yet acknowledged.
        // LCP-delivered (acked) tail ranges are jumped over — the paper's
        // "advancing snd_nxt" on crossing; LCP-sent-but-unacked bytes are
        // NOT skipped, so a lost opportunistic packet is repaired by the
        // primary loop in order rather than waiting out an RTO.
        let (gap_start, gap_end) = self.acked.first_gap(self.hcp_next, self.size)?;
        let len = ((gap_end - gap_start).min(self.cfg.mss as u64)) as u32;
        self.claimed.insert(gap_start, gap_start + len as u64);
        self.hcp_next = gap_start + len as u64;
        self.track_sent(gap_start, len, now, false);
        Some(SegOut { offset: gap_start, len, retx: false })
    }

    fn track_sent(&mut self, offset: u64, len: u32, now: SimTime, retx: bool) {
        let seg = InflightSeg { offset, len, sent_at: now, dup_hits: 0, retx };
        if self.inflight.back().is_none_or(|back| back.offset < offset) {
            self.inflight.push_back(seg);
        } else {
            // A retransmission below what is outstanding; one of an offset
            // that is outstanding (queued twice) takes that segment's place.
            match self.inflight.binary_search_by_key(&offset, |s| s.offset) {
                Ok(at) => self.inflight[at] = seg,
                Err(at) => self.inflight.insert(at, seg),
            }
        }
        self.inflight_bytes += len as u64;
        self.snd_hi = self.snd_hi.max(offset + len as u64);
        self.bytes_sent += len as u64;
        if self.round_end == 0 {
            self.round_end = self.snd_hi;
        }
        self.arm_rto(now);
    }

    /// Process an ACK (cumulative + SACK ranges + ECN echo).
    pub fn on_ack(&mut self, ack: &AckHdr, now: SimTime) -> AckOutcome {
        let mut out = AckOutcome::default();
        if self.done {
            return out;
        }
        let mut newly = self.acked.insert(0, ack.cum);
        for &(s, e) in &ack.sacks {
            newly += self.acked.insert(s, e);
            self.highest_sacked = self.highest_sacked.max(e);
        }
        self.highest_sacked = self.highest_sacked.max(ack.cum);
        out.newly_acked = newly;

        out.rtt_sample = self.clear_covered(ack, now);
        self.update_window(ack, newly, now, &mut out);
        self.fast_retransmit();

        if self.acked.covers(self.size) {
            self.done = true;
            self.inflight.clear();
            self.inflight_bytes = 0;
            self.rto_deadline = SimTime::MAX;
        } else {
            self.arm_rto(now);
        }
        out.done = self.done;
        out
    }

    /// The mode-specific congestion-window reaction to one ACK that newly
    /// covered `newly` bytes. Never reads the in-flight table.
    fn update_window(&mut self, ack: &AckHdr, newly: u64, now: SimTime, out: &mut AckOutcome) {
        let mut mode = std::mem::replace(&mut self.cc_mode, CcMode::Dctcp);
        match &mut mode {
            CcMode::Dctcp => {
                // ECN + α bookkeeping (HCP ACKs only; callers filter LCP ACKs).
                self.alpha.on_ack(newly.max(1), if ack.ece { newly.max(1) } else { 0 });
                if ack.ece {
                    self.ce_in_round = true;
                }
                if newly > 0 {
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
                    self.cwnd = self.cwnd.min(self.cfg.max_cwnd_bytes as f64);
                    self.wmax.observe(self.cwnd as u64);
                    self.rto_backoff = 0;
                }
                // α round boundary: one window of data acknowledged.
                if self.cum_high_water() >= self.round_end && self.round_end > 0 {
                    let alpha = self.alpha.end_of_round();
                    // One multiplicative cut per round at most: ce_in_round
                    // is consumed here and only re-arms on fresh ECE.
                    if self.ce_in_round {
                        self.cwnd = (self.cwnd * self.alpha.cut_factor()).max(self.cfg.mss as f64);
                        self.ssthresh = self.cwnd;
                        self.enter_ca();
                    }
                    self.ce_in_round = false;
                    self.round_end = self.snd_hi.max(self.cum_high_water());
                    out.round_alpha = Some(alpha);
                }
            }
            CcMode::Swift(sw) => {
                if newly > 0 {
                    let delay = now.saturating_since(ack.ts_echo);
                    out.delay_sample = Some(delay);
                    if delay < sw.target {
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
                    } else if now.saturating_since(sw.last_decrease) >= self.cfg.base_rtt {
                        let over = (delay.as_nanos() - sw.target.as_nanos()) as f64
                            / delay.as_nanos().max(1) as f64;
                        let factor = (1.0 - sw.beta * over).max(1.0 - sw.max_mdf);
                        self.cwnd = (self.cwnd * factor).max(self.cfg.mss as f64);
                        self.ssthresh = self.cwnd;
                        sw.last_decrease = now;
                        self.enter_ca();
                    }
                    self.cwnd = self.cwnd.min(self.cfg.max_cwnd_bytes as f64);
                    self.wmax.observe(self.cwnd as u64);
                    self.rto_backoff = 0;
                }
            }
            CcMode::Hpcc(h) => {
                if let Some(int) = &ack.int_echo {
                    let u = h.measure_u(int);
                    if ack.cum > h.last_update_seq {
                        h.wc = self.cwnd;
                        h.inc_stage = 0;
                        h.last_update_seq = self.snd_hi;
                    }
                    if u >= h.eta || h.inc_stage >= h.max_stage {
                        self.cwnd = (h.wc / (u / h.eta).max(1e-3) + h.w_ai)
                            .clamp(self.cfg.mss as f64, self.cfg.max_cwnd_bytes as f64);
                    } else {
                        self.cwnd = (h.wc + h.w_ai).min(self.cfg.max_cwnd_bytes as f64);
                        h.inc_stage += 1;
                    }
                    self.wmax.observe(self.cwnd as u64);
                }
                if newly > 0 {
                    self.rto_backoff = 0;
                }
            }
            CcMode::PowerTcp(p) => {
                if let Some(int) = &ack.int_echo {
                    let power = p.measure_power(int, now);
                    if ack.cum > p.last_update_seq {
                        p.wc = self.cwnd;
                        p.last_update_seq = self.snd_hi;
                    }
                    // w = γ·(w_c/Γ + β) + (1−γ)·w: multiplicative toward
                    // the power-balanced window, additive β probing.
                    self.cwnd = (p.gamma * (p.wc / power.max(1e-3) + p.beta)
                        + (1.0 - p.gamma) * self.cwnd)
                        .clamp(self.cfg.mss as f64, self.cfg.max_cwnd_bytes as f64);
                    self.wmax.observe(self.cwnd as u64);
                }
                if newly > 0 {
                    self.rto_backoff = 0;
                }
            }
        }
        self.cc_mode = mode;
    }

    /// Fast retransmit: segments with enough SACKed data above them. A
    /// segment ending at or below `highest_sacked` starts below it, so
    /// only that prefix of the ring is visited; the lost ones go straight
    /// onto the retransmission queue, in offset order.
    fn fast_retransmit(&mut self) {
        let threshold = self.cfg.dupack_threshold;
        let highest_sacked = self.highest_sacked;
        let queued = self.retx_queue.len();
        extract_range(&mut self.inflight, 0, highest_sacked, |seg| {
            if seg.offset + seg.len as u64 > highest_sacked {
                return false;
            }
            seg.dup_hits = seg.dup_hits.saturating_add(1);
            let lost = seg.dup_hits == threshold;
            if lost {
                self.retx_queue.push((seg.offset, seg.len));
                self.inflight_bytes -= seg.len as u64;
            }
            lost
        });
        if self.retx_queue.len() > queued {
            // One multiplicative cut per loss event.
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
            self.cwnd = self.ssthresh;
            self.enter_ca();
        }
    }

    /// Process a *low-priority* (LCP) ACK: records delivered tail bytes
    /// without feeding congestion control — opportunistic packets must not
    /// inflate α, grow the window, or trigger HCP loss recovery.
    /// Returns the bytes newly covered.
    pub fn on_lcp_ack(&mut self, ack: &AckHdr, now: SimTime) -> u64 {
        if self.done {
            return 0;
        }
        let mut newly = self.acked.insert(0, ack.cum);
        for &(s, e) in &ack.sacks {
            newly += self.acked.insert(s, e);
        }
        // Drop any HCP in-flight segment the LCP ACK happens to cover
        // (possible after crossing) so window accounting stays truthful.
        self.clear_covered(ack, now);
        if self.acked.covers(self.size) {
            self.done = true;
            self.inflight.clear();
            self.inflight_bytes = 0;
            self.rto_deadline = SimTime::MAX;
        }
        newly
    }

    /// Drop every in-flight segment `ack` fully covers — by the cumulative
    /// point (the block `[0, cum)`) or by one SACK block; a partial cover
    /// clears nothing — and return the RTT sample of the lowest-offset one
    /// that was never retransmitted. Segments are found through the
    /// ring's order — the cumulative block pops them off its front — so
    /// the cost follows what the ACK covers, not the window.
    fn clear_covered(&mut self, ack: &AckHdr, now: SimTime) -> Option<SimDuration> {
        let mut sample: Option<(u64, SimTime)> = None;
        let blocks = std::iter::once((0, ack.cum)).chain(ack.sacks.iter().copied());
        for (lo, hi) in blocks.filter(|&(lo, hi)| lo < hi) {
            extract_range(&mut self.inflight, lo, hi, |seg| {
                let covered = seg.offset + seg.len as u64 <= hi;
                if covered {
                    self.inflight_bytes -= seg.len as u64;
                    if !seg.retx && sample.is_none_or(|(lowest, _)| seg.offset < lowest) {
                        sample = Some((seg.offset, seg.sent_at));
                    }
                }
                covered
            });
        }
        sample.map(|(_, sent_at)| now.saturating_since(sent_at))
    }
    // simlint: hot-path-end

    /// Count opportunistic bytes toward the flow's total for priority
    /// aging (§4.2 demotes by bytes sent across both loops).
    pub fn add_sent_bytes(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
    }

    /// Highest fully-acked watermark used for round accounting: the
    /// contiguous prefix plus SACKed ranges beyond it count toward the
    /// round because DCTCP rounds are about feedback coverage, not order.
    fn cum_high_water(&self) -> u64 {
        self.highest_sacked.max(self.cum_acked())
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

    /// Handle an expired RTO timer. Returns true when a timeout action was
    /// taken (caller should then pump the flow and re-arm its timer).
    pub fn on_rto(&mut self, now: SimTime) -> bool {
        if self.done || now < self.rto_deadline {
            return false;
        }
        // Retransmit the first unacked claimed range; collapse the window.
        let gap = self.acked.first_gap(0, self.size);
        let Some((start, end)) = gap else {
            return false;
        };
        // Only retransmit bytes we have actually sent before.
        if !self.claimed.contains(start) {
            // Nothing outstanding — stall was send-side; just re-arm.
            self.arm_rto(now);
            return false;
        }
        let len = (end - start).min(self.cfg.mss as u64) as u32;
        self.retx_queue.push((start, len));
        self.inflight.clear();
        self.inflight_bytes = 0;
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.state = CcState::SlowStart;
        self.rto_backoff += 1;
        self.arm_rto(now);
        true
    }
}

// simlint: hot-path
/// Visit the segments of `ring` whose offsets lie in `[lo, hi)`, in order,
/// and remove those `take` says to — an ordered map's `extract_if` over a
/// key range, for the ring. Segments that stay close up towards `lo`, and
/// one `drain` removes the rest: from the ring's front, a move of its head.
fn extract_range(
    ring: &mut VecDeque<InflightSeg>,
    lo: u64,
    hi: u64,
    mut take: impl FnMut(&mut InflightSeg) -> bool,
) {
    let first = if lo == 0 { 0 } else { ring.partition_point(|seg| seg.offset < lo) };
    let (mut kept, mut at) = (first, first);
    while let Some(seg) = ring.get_mut(at).filter(|seg| seg.offset < hi) {
        if !take(seg) {
            if kept != at {
                let stays = *seg;
                ring[kept] = stays;
            }
            kept += 1;
        }
        at += 1;
    }
    if kept < at {
        ring.drain(kept..at);
    }
}
// simlint: hot-path-end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SackBlocks;

    fn cfg() -> TcpCfg {
        TcpCfg::new(SimDuration::from_micros(80))
    }

    fn flow(size: u64) -> DctcpFlowTx {
        DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), size, cfg())
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
        let mut f = flow(1 << 20);
        let mut sent = 0u64;
        while let Some(seg) = f.next_segment(SimTime::ZERO) {
            sent += seg.len as u64;
        }
        assert_eq!(sent, cfg().init_cwnd_bytes);
        assert_eq!(f.inflight_bytes(), sent);
    }

    #[test]
    fn slow_start_doubles_per_round() {
        let mut f = flow(10 << 20);
        let mut t = SimTime::ZERO;
        // Round 1: send IW, ack it all.
        let mut offs = Vec::new();
        while let Some(seg) = f.next_segment(t) {
            offs.push((seg.offset, seg.len));
        }
        let w0 = f.cwnd_bytes();
        t = SimTime(80_000);
        for (o, l) in offs {
            f.on_ack(&ack(o + l as u64, [(o, o + l as u64)], false), t);
        }
        // cwnd grew by the acked bytes (exponential growth).
        assert_eq!(f.cwnd_bytes(), 2 * w0);
        assert_eq!(f.state(), CcState::SlowStart);
    }

    #[test]
    fn ecn_marks_cut_window_once_per_round() {
        let mut f = flow(10 << 20);
        let mut t = SimTime::ZERO;
        let mut offs = Vec::new();
        while let Some(seg) = f.next_segment(t) {
            offs.push((seg.offset, seg.len));
        }
        t = SimTime(80_000);
        // All ACKs carry ECE: α stays 1 → cut to half at round end.
        let before = f.cwnd_bytes() + cfg().init_cwnd_bytes; // after growth
        for (o, l) in offs {
            f.on_ack(&ack(o + l as u64, [(o, o + l as u64)], true), t);
        }
        // After the round: slow-start growth happened then the cut applied.
        assert!(f.cwnd_bytes() < before, "cwnd must be cut");
        assert_eq!(f.state(), CcState::CongestionAvoidance);
        assert!(f.alpha() > 0.9, "all-marked round drives α up");
    }

    #[test]
    fn sack_holes_trigger_fast_retransmit() {
        let mut f = flow(1 << 20);
        let mut segs = Vec::new();
        while let Some(seg) = f.next_segment(SimTime::ZERO) {
            segs.push(seg);
        }
        assert!(segs.len() >= 5);
        // Lose segment 0: SACK segments 1..=4 (4 dup events > threshold 3).
        let t = SimTime(80_000);
        for seg in segs.iter().skip(1).take(4) {
            f.on_ack(&ack(0, [(seg.offset, seg.offset + seg.len as u64)], false), t);
        }
        // Segment 0 must now be queued for retransmission.
        let next = f.next_segment(SimTime(90_000)).expect("retx segment");
        assert!(next.retx);
        assert_eq!(next.offset, segs[0].offset);
    }

    #[test]
    fn rto_collapses_window_and_retransmits_head() {
        let mut f = flow(1 << 20);
        while f.next_segment(SimTime::ZERO).is_some() {}
        let deadline = f.rto_deadline();
        assert!(deadline > SimTime::ZERO && deadline < SimTime::MAX);
        assert!(f.on_rto(deadline));
        assert_eq!(f.cwnd_bytes(), cfg().mss as u64);
        let seg = f.next_segment(deadline).expect("head retransmit");
        assert!(seg.retx);
        assert_eq!(seg.offset, 0);
        // Backoff doubles the next deadline distance.
        let d2 = f.rto_deadline();
        assert_eq!(d2.saturating_since(deadline).as_nanos(), 2 * cfg().min_rto.as_nanos());
    }

    #[test]
    fn completion_after_all_bytes_acked() {
        let size = 3 * netsim::MSS_BYTES as u64;
        let mut f = flow(size);
        let mut segs = Vec::new();
        while let Some(s) = f.next_segment(SimTime::ZERO) {
            segs.push(s);
        }
        let out = f.on_ack(&ack(size, [], false), SimTime(1));
        assert!(out.done);
        assert!(f.is_done());
        assert_eq!(f.rto_deadline(), SimTime::MAX);
        assert!(f.next_segment(SimTime(2)).is_none());
    }

    #[test]
    fn lcp_acked_tail_is_skipped_by_hcp() {
        // Simulate the PPT crossing: the tail was delivered by LCP and the
        // low-priority ACK arrived — HCP must jump over it.
        let size = 10 * netsim::MSS_BYTES as u64;
        let mut f = flow(size);
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
        f.on_lcp_ack(&lcp_ack, SimTime::ZERO);
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
        let mut f = flow(size);
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
        let mut f = flow(size);
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
        let mut f = flow(1 << 20);
        let mut segs = Vec::new();
        while let Some(s) = f.next_segment(SimTime::ZERO) {
            segs.push(s);
        }
        let last = segs.last().unwrap();
        let out = f.on_ack(&ack(last.offset + last.len as u64, [], false), SimTime(80_000));
        assert!(out.round_alpha.is_some(), "full-window ACK closes the round");
        assert!(out.round_alpha.unwrap() < 1.0);
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

    #[test]
    fn powertcp_power_is_neutral_at_line_rate_and_rises_with_queue_gradient() {
        // 10G, τ = 80µs: C = 1.25e9 B/s, BDP = 100KB, base power = C²τ.
        let mut p = PowerTcpCc::new(SimDuration::from_micros(80), 100_000);
        // First ACK has no per-hop history: neutral power.
        let g = p.measure_power(&[hop(0, 0, 0)], SimTime(0));
        assert!((g - 1.0).abs() < 1e-9, "{g}");
        // Line rate with empty queue is the equilibrium: λ = C, v = BDP,
        // so Γ = C·(C·τ)/(C²·τ) = 1 exactly.
        let g = p.measure_power(&[hop(0, 50_000, 40_000)], SimTime(40_000));
        assert!((g - 1.0).abs() < 1e-6, "{g}");
        // A building queue adds its gradient to the current and its depth
        // to the voltage: power must rise above 1.
        let g = p.measure_power(&[hop(60_000, 100_000, 80_000)], SimTime(80_000));
        assert!(g > 1.0, "{g}");
    }

    #[test]
    fn powertcp_window_tracks_power() {
        let c = cfg();
        let mut f = DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), 100 << 20, c.clone())
            .with_cc_mode(CcMode::PowerTcp(PowerTcpCc::new(c.base_rtt, c.init_cwnd_bytes)));
        while f.next_segment(SimTime::ZERO).is_some() {}
        let w0 = f.cwnd_bytes();
        // Neutral power: the window grows by the γ-weighted β probe.
        let mut a = ack(1460, [(0, 1460)], false);
        a.int_echo = Some(int_stack(hop(0, 0, 0)));
        f.on_ack(&a, SimTime(80_000));
        assert!(f.cwnd_bytes() > w0, "neutral power must leave room for additive growth");
        // High power (queue built fast at line rate): multiplicative cut
        // below the pre-congestion window.
        let mut a = ack(2920, [(1460, 2920)], false);
        a.int_echo = Some(int_stack(hop(100_000, 50_000, 40_000)));
        f.on_ack(&a, SimTime(160_000));
        assert!(f.cwnd_bytes() < w0, "high power must shrink the window, got {}", f.cwnd_bytes());
    }

    #[test]
    fn powertcp_near_zero_power_cannot_blow_past_the_cap() {
        // An ACK after an idle/drained path measures Γ ≈ 0; the wc/Γ
        // term must clamp at max_cwnd_bytes instead of inflating the
        // window a thousandfold (the divisor floor alone allows 1000×).
        let mut c = cfg();
        c.max_cwnd_bytes = 4 * c.init_cwnd_bytes;
        let mut f = DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), 100 << 20, c.clone())
            .with_cc_mode(CcMode::PowerTcp(PowerTcpCc::new(c.base_rtt, c.init_cwnd_bytes)));
        while f.next_segment(SimTime::ZERO).is_some() {}
        // Prime per-hop history, then echo an almost-idle observation:
        // tiny tx delta, empty queue → λ ≈ 0 → Γ ≈ 0 after smoothing.
        let mut a = ack(1460, [(0, 1460)], false);
        a.int_echo = Some(int_stack(hop(0, 0, 0)));
        f.on_ack(&a, SimTime(80_000));
        let mut a = ack(2920, [(1460, 2920)], false);
        a.int_echo = Some(int_stack(hop(0, 1, 160_000)));
        f.on_ack(&a, SimTime(160_000));
        assert!(
            f.cwnd_bytes() <= c.max_cwnd_bytes,
            "near-zero power blew the window to {} (cap {})",
            f.cwnd_bytes(),
            c.max_cwnd_bytes
        );
    }

    // ------------------------------------------------------------
    // Differential test of the ACK path. The reference is the scoreboard
    // this engine ran first: an ordered map of segments by offset, every
    // one of them scanned to clear what an ACK covers and again to count
    // duplicate hits. Everything else (`acked`, the window law, RTO, which
    // segment goes next) is the engine's own code on a second flow, whose
    // ring is emptied into the map after every call that sends.
    // ------------------------------------------------------------

    struct Model {
        flow: DctcpFlowTx,
        inflight: std::collections::BTreeMap<u64, InflightSeg>,
    }

    impl Model {
        /// Move what the flow just tracked into the map: a segment at an
        /// offset that is already there replaces it.
        fn absorb(&mut self) {
            for seg in self.flow.inflight.drain(..) {
                self.inflight.insert(seg.offset, seg);
            }
        }

        fn next_segment(&mut self, now: SimTime) -> Option<SegOut> {
            let seg = self.flow.next_segment(now);
            self.absorb();
            seg
        }

        fn on_rto(&mut self, now: SimTime) -> bool {
            let fired = self.flow.on_rto(now);
            if fired {
                self.inflight.clear();
            }
            fired
        }

        fn clear_covered(&mut self, ack: &AckHdr, now: SimTime) -> Option<SimDuration> {
            let covered: Vec<u64> = self
                .inflight
                .iter()
                .filter(|(&off, seg)| {
                    off + seg.len as u64 <= ack.cum
                        || ack.sacks.iter().any(|&(s, e)| s <= off && off + seg.len as u64 <= e)
                })
                .map(|(&off, _)| off)
                .collect();
            let mut sample = None;
            for off in &covered {
                if let Some(seg) = self.inflight.remove(off) {
                    self.flow.inflight_bytes -= seg.len as u64;
                    if sample.is_none() && !seg.retx {
                        sample = Some(now.saturating_since(seg.sent_at));
                    }
                }
            }
            sample
        }

        fn finish(&mut self) -> bool {
            let f = &mut self.flow;
            if f.acked.covers(f.size) {
                f.done = true;
                self.inflight.clear();
                f.inflight_bytes = 0;
                f.rto_deadline = SimTime::MAX;
            }
            f.done
        }

        fn on_ack(&mut self, ack: &AckHdr, now: SimTime) -> AckOutcome {
            let mut out = AckOutcome::default();
            if self.flow.done {
                return out;
            }
            let f = &mut self.flow;
            let mut newly = f.acked.insert(0, ack.cum);
            for &(s, e) in &ack.sacks {
                newly += f.acked.insert(s, e);
                f.highest_sacked = f.highest_sacked.max(e);
            }
            f.highest_sacked = f.highest_sacked.max(ack.cum);
            out.newly_acked = newly;
            out.rtt_sample = self.clear_covered(ack, now);
            let f = &mut self.flow;
            f.update_window(ack, newly, now, &mut out);

            let mut lost: Vec<(u64, u32)> = Vec::new();
            for (&off, seg) in self.inflight.iter_mut() {
                if off + (seg.len as u64) <= f.highest_sacked {
                    seg.dup_hits = seg.dup_hits.saturating_add(1);
                    if seg.dup_hits == f.cfg.dupack_threshold {
                        lost.push((off, seg.len));
                    }
                }
            }
            if !lost.is_empty() {
                for &(off, len) in &lost {
                    self.inflight.remove(&off);
                    f.inflight_bytes -= len as u64;
                    f.retx_queue.push((off, len));
                }
                f.ssthresh = (f.cwnd / 2.0).max(2.0 * f.cfg.mss as f64);
                f.cwnd = f.ssthresh;
                f.enter_ca();
            }

            if !self.finish() {
                self.flow.arm_rto(now);
            }
            out.done = self.flow.done;
            out
        }

        fn on_lcp_ack(&mut self, ack: &AckHdr, now: SimTime) -> u64 {
            if self.flow.done {
                return 0;
            }
            let mut newly = self.flow.acked.insert(0, ack.cum);
            for &(s, e) in &ack.sacks {
                newly += self.flow.acked.insert(s, e);
            }
            self.clear_covered(ack, now);
            self.finish();
            newly
        }
    }

    /// The ring holds exactly the map's segments, in the map's order, and
    /// every other field of the two flows is equal.
    fn assert_same(real: &DctcpFlowTx, model: &mut Model, what: &str) {
        let offsets: Vec<u64> = real.inflight.iter().map(|seg| seg.offset).collect();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{what}: ring out of order: {offsets:?}");
        model.flow.inflight.extend(model.inflight.values().copied());
        // Debug prints every field, floats to round-trip precision.
        assert_eq!(format!("{real:?}"), format!("{:?}", model.flow), "{what}");
        model.flow.inflight.clear();
    }

    /// Feed `ack` to both flows down the path its `lcp` bit selects.
    fn feed(real: &mut DctcpFlowTx, model: &mut Model, ack: &AckHdr, now: SimTime) {
        if ack.lcp {
            assert_eq!(real.on_lcp_ack(ack, now), model.on_lcp_ack(ack, now), "{ack:?}");
        } else {
            let (a, b) = (real.on_ack(ack, now), model.on_ack(ack, now));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "outcome of {ack:?}");
        }
    }

    #[test]
    fn ack_path_matches_the_full_scan_reference_seeded() {
        let mss = netsim::MSS_BYTES as u64;
        // Paths the streams must reach: a fast retransmit, an RTO, an LCP
        // ACK clearing an HCP segment after the loops crossed, a SACK
        // block straddling a segment boundary, `cum` inside a segment, a
        // SACK block clearing a segment from the middle of the ring while
        // the hole below it stays, a retransmission tracked below the
        // ring's front, and one tracked at an offset that is outstanding.
        let mut reached = [0u32; 8];
        for mode_ix in 0..4u64 {
            for seed in 0..16u64 {
                let mut rng = netsim::Pcg32::seed_from_u64(seed * 4 + mode_ix);
                let mut c = cfg();
                c.init_cwnd_bytes = 24 * mss;
                // Odd seeds end on a partial segment, so tail-first LCP
                // segments never line up with head-first HCP ones.
                let size = 160 * mss + (seed % 2) * 777;
                // Every fourth seed loses a packet in four, not one in sixteen.
                let lossy = seed % 4 == 3;
                let mk = || {
                    let mode = match mode_ix {
                        0 => CcMode::Dctcp,
                        1 => CcMode::Swift(SwiftCc::new(c.base_rtt)),
                        2 => CcMode::Hpcc(HpccCc::new(c.base_rtt, c.init_cwnd_bytes)),
                        _ => CcMode::PowerTcp(PowerTcpCc::new(c.base_rtt, c.init_cwnd_bytes)),
                    };
                    DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), size, c.clone())
                        .with_cc_mode(mode)
                };
                let mut real = mk();
                let mut model = Model { flow: mk(), inflight: Default::default() };
                // What the receiver holds, and the (offset, len, lcp)
                // packets still in the network.
                let mut rcv = IntervalSet::new();
                let mut wire: Vec<(u64, u32, bool)> = Vec::new();
                let mut last_ack: Option<AckHdr> = None;
                let mut now = SimTime::ZERO;
                let mut tx_bytes = 0u64;
                for step in 0..4000 {
                    if real.is_done() {
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
                    let ring: Vec<u64> = real.inflight.iter().map(|seg| seg.offset).collect();
                    // A segment the ACK touches without fully covering.
                    let mut partly_covered: Option<(u64, u32)> = None;
                    match rng.gen_index(16) {
                        // Pump the window dry.
                        0..=3 => {
                            let mut ring = ring;
                            loop {
                                let seg = real.next_segment(now);
                                assert_eq!(seg, model.next_segment(now), "{what}");
                                let Some(seg) = seg else { break };
                                reached[0] += seg.retx as u32;
                                reached[6] += ring.first().is_some_and(|&f| seg.offset < f) as u32;
                                reached[7] += ring.contains(&seg.offset) as u32;
                                ring = real.inflight.iter().map(|seg| seg.offset).collect();
                                wire.push((seg.offset, seg.len, false));
                            }
                            assert_same(&real, &mut model, &what);
                            continue;
                        }
                        // The LCP claims a tail segment of the buffered window.
                        4..=5 => {
                            let limit = size.min(real.cum_acked() + 100 * mss);
                            let claim = real.claim_tail(limit, mss as u32);
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
                        14 if !real.inflight.is_empty() => {
                            let seg = real.inflight[rng.gen_index(real.inflight.len())];
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
                                    let shapes =
                                        [(off + 1, end + 10), (off + 1, end), (off, end - 1)];
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
                        15 if rng.gen_index(4) == 0 && real.rto_deadline() != SimTime::MAX => {
                            now = now.max(real.rto_deadline());
                            let fired = real.on_rto(now);
                            assert_eq!(fired, model.on_rto(now), "{what}");
                            reached[1] += fired as u32;
                            assert!(!fired || real.inflight.is_empty(), "{what}: an RTO clears");
                            assert_same(&real, &mut model, &what);
                            continue;
                        }
                        _ => continue,
                    }
                    feed(&mut real, &mut model, &ack, now);
                    assert_same(&real, &mut model, &what);
                    let outstanding = |off: &u64| real.inflight.iter().any(|s| s.offset == *off);
                    reached[2] +=
                        (ack.lcp && real.inflight.len() < ring.len() && !real.is_done()) as u32;
                    if let [front, middle @ .., _] = &ring[..] {
                        let from_the_middle = middle.iter().any(|off| !outstanding(off));
                        reached[5] += (from_the_middle && outstanding(front)) as u32;
                    }
                    if let Some((off, len)) = partly_covered.filter(|_| !real.is_done()) {
                        // Not cleared: still in flight, or declared lost.
                        assert!(
                            outstanding(&off) || real.retx_queue.contains(&(off, len)),
                            "{what}: a partial cover cleared segment {off}+{len}: {ack:?}"
                        );
                    }
                    last_ack = Some(ack);
                }
            }
        }
        assert!(reached.iter().all(|&n| n > 0), "a path was never exercised: {reached:?}");
    }

    #[test]
    fn window_cap_is_respected() {
        let mut c = cfg();
        c.max_cwnd_bytes = 20 * c.mss as u64;
        let mut f = DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), 100 << 20, c.clone());
        let mut t = 0u64;
        for _ in 0..30 {
            let mut segs = Vec::new();
            while let Some(s) = f.next_segment(SimTime(t)) {
                segs.push(s);
            }
            t += 80_000;
            for s in segs {
                f.on_ack(
                    &ack(s.offset + s.len as u64, [(s.offset, s.offset + s.len as u64)], false),
                    SimTime(t),
                );
            }
            assert!(f.cwnd_bytes() <= c.max_cwnd_bytes);
        }
        assert_eq!(f.cwnd_bytes(), c.max_cwnd_bytes);
    }
}
