//! The TCP-family endpoint and the two policies that make it a scheme.
//!
//! Every reactive scheme here rides one reliability engine
//! ([`DctcpFlowTx`]: segmentation, SACK, fast retransmit, RTO) and one
//! receiver ([`TcpRxTable`]). [`Hcp`] names what differs between primary
//! loops: how a flow's sender is built (initial window) and which
//! [`WindowLaw`] moves its window, how its data packets are stamped for
//! feedback, and — for PPT — when the case-1 loop opens and what signals
//! spare capacity (case 2). [`Beside`] names what a scheme runs beside the
//! primary loop: PPT's low-priority loop and flow scheduling, PIAS's
//! demotion, RC3's top-up, the §2.3 oracle's fill; `()` is nothing.
//!
//! [`Window<H, L>`] is the endpoint: every TCP-family scheme is an
//! `(H, L)` pair, PPT over DCTCP, Swift and HPCC included (Fig 14,
//! appendix B).

use netsim::{Ctx, Ecn, FlowDesc, FlowId, Packet, SimTime, TraceEvent, Transport};
use ppt_core::PptConfig;

use crate::common::{arm_rto, release_rto, service_rto, FlowTable, TableStats, Token, TIMER_RTO};
use crate::dctcp::MwRecorder;
use crate::proto::{AckHdr, DataHdr, Proto};
use crate::rx::TcpRxTable;
use crate::tcp_base::{DctcpFlowTx, SegOut, TcpCfg, WindowLaw};

/// The feedback channel an HCP's data packets are stamped for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamp {
    /// ECN-capable; switches mark, the receiver echoes ECE (DCTCP).
    Ecn,
    /// Not ECN-capable, no INT: delay (Swift) or loss (TCP-10) is the signal.
    Delay,
    /// Not ECN-capable; carries an INT stack that switches fill and the
    /// receiver echoes (HPCC, PowerTCP).
    Int,
}

/// When PPT's case-1 loop (§3.1, spare bandwidth at flow start) opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Case1 {
    /// With the first window.
    FirstRtt,
    /// One base RTT in, sized to what the HCP then leaves unused.
    SecondRtt,
    /// Not at all: only the case-2 signal opens loops.
    Never,
}

/// What differs between high-priority loops. The endpoint holds one
/// value; what a flow's loop keeps lives in its [`Hcp::Law`] and, for a
/// flow with PPT's loop beside it, its [`Hcp::Detector`].
pub trait Hcp {
    /// How this HCP's data packets are stamped.
    const STAMP: Stamp;
    /// A flow's window law, kept beside its sender.
    type Law: WindowLaw;
    /// A flow's case-2 detector state, beyond what its law keeps; only a
    /// flow with a loop beside it that asks [`Hcp::spare_capacity`] holds one.
    type Detector: Default;

    /// Build a flow's sender (its initial window) and its window law.
    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, Self::Law);

    /// When case 1 opens for a flow (not) identified large at start.
    fn case1(&self, _identified_large: bool) -> Case1 {
        Case1::Never
    }

    /// Case 2, asked after every HCP ACK of a live flow (before the
    /// window is refilled): `Some(initial LCP window)` when what the ACK
    /// just fed `law` — `round_alpha` is what its `on_ack` returned — says
    /// the path has spare capacity.
    fn spare_capacity(
        &self,
        _detector: &mut Self::Detector,
        _tx: &DctcpFlowTx,
        _law: &Self::Law,
        _round_alpha: Option<f64>,
        _cfg: &PptConfig,
    ) -> Option<u64> {
        None
    }
}

/// The context a TCP-family handler or hook acts through.
pub type Cx<'a> = Ctx<'a, Proto>;

/// What a scheme runs beside a flow's primary loop `H`. The endpoint holds
/// one `L`; each flow holds an `L::Flow`. Every hook defaults to nothing.
pub trait Beside<H: Hcp> {
    /// Per-flow state.
    type Flow: Default;
    /// Low-priority data packets the receiver answers with one ACK.
    const LOW_ACK_EVERY: u32 = 1;

    /// A starting flow's state.
    fn flow(&self, _flow: &FlowDesc) -> Self::Flow {
        Self::Flow::default()
    }

    /// The flow's first window is out.
    fn started(&self, _f: &mut Self::Flow, _hcp: &H, _tx: &mut DctcpFlowTx, _ctx: &mut Cx<'_>) {}

    /// Priority of one primary-loop segment of the burst the pump just
    /// drained; `sent` is the flow's `bytes_sent` once it was taken.
    fn hcp_priority(&self, _: &mut Self::Flow, _: &DctcpFlowTx, _sent: u64, _: &mut Cx<'_>) -> u8 {
        0
    }

    /// Asked after every primary-loop ACK that leaves the flow unfinished,
    /// before the pump refills the window: `Some(bytes)` when the ACK says
    /// the path has that much spare capacity, which [`Beside::fill`] gets
    /// once the pump is done.
    fn spare(
        &self,
        _f: &mut Self::Flow,
        _hcp: &H,
        _tx: &DctcpFlowTx,
        _law: &H::Law,
        _round_alpha: Option<f64>,
    ) -> Option<u64> {
        None
    }

    /// Use the spare capacity [`Beside::spare`] found.
    fn fill(&self, _f: &mut Self::Flow, _tx: &mut DctcpFlowTx, _bytes: u64, _ctx: &mut Cx<'_>) {}

    /// A low-priority ACK was applied to `tx` and left it unfinished.
    fn on_low_ack(&self, _f: &mut Self::Flow, _tx: &mut DctcpFlowTx, _: &AckHdr, _: &mut Cx<'_>) {}

    /// A timer of the flow's other than its RTO fired.
    fn on_timer(&self, _f: &mut Self::Flow, _tx: &mut DctcpFlowTx, _token: Token, _: &mut Cx<'_>) {}

    /// An ACK of `flow` that is done: the one that finished it, with its
    /// state (retired next), or a late one of a flow that finished while
    /// traced.
    fn done_ack(&self, _f: Option<&mut Self::Flow>, _flow: FlowId, _ack: &AckHdr, _: &mut Cx<'_>) {}

    /// Window bytes the flow holds beside the primary loop's.
    fn low_window(&self, _f: &Self::Flow) -> u64 {
        0
    }
}

impl<H: Hcp> Beside<H> for () {
    type Flow = ();
}

/// Send the primary-loop segment `seg` at `prio`, stamped for `H`'s
/// feedback channel; a retransmission is noted and traced.
pub(crate) fn send_hcp<H: Hcp>(tx: &DctcpFlowTx, seg: SegOut, prio: u8, ctx: &mut Cx<'_>) {
    if seg.retx {
        ctx.note_retransmit(tx.id);
        ctx.emit(TraceEvent::Retransmit { flow: tx.id.0, offset: seg.offset, len: seg.len as u64 });
    }
    let hdr = DataHdr {
        offset: seg.offset,
        len: seg.len,
        msg_size: tx.size,
        lcp: false,
        retx: seg.retx,
        sent_at: ctx.now(),
        int: None,
    };
    let mut pkt =
        Packet::data(tx.id, tx.src, tx.dst, seg.len, Proto::Data(hdr)).with_priority(prio);
    if H::STAMP != Stamp::Ecn {
        pkt.ecn = Ecn::not_capable();
    }
    if H::STAMP == Stamp::Int {
        pkt = pkt.with_hop_telemetry();
    }
    ctx.send(pkt);
}

/// The low-priority packet for `len` bytes at `offset`, claimed from `tx`'s
/// tail. It never carries INT; `ecn` says whether switches may mark it.
pub(crate) fn low_packet(
    tx: &DctcpFlowTx,
    (offset, len): (u64, u32),
    prio: u8,
    ecn: bool,
    now: SimTime,
) -> Packet<Proto> {
    let hdr =
        DataHdr { offset, len, msg_size: tx.size, lcp: true, retx: false, sent_at: now, int: None };
    let mut pkt = Packet::data(tx.id, tx.src, tx.dst, len, Proto::Data(hdr)).with_priority(prio);
    pkt.ecn = if ecn { Ecn::capable() } else { Ecn::not_capable() };
    pkt
}

/// The TCP-family endpoint (sender + receiver roles): primary loop `H`,
/// `L` beside it.
pub struct Window<H: Hcp, L: Beside<H> = ()> {
    tcp: TcpCfg,
    hcp: H,
    beside: L,
    /// Senders still waiting for ACKs, with their laws.
    tx: FlowTable<(DctcpFlowTx, H::Law, L::Flow)>,
    /// Final window of every sender that finished while traced: all the
    /// `CwndUpdate` line of a late ACK needs.
    tx_done: FlowTable<u64>,
    rx: TcpRxTable,
    mw_recorder: Option<MwRecorder>,
    /// The pump's drained burst, reused across calls.
    scratch: Vec<SegOut>,
}

impl<H: Hcp, L: Beside<H>> Window<H, L> {
    /// New endpoint running `hcp`, with `beside` beside it, over the TCP
    /// mechanics in `tcp`.
    pub fn new(tcp: TcpCfg, hcp: H, beside: L) -> Self {
        Window {
            tcp,
            hcp,
            beside,
            tx: FlowTable::new(),
            tx_done: FlowTable::new(),
            rx: TcpRxTable::new(L::LOW_ACK_EVERY),
            mw_recorder: None,
            scratch: Vec::new(),
        }
    }

    /// Record each completed flow's maximum congestion window into the
    /// shared map (the MW oracle for the hypothetical-DCTCP experiments).
    pub fn with_mw_recorder(mut self, rec: MwRecorder) -> Self {
        self.mw_recorder = Some(rec);
        self
    }

    /// Occupancy of the `(sender, receiver)` tables: flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    /// Transmit segments while the window allows, then keep the RTO timer
    /// armed. The window is drained into `scratch` before any segment is
    /// tagged, so a tag may read the bytes sent through the whole burst.
    fn pump(
        beside: &L,
        scratch: &mut Vec<SegOut>,
        tx: &mut DctcpFlowTx,
        f: &mut L::Flow,
        ctx: &mut Cx<'_>,
    ) {
        let (now, mut sent) = (ctx.now(), tx.bytes_sent);
        scratch.clear();
        while let Some(seg) = tx.next_segment(now) {
            scratch.push(seg);
        }
        for &seg in scratch.iter() {
            // `next_segment` counted each segment's bytes as it took it.
            sent += seg.len as u64;
            let prio = beside.hcp_priority(f, tx, sent, ctx);
            send_hcp::<H>(tx, seg, prio, ctx);
        }
        arm_rto(tx, ctx);
    }
}

impl<H: Hcp, L: Beside<H>> Transport<Proto> for Window<H, L> {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Cx<'_>) {
        let (tx, law) = self.hcp.flow_tx(flow, &self.tcp);
        let (tx, _, f) = self.tx.insert(flow.id, (tx, law, self.beside.flow(flow)));
        Self::pump(&self.beside, &mut self.scratch, tx, f, ctx);
        self.beside.started(f, &self.hcp, tx, ctx);
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Cx<'_>) {
        let ack = match &pkt.payload {
            Proto::Data(_) => return self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) => ack,
            _ => unreachable!("window endpoint received a non-TCP packet"),
        };
        let id = pkt.flow;
        let Some((tx, law, f)) = self.tx.get_mut(id) else {
            // A late ACK of a finished flow moves nothing, but traces.
            if let Some(&cwnd) = self.tx_done.get(id) {
                if !ack.lcp {
                    ctx.emit(TraceEvent::CwndUpdate { flow: id.0, cwnd });
                }
                self.beside.done_ack(None, id, ack, ctx);
            }
            return;
        };
        let mut round_alpha = None;
        if ack.lcp {
            tx.on_lcp_ack(ack);
        } else {
            round_alpha = tx.on_ack(ack, ctx.now(), law);
            if ctx.tracing() {
                if let Some(alpha) = round_alpha {
                    ctx.emit(TraceEvent::AlphaUpdate { flow: id.0, alpha });
                }
                ctx.emit(TraceEvent::CwndUpdate { flow: id.0, cwnd: tx.cwnd_bytes() });
            }
        }
        if tx.is_done() {
            if let Some(rec) = &self.mw_recorder {
                // Prefer the congestion-avoidance MW; flows that never left
                // slow start fall back to the final window.
                let mw = tx.wmax.w_max_bytes().unwrap_or_else(|| tx.cwnd_bytes());
                rec.borrow_mut().insert(id, mw);
            }
            self.beside.done_ack(Some(f), id, ack, ctx);
            release_rto(tx, ctx);
            if ctx.tracing() {
                self.tx_done.insert(id, tx.cwnd_bytes());
            }
            self.tx.retire(id);
        } else if ack.lcp {
            self.beside.on_low_ack(f, tx, ack, ctx);
        } else {
            // Spare capacity is judged on the state the ACK left behind,
            // and used once the pump has refilled the window.
            let spare = self.beside.spare(f, &self.hcp, tx, law, round_alpha);
            Self::pump(&self.beside, &mut self.scratch, tx, f, ctx);
            if let Some(bytes) = spare {
                self.beside.fill(f, tx, bytes, ctx);
            }
        }
    }

    fn on_timer(&mut self, raw: u64, ctx: &mut Cx<'_>) {
        let token = Token::decode(raw);
        let Some((tx, _, f)) = self.tx.get_mut(FlowId(token.flow)) else { return };
        if token.kind != TIMER_RTO {
            self.beside.on_timer(f, tx, token, ctx);
        } else if service_rto(tx, ctx) {
            Self::pump(&self.beside, &mut self.scratch, tx, f, ctx);
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        let flows = self.tx.iter().map(|(_, (tx, _, f))| (tx, self.beside.low_window(f)));
        crate::common::cc_snapshot(flows)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::common::rto_token;
    use crate::common::testkit::{ack, drive, Did};
    use crate::hypothetical::TIMER_HYPO_FILL;
    use crate::ppt::{TIMER_LCP_DELAYED_OPEN, TIMER_LCP_EXPIRY, TIMER_LCP_PACE};
    use crate::rc3::TIMER_RC3_TOPUP;
    use netsim::{HostId, Rate, SimDuration};

    /// Start a flow of `size` bytes on `t`, finish it with one ACK of the
    /// primary loop or (`lcp`) of the low-priority one, and check the sender
    /// was retired — RTO timer given up — and that nothing it left behind
    /// can do anything any more: a late primary-loop ACK traces the final
    /// window, no late ACK sends or arms anything, and neither a timer the
    /// flow armed nor one of any kind an endpoint arms does anything.
    /// Hands back what the start, the finishing ACK and a late
    /// low-priority ACK did, for the checks of what `L` traces.
    pub(crate) fn finish_and_poke<H: Hcp, L: Beside<H>>(
        mut t: Window<H, L>,
        size: u64,
        lcp: bool,
    ) -> [Did; 3] {
        let me = HostId(0);
        // A first write too small to identify the flow as large.
        let mut flow = FlowDesc::new(FlowId(3), me, HostId(1), size, SimTime::ZERO);
        flow.first_write_bytes = 1000;
        let start = drive(SimTime::ZERO, me, |ctx| t.on_flow_start(&flow, ctx));
        let rto_at =
            start.timers.iter().find(|&&(_, tok)| tok == rto_token(3)).expect("RTO armed").0;
        assert_eq!(t.flow_tables().0, TableStats { live: 1, high_water: 1 });
        let at = SimTime(100_000);
        let fin = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), size, lcp), ctx));
        let cwnd = t.tx_done.get(FlowId(3)).copied().expect("the final window is kept");
        if !lcp {
            let traced = fin.trace.last();
            assert_eq!(traced, Some(&TraceEvent::CwndUpdate { flow: 3, cwnd }), "the window");
        }
        assert_eq!(fin.rto_disarms(), vec![3], "retiring gives up the live timer");
        assert!(fin.packets.is_empty() && fin.timers.is_empty());
        assert_eq!(t.flow_tables().0, TableStats { live: 0, high_water: 1 });
        assert_eq!(t.cc_snapshot().flows, 0);
        let late_hcp = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), size, false), ctx));
        assert_eq!(late_hcp.trace, vec![TraceEvent::CwndUpdate { flow: 3, cwnd }]);
        let late_lcp = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), size, true), ctx));
        for late in [&late_hcp, &late_lcp] {
            assert!(late.packets.is_empty() && late.timers.is_empty() && late.notes.is_empty());
        }
        for &(fires_at, token) in &start.timers {
            let did = drive(fires_at, me, |ctx| t.on_timer(token, ctx));
            assert!(did.nothing(), "token {token:#x}");
        }
        let kinds = [TIMER_RTO, TIMER_LCP_PACE, TIMER_LCP_EXPIRY, TIMER_LCP_DELAYED_OPEN];
        for kind in kinds.into_iter().chain([TIMER_RC3_TOPUP, TIMER_HYPO_FILL]) {
            let token = Token { kind, generation: 0, flow: 3 }.encode();
            assert!(drive(rto_at, me, |ctx| t.on_timer(token, ctx)).nothing(), "timer kind {kind}");
        }
        let stray = drive(at, me, |ctx| t.on_packet(ack(4, (1, 0), size, true), ctx));
        assert!(stray.nothing(), "an ACK for a flow this host never sent is still ignored");
        [start, fin, late_lcp]
    }

    /// Every endpoint retires its sender at the last ACK. PPT's, finished
    /// by a low-priority ACK with its loop open, is
    /// `lcp::tests::a_finished_dual_loop_sender_is_retired_and_late_events_do_what_they_did`.
    #[test]
    fn every_window_sender_retires_at_its_last_ack() {
        use crate::{
            DctcpHcp, Halfback, HpccHcp, Oracle, PiasCfg, PowerTcpHcp, Rc3Cfg, SwiftHcp, Tcp10,
        };
        let tcp = TcpCfg::new(SimDuration::from_micros(80));
        let (rate, rtt) = (Rate::gbps(10), tcp.base_rtt);
        let plain = |did: [Did; 3]| assert!(did[2].trace.is_empty(), "a late low ACK traced");
        plain(finish_and_poke(Window::new(tcp.clone(), DctcpHcp, ()), 1000, false));
        plain(finish_and_poke(Window::new(tcp.clone(), Tcp10, ()), 1000, false));
        plain(finish_and_poke(Window::new(tcp.clone(), Halfback, ()), 1000, false));
        plain(finish_and_poke(Window::new(tcp.clone(), SwiftHcp, ()), 1000, false));
        let hpcc = HpccHcp::new(rate, rtt);
        plain(finish_and_poke(Window::new(tcp.clone(), hpcc, ()), 1000, false));
        let powertcp = PowerTcpHcp::new(rate, rtt);
        plain(finish_and_poke(Window::new(tcp.clone(), powertcp, ()), 1000, false));
        let pias = PiasCfg::default();
        plain(finish_and_poke(Window::new(tcp.clone(), DctcpHcp, pias), 1000, false));
        let rc3 = Rc3Cfg { bdp_bytes: 100_000, send_buffer_bytes: 1 << 30 };
        plain(finish_and_poke(Window::new(tcp.clone(), DctcpHcp, rc3), 1000, false));
        let oracle = crate::MwRecorder::default();
        oracle.borrow_mut().insert(FlowId(3), 50_000);
        let oracle = Oracle::new(&oracle, 1.0);
        plain(finish_and_poke(Window::new(tcp, DctcpHcp, oracle), 1000, false));
    }

    /// Start a 1 MB flow on `hcp`, send its first window, then feed it each
    /// `(at, ack)` in turn: what `spare_capacity` says after each.
    fn spare_after<H: Hcp>(hcp: H, acks: &[(SimTime, AckHdr)]) -> Vec<Option<u64>> {
        let tcp = TcpCfg::new(SimDuration::from_micros(80));
        let cfg = PptConfig::new(Rate::gbps(10), tcp.base_rtt);
        let flow = FlowDesc::new(FlowId(3), HostId(0), HostId(1), 1 << 20, SimTime::ZERO);
        let (mut tx, mut law) = hcp.flow_tx(&flow, &tcp);
        let mut detector = H::Detector::default();
        while tx.next_segment(SimTime::ZERO).is_some() {}
        let spare = |(at, ack): &(SimTime, AckHdr)| {
            let round_alpha = tx.on_ack(ack, *at, &mut law);
            hcp.spare_capacity(&mut detector, &tx, &law, round_alpha, &cfg)
        };
        acks.iter().map(spare).collect()
    }

    /// Each HCP's case-2 signal (DESIGN.md §16), driven across its
    /// boundary through the law that feeds it.
    #[test]
    fn each_spare_capacity_signal_flips_at_its_boundary() {
        use crate::proto::{IntHop, IntStack};
        use crate::{DctcpHcp, HpccHcp, SwiftHcp};
        let mss = netsim::MSS_BYTES as u64;
        let us = |n: u64| SimTime(n * 1_000);
        // An ACK up to `cum`, its data sent `delay_us` ago, with INT `hop`.
        let hdr = |cum: u64, ece: bool, at: SimTime, delay_us: u64, hop: Option<IntHop>| AckHdr {
            cum,
            sacks: [].into(),
            ece,
            lcp: false,
            ts_echo: SimTime(at.0 - delay_us * 1_000),
            int_echo: hop.map(|hop| Box::new([hop].into_iter().collect::<IntStack>())),
        };
        // One 10G hop, seen at `at` with `qlen` queued and `tx` sent.
        let hop = |qlen: u64, tx: u64, at: SimTime| IntHop {
            qlen_bytes: qlen,
            qlen_high_bytes: qlen,
            tx_bytes: tx,
            tx_high_bytes: tx,
            ts: at,
            rate_bps: 10_000_000_000,
        };
        let (a, b, c) = (us(200), us(300), us(400));
        let dctcp = spare_after(
            DctcpHcp,
            &[
                // The first round closes in slow start: α = 15/16, a minimum
                // of nothing, but the MW it would fill to is not known yet.
                (a, hdr(mss, false, a, 0, None)),
                // The window's round, all marked: α rises, no minimum (the
                // mark cuts the window, so the flow leaves slow start).
                (b, hdr(10 * mss, true, b, 0, None)),
                // A duplicate closes an unmarked round: α falls to a strict
                // minimum past slow start.
                (c, hdr(10 * mss, false, c, 0, None)),
            ],
        );
        let swift = spare_after(
            SwiftHcp,
            &[
                // Target = 1.5 × 80 µs: 130 µs is over it, 100 µs under.
                (a, hdr(mss, false, a, 130, None)),
                (b, hdr(2 * mss, false, b, 100, None)),
                // A duplicate measures no delay.
                (c, hdr(2 * mss, false, c, 100, None)),
            ],
        );
        // Base RTT 80 µs at 10G: U = qlen / 100 KB + tx rate / line rate.
        let hpcc = spare_after(
            HpccHcp::new(Rate::gbps(10), SimDuration::from_micros(80)),
            &[
                // No history and an empty queue: U = 0, no signal.
                (a, hdr(mss, false, a, 0, Some(hop(0, 0, a)))),
                // Half line rate over the last 100 µs: U = 0.5.
                (b, hdr(2 * mss, false, b, 0, Some(hop(0, 62_500, b)))),
                // 95 KB queued on top: U = 1.45.
                (c, hdr(3 * mss, false, c, 0, Some(hop(95_000, 125_000, c)))),
            ],
        );
        let rows = [
            ("dctcp", dctcp, [false, false, true]),
            ("swift", swift, [false, true, false]),
            ("hpcc", hpcc, [false, true, false]),
        ];
        for (name, spare, want) in rows {
            let got: Vec<bool> = spare.iter().map(Option::is_some).collect();
            assert_eq!(got, want, "{name}: {spare:?}");
        }
    }
}
