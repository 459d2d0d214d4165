//! PPT's low-priority control loop (LCP) as a layer over any [`Hcp`].
//!
//! The two components of §2.3, once, for every high-priority loop:
//!
//! * **Dual-loop rate control (§3).** The HCP is `H`, untouched. The LCP
//!   sends opportunistic packets from the tail of the send buffer: it
//!   opens intermittently (case 1 at flow start, when `H` says so; case 2
//!   whenever `H` reports spare capacity), paces its initial window over
//!   one RTT, then decays exponentially under the EWD ACK clock, ignores
//!   ECE-marked low-priority ACKs, and expires after two silent RTTs.
//! * **Buffer-aware flow scheduling (§4).** Flows whose first syscall
//!   exceeds the identification threshold are tagged large from byte 0;
//!   everyone else starts at the top priority and ages down. HCP packets
//!   use P0–P3, LCP packets mirror at P4–P7.
//!
//! The knobs in [`PptKnobs`](ppt_core::PptKnobs) disable individual pieces
//! to reproduce Figs 15–18, over whichever HCP is underneath.

use netsim::trace::{LcpCloseReason, LcpTrigger};
use netsim::{Ctx, FlowDesc, FlowId, Packet, SimDuration, TraceEvent, Transport};
use ppt_core::{
    initial_window_case1, FlowIdentifier, LcpAction, LcpLoop, LoopTrigger, MirrorTagger, PptConfig,
};

use crate::common::{arm_rto, release_rto, service_rto, FlowTable, TableStats, Token, TIMER_RTO};
use crate::hcp::{low_packet, send_hcp, Case1, Hcp};
use crate::proto::Proto;
use crate::rx::TcpRxTable;
use crate::tcp_base::{DctcpFlowTx, SegOut, TcpCfg};

/// LCP initial-burst pacing tick.
pub const TIMER_LCP_PACE: u8 = 2;
/// LCP liveness check (expiry after 2 silent RTTs).
pub const TIMER_LCP_EXPIRY: u8 = 3;
/// Delayed case-1 open ([`Case1::SecondRtt`]).
pub const TIMER_LCP_DELAYED_OPEN: u8 = 4;

/// The flow-independent half of the endpoint, split from the flow table
/// so per-flow methods can borrow it beside a `&mut LcpFlow`.
struct Layer {
    tcp: TcpCfg,
    cfg: PptConfig,
    tagger: MirrorTagger,
}

struct LcpFlow<H: Hcp> {
    tx: DctcpFlowTx,
    law: H::Law,
    hcp: H,
    identified_large: bool,
    lcp: Option<LcpLoop>,
    /// Bumped whenever a loop closes; stale pace/expiry timers no-op.
    lcp_gen: u16,
    /// Remaining bytes of the paced initial burst.
    pace_remaining: u64,
    pace_interval: SimDuration,
}

impl<H: Hcp> LcpFlow<H> {
    fn token(&self, kind: u8) -> u64 {
        Token { kind, generation: self.lcp_gen, flow: self.tx.id.0 }.encode()
    }

    /// Transmit HCP segments while the window allows, then keep the RTO
    /// timer armed. The window is drained into `scratch` first because
    /// the priority tag ages by bytes sent *including* this burst.
    fn pump_hcp(&mut self, layer: &Layer, scratch: &mut Vec<SegOut>, ctx: &mut Ctx<'_, Proto>) {
        let now = ctx.now();
        scratch.clear();
        while let Some(seg) = self.tx.next_segment(now) {
            scratch.push(seg);
        }
        let prio = if layer.cfg.knobs.scheduling {
            layer.tagger.hcp_priority(self.identified_large, self.tx.bytes_sent)
        } else {
            0
        };
        for &seg in scratch.iter() {
            send_hcp::<H>(&self.tx, seg, prio, ctx);
        }
        arm_rto(&mut self.tx, ctx);
    }

    /// Send one opportunistic packet from the tail of the send buffer.
    /// Returns false when there is nothing left to claim (loops crossed).
    fn send_lcp_segment(&mut self, layer: &Layer, ctx: &mut Ctx<'_, Proto>) -> bool {
        // The LCP reads the TCP write queue from its tail: only bytes
        // currently buffered are reachable (§5.1). The buffered window is
        // [cum_acked, cum_acked + send_buffer).
        let buffer_end =
            self.tx.size.min(self.tx.cum_acked().saturating_add(layer.cfg.send_buffer_bytes));
        let Some((offset, len)) = self.tx.claim_tail(buffer_end, layer.tcp.mss) else {
            return false;
        };
        self.tx.add_sent_bytes(len as u64);
        let prio = if layer.cfg.knobs.scheduling {
            layer.tagger.lcp_priority(self.identified_large, self.tx.bytes_sent)
        } else {
            4
        };
        // The LCP keeps ECN whatever the HCP's signal is: marks on its
        // own packets are how it yields to normal traffic (§3.2).
        let ecn = layer.cfg.knobs.lcp_ecn;
        ctx.send(low_packet(&self.tx, (offset, len), prio, ecn, ctx.now()));
        ctx.emit(TraceEvent::LcpSend { flow: self.tx.id.0, offset, len: len as u64 });
        true
    }

    /// Open an LCP loop with initial window `init_bytes` (no-op when the
    /// window is under one segment or a loop is already running).
    fn open_lcp(
        &mut self,
        layer: &Layer,
        trigger: LoopTrigger,
        init_bytes: u64,
        ctx: &mut Ctx<'_, Proto>,
    ) {
        let mss = layer.tcp.mss as u64;
        let rtt = layer.cfg.base_rtt;
        if self.lcp.is_some() || init_bytes < mss {
            return;
        }
        self.lcp = Some(LcpLoop::open(trigger, init_bytes, ctx.now()));
        ctx.emit(TraceEvent::LcpOpened {
            flow: self.tx.id.0,
            trigger: match trigger {
                LoopTrigger::FlowStart => LcpTrigger::FlowStart,
                LoopTrigger::AlphaMinimum => LcpTrigger::QueueBuildup,
            },
            init_bytes,
        });
        if layer.cfg.knobs.ewd {
            // Pace the initial window at I/RTT: one MSS every mss·RTT/I.
            // The first packet goes out immediately; the timer drives the
            // rest of the burst.
            let interval_ns = (rtt.as_nanos() as u128 * mss as u128 / init_bytes as u128) as u64;
            self.pace_interval = SimDuration::from_nanos(interval_ns.max(1));
            self.pace_remaining = init_bytes;
            if self.send_lcp_segment(layer, ctx) {
                self.pace_remaining -= mss;
                ctx.timer_after(self.pace_interval, self.token(TIMER_LCP_PACE));
            }
        } else {
            // Ablation (Fig 16): no EWD — blast the whole initial window
            // at line rate.
            for _ in 0..init_bytes.div_ceil(mss) {
                if !self.send_lcp_segment(layer, ctx) {
                    break;
                }
            }
        }
        // Liveness check every RTT.
        ctx.timer_after(rtt, self.token(TIMER_LCP_EXPIRY));
    }

    fn close_lcp(&mut self, reason: LcpCloseReason, ctx: &mut Ctx<'_, Proto>) {
        if self.lcp.take().is_some() {
            ctx.emit(TraceEvent::LcpClosed { flow: self.tx.id.0, reason });
        }
        self.lcp_gen = self.lcp_gen.wrapping_add(1);
        self.pace_remaining = 0;
    }
}

/// The dual-loop endpoint (sender + receiver roles): PPT's LCP and flow
/// scheduling over the high-priority loop `H`.
pub struct Lcp<H: Hcp> {
    layer: Layer,
    hcp: H,
    /// Senders still waiting for ACKs: a flow in here is never done.
    tx: FlowTable<LcpFlow<H>>,
    /// Final HCP window of every sender that finished while traced: all
    /// the `CwndUpdate` line of a late ACK needs.
    tx_done: FlowTable<u64>,
    rx: TcpRxTable,
    /// `pump_hcp`'s drained-window buffer, reused across calls.
    scratch: Vec<SegOut>,
}

impl<H: Hcp> Lcp<H> {
    /// Build an endpoint from the PPT configuration; TCP mechanics (MSS,
    /// RTO, initial window) come from `tcp`, the high-priority loop from
    /// `hcp`.
    pub fn new(tcp: TcpCfg, cfg: PptConfig, hcp: H) -> Self {
        Lcp {
            layer: Layer { tagger: MirrorTagger::default(), tcp, cfg },
            hcp,
            tx: FlowTable::new(),
            tx_done: FlowTable::new(),
            rx: TcpRxTable::new(2),
            scratch: Vec::new(),
        }
    }

    /// Occupancy of the `(sender, receiver)` tables: flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    /// Retire `id`, whose last byte was just acknowledged and whose loop is
    /// closed: every timer it still has in the queue finds nothing and is
    /// dropped, as a done flow dropped it.
    fn retire(&mut self, id: FlowId, ctx: &mut Ctx<'_, Proto>) {
        if let Some(f) = self.tx.retire(id) {
            release_rto(&f.tx, ctx);
            if ctx.tracing() {
                self.tx_done.insert(id, f.tx.cwnd_bytes());
            }
        }
    }
}

impl<H: Hcp> Transport<Proto> for Lcp<H> {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let layer = &self.layer;
        // Identification sees what actually lands in the send buffer.
        let first_write = flow.first_write_bytes.min(layer.cfg.send_buffer_bytes);
        let identified_large = layer.cfg.knobs.identification
            && FlowIdentifier::default().is_large_at_start(first_write);
        let (tx, law) = self.hcp.flow_tx(flow, &layer.tcp);
        let f = self.tx.insert(
            flow.id,
            LcpFlow {
                tx,
                law,
                hcp: self.hcp.clone(),
                identified_large,
                lcp: None,
                lcp_gen: 0,
                pace_remaining: 0,
                pace_interval: SimDuration::ZERO,
            },
        );
        f.pump_hcp(layer, &mut self.scratch, ctx);
        match f.hcp.case1(identified_large) {
            Case1::FirstRtt => {
                let init = initial_window_case1(layer.cfg.bdp_bytes(), f.tx.cwnd_bytes());
                f.open_lcp(layer, LoopTrigger::FlowStart, init, ctx);
            }
            Case1::SecondRtt => {
                ctx.timer_after(layer.cfg.base_rtt, f.token(TIMER_LCP_DELAYED_OPEN));
            }
            Case1::Never => {}
        }
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let layer = &self.layer;
        match &pkt.payload {
            Proto::Data(_) => self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) if ack.lcp => {
                let now = ctx.now();
                let Some(f) = self.tx.get_mut(pkt.flow) else {
                    // A late ACK of a finished flow moves nothing, but traces.
                    if self.tx_done.contains(pkt.flow) {
                        let (flow, ece) = (pkt.flow.0, ack.ece);
                        ctx.emit(TraceEvent::LcpAck { flow, ece, sent_new: false });
                    }
                    return;
                };
                f.tx.on_lcp_ack(ack);
                let mut sent_new = false;
                let done = f.tx.is_done();
                if done {
                    f.close_lcp(LcpCloseReason::FlowDone, ctx);
                } else if let Some(lcp) = f.lcp.as_mut() {
                    if lcp.on_low_priority_ack(ack.ece, now) == LcpAction::SendOne {
                        // With EWD, one ACK clocks one packet; the no-EWD
                        // ablation clocks two (rate holds instead of
                        // halving).
                        sent_new = f.send_lcp_segment(layer, ctx);
                        if sent_new && !layer.cfg.knobs.ewd {
                            f.send_lcp_segment(layer, ctx);
                        }
                    }
                }
                ctx.emit(TraceEvent::LcpAck { flow: pkt.flow.0, ece: ack.ece, sent_new });
                if done {
                    self.retire(pkt.flow, ctx);
                }
            }
            Proto::Ack(ack) => {
                let Some(f) = self.tx.get_mut(pkt.flow) else {
                    if let Some(&cwnd) = self.tx_done.get(pkt.flow) {
                        ctx.emit(TraceEvent::CwndUpdate { flow: pkt.flow.0, cwnd });
                    }
                    return;
                };
                let round_alpha = f.tx.on_ack(ack, ctx.now(), &mut f.law);
                if ctx.tracing() {
                    if let Some(alpha) = round_alpha {
                        ctx.emit(TraceEvent::AlphaUpdate { flow: pkt.flow.0, alpha });
                    }
                    ctx.emit(TraceEvent::CwndUpdate { flow: pkt.flow.0, cwnd: f.tx.cwnd_bytes() });
                }
                if f.tx.is_done() {
                    f.close_lcp(LcpCloseReason::FlowDone, ctx);
                    return self.retire(pkt.flow, ctx);
                }
                // Case 2 is judged on the state the ACK left behind, before
                // the pump below refills the window.
                let spare = f.hcp.spare_capacity(&f.tx, &f.law, round_alpha, &layer.cfg);
                f.pump_hcp(layer, &mut self.scratch, ctx);
                if let Some(init) = spare {
                    f.open_lcp(layer, LoopTrigger::AlphaMinimum, init, ctx);
                }
            }
            _ => unreachable!("LCP endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let layer = &self.layer;
        let token = Token::decode(token);
        let Some(f) = self.tx.get_mut(FlowId(token.flow)) else { return };
        match token.kind {
            TIMER_RTO => {
                let timed_out = service_rto(&mut f.tx, ctx);
                if timed_out {
                    f.pump_hcp(layer, &mut self.scratch, ctx);
                }
            }
            TIMER_LCP_PACE => {
                let live = f.lcp.is_some() && f.lcp_gen == token.generation;
                if live && f.pace_remaining > 0 && f.send_lcp_segment(layer, ctx) {
                    f.pace_remaining = f.pace_remaining.saturating_sub(layer.tcp.mss as u64);
                    if f.pace_remaining > 0 {
                        ctx.timer_after(f.pace_interval, f.token(TIMER_LCP_PACE));
                    }
                }
            }
            TIMER_LCP_EXPIRY => {
                let rtt = layer.cfg.base_rtt;
                if f.lcp_gen != token.generation {
                    return;
                }
                let Some(lcp) = f.lcp.as_ref() else { return };
                if !lcp.is_expired(ctx.now(), rtt) {
                    ctx.timer_after(rtt, f.token(TIMER_LCP_EXPIRY));
                } else if lcp.ack_counts().0 == 0 {
                    // Expired without a single LP ACK ever arriving: the
                    // loop's packets (or their ACKs) all died, the §3.2
                    // total-preemption / loss case.
                    f.close_lcp(LcpCloseReason::NoLpAcks, ctx);
                } else {
                    f.close_lcp(LcpCloseReason::Expired, ctx);
                }
            }
            TIMER_LCP_DELAYED_OPEN => {
                // The spare window is the BDP minus what HCP now occupies.
                let init = initial_window_case1(layer.cfg.bdp_bytes(), f.tx.cwnd_bytes());
                f.open_lcp(layer, LoopTrigger::FlowStart, init, ctx);
            }
            _ => {}
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        // The window is the dual-loop total: the HCP congestion window
        // plus the open LCP's window, when one exists. LCP segments claim
        // flow bytes through the shared HCP ledger, so the loop's
        // in-flight is already covered by the HCP's.
        crate::common::cc_snapshot(
            self.tx
                .iter()
                .map(|(_, f)| (&f.tx, f.lcp.as_ref().map_or(0, |l| l.initial_window_bytes()))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::rto_token;
    use crate::common::testkit::{ack, drive};
    use crate::ppt::{DctcpHcp, PptTransport};
    use netsim::{HostId, Rate, SimTime};

    /// The dual-loop sender is retired by whichever ACK finishes it, after
    /// its loop closed and with its RTO timer given up; late ACKs of either
    /// loop trace what they traced for a done flow, and none of its four
    /// timer kinds can do anything any more.
    #[test]
    fn a_finished_dual_loop_sender_is_retired_and_late_events_do_what_they_did() {
        let me = HostId(0);
        let rtt = SimDuration::from_micros(80);
        let cfg = PptConfig::new(Rate::gbps(10), rtt);
        let mut t = PptTransport::new(TcpCfg::new(rtt), cfg, DctcpHcp::default());
        // Big enough that case 1 opens a loop beside the first window.
        let size = 200_000;
        let mut flow = FlowDesc::new(FlowId(3), me, HostId(1), size, SimTime::ZERO);
        flow.first_write_bytes = 1000;
        let start = drive(SimTime::ZERO, me, |ctx| t.on_flow_start(&flow, ctx));
        assert!(start.trace.iter().any(|e| matches!(e, TraceEvent::LcpOpened { .. })));
        let rto_at =
            start.timers.iter().find(|&&(_, tok)| tok == rto_token(3)).expect("RTO armed").0;

        // One low-priority ACK covers everything: the loop closes, the ACK
        // is traced, and only then is the flow retired.
        let at = SimTime(100_000);
        let fin = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), size, true), ctx));
        let closed = TraceEvent::LcpClosed { flow: 3, reason: LcpCloseReason::FlowDone };
        let acked = TraceEvent::LcpAck { flow: 3, ece: false, sent_new: false };
        assert_eq!(fin.trace, vec![closed, acked]);
        assert_eq!(fin.rto_disarms(), vec![3]);
        assert_eq!(t.flow_tables().0, TableStats { live: 0, high_water: 1 });

        let late_lcp = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), size, true), ctx));
        assert_eq!(late_lcp.trace, vec![acked]);
        let late_hcp = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), size, false), ctx));
        let cwnd = t.tx_done.get(FlowId(3)).copied().expect("the final window is kept");
        assert_eq!(late_hcp.trace, vec![TraceEvent::CwndUpdate { flow: 3, cwnd }]);
        for did in [&late_lcp, &late_hcp] {
            assert!(did.packets.is_empty() && did.timers.is_empty() && did.notes.is_empty());
        }
        for kind in [TIMER_RTO, TIMER_LCP_PACE, TIMER_LCP_EXPIRY, TIMER_LCP_DELAYED_OPEN] {
            let token = Token { kind, generation: 0, flow: 3 }.encode();
            assert!(drive(rto_at, me, |ctx| t.on_timer(token, ctx)).nothing(), "timer kind {kind}");
        }
        let stray = drive(at, me, |ctx| t.on_packet(ack(4, (1, 0), size, true), ctx));
        assert!(stray.nothing(), "an ACK for a flow this host never sent is still ignored");
    }
}
