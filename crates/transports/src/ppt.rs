//! **PPT** — the paper's pragmatic transport: its low-priority control
//! loop (LCP) and flow scheduling as [`Ppt`], a [`Beside`] policy over any
//! [`Hcp`], and DCTCP as the HCP the paper runs it over.
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
use netsim::{FlowDesc, FlowId, SimDuration, TraceEvent};
use ppt_core::{
    initial_window_case1, initial_window_case2, FlowIdentifier, LcpAction, LcpLoop, MinTracker,
    MirrorTagger, PptConfig, LCP_PACKETS_PER_ACK,
};

use crate::common::Token;
use crate::dctcp::{dctcp_flow, DctcpLaw};
use crate::hcp::{low_packet, Beside, Case1, Cx, Hcp, Stamp, Window};
use crate::proto::AckHdr;
use crate::tcp_base::{DctcpFlowTx, TcpCfg};

/// LCP initial-burst pacing tick.
pub const TIMER_LCP_PACE: u8 = 2;
/// LCP liveness check (expiry after 2 silent RTTs).
pub const TIMER_LCP_EXPIRY: u8 = 3;
/// Delayed case-1 open ([`Case1::SecondRtt`]).
pub const TIMER_LCP_DELAYED_OPEN: u8 = 4;

/// DCTCP as the high-priority loop: ECN-marked, IW from [`TcpCfg`], and
/// "α closed a round at its windowed minimum" as the spare-capacity
/// signal (§3.1 case 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct DctcpHcp;

impl Hcp for DctcpHcp {
    const STAMP: Stamp = Stamp::Ecn;
    type Law = DctcpLaw;
    /// α minima over the paper's [`ppt_core::DEFAULT_MIN_WINDOW`] rounds.
    type Detector = MinTracker;

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, DctcpLaw) {
        dctcp_flow(flow, tcp.clone())
    }

    /// 1st RTT for normal flows, 2nd RTT for identified-large ones (§3.1).
    fn case1(&self, identified_large: bool) -> Case1 {
        if identified_large {
            Case1::SecondRtt
        } else {
            Case1::FirstRtt
        }
    }

    fn spare_capacity(
        &self,
        minima: &mut MinTracker,
        tx: &DctcpFlowTx,
        _: &DctcpLaw,
        round_alpha: Option<f64>,
        cfg: &PptConfig,
    ) -> Option<u64> {
        let alpha = round_alpha?;
        if !minima.push(alpha) || !tx.wmax.past_slow_start() {
            return None;
        }
        // Eq. 2 against the (scaled) MW; §3: LCP + HCP must not exceed it.
        let target = (tx.wmax.w_max_bytes()? as f64 * cfg.knobs.fill) as u64;
        Some(initial_window_case2(alpha, target).min(target.saturating_sub(tx.cwnd_bytes())))
    }
}

/// PPT's LCP and flow scheduling at one configuration (and knobs),
/// beside whichever HCP runs the flow.
#[derive(Clone, Copy, Debug)]
pub struct Ppt {
    pub cfg: PptConfig,
}

impl Ppt {
    /// Send one opportunistic packet from the tail of the send buffer.
    /// Returns false when there is nothing left to claim (loops crossed).
    fn send_lcp_segment<D>(&self, f: &PptFlow<D>, tx: &mut DctcpFlowTx, ctx: &mut Cx<'_>) -> bool {
        // The LCP reads the TCP write queue from its tail: only bytes
        // currently buffered are reachable (§5.1). The buffered window is
        // [cum_acked, cum_acked + send_buffer).
        let buffer_end = tx.size.min(tx.cum_acked().saturating_add(self.cfg.send_buffer_bytes));
        let Some((offset, len)) = tx.claim_tail(buffer_end, tx.mss()) else {
            return false;
        };
        tx.add_sent_bytes(len as u64);
        let prio = if self.cfg.knobs.scheduling {
            MirrorTagger.lcp_priority(f.identified_large, tx.bytes_sent)
        } else {
            4
        };
        // The LCP keeps ECN whatever the HCP's signal is: marks on its
        // own packets are how it yields to normal traffic (§3.2).
        let ecn = self.cfg.knobs.lcp_ecn;
        ctx.send(low_packet(tx, (offset, len), prio, ecn, ctx.now()));
        ctx.emit(TraceEvent::LcpSend { flow: tx.id.0, offset, len: len as u64 });
        true
    }

    /// Open an LCP loop with initial window `init_bytes` (no-op when the
    /// window is under one segment or a loop is already running).
    fn open_lcp<D>(
        &self,
        f: &mut PptFlow<D>,
        tx: &mut DctcpFlowTx,
        trigger: LcpTrigger,
        init_bytes: u64,
        ctx: &mut Cx<'_>,
    ) {
        let mss = tx.mss() as u64;
        let rtt = self.cfg.base_rtt;
        if f.lcp.is_some() || init_bytes < mss {
            return;
        }
        f.lcp = Some(LcpLoop::open(init_bytes, ctx.now()));
        ctx.emit(TraceEvent::LcpOpened { flow: tx.id.0, trigger, init_bytes });
        if self.cfg.knobs.ewd {
            // Pace the initial window at I/RTT: one MSS every mss·RTT/I.
            // The first packet goes out immediately; the timer drives the
            // rest of the burst.
            let interval_ns = (rtt.as_nanos() as u128 * mss as u128 / init_bytes as u128) as u64;
            f.pace_interval = SimDuration::from_nanos(interval_ns.max(1));
            f.pace_remaining = init_bytes;
            if self.send_lcp_segment(f, tx, ctx) {
                f.pace_remaining -= mss;
                ctx.timer_after(f.pace_interval, f.token(tx.id, TIMER_LCP_PACE));
            }
        } else {
            // Ablation (Fig 16): no EWD — blast the whole initial window
            // at line rate.
            for _ in 0..init_bytes.div_ceil(mss) {
                if !self.send_lcp_segment(f, tx, ctx) {
                    break;
                }
            }
        }
        // Liveness check every RTT.
        ctx.timer_after(rtt, f.token(tx.id, TIMER_LCP_EXPIRY));
    }
}

/// A flow's LCP state beside an HCP whose case-2 detector state is `D`.
#[derive(Debug, Default)]
pub struct PptFlow<D> {
    identified_large: bool,
    detector: D,
    lcp: Option<LcpLoop>,
    /// Bumped whenever a loop closes; stale pace/expiry timers no-op.
    lcp_gen: u16,
    /// Remaining bytes of the paced initial burst.
    pace_remaining: u64,
    pace_interval: SimDuration,
}

impl<D> PptFlow<D> {
    fn token(&self, flow: FlowId, kind: u8) -> u64 {
        Token { kind, generation: self.lcp_gen, flow: flow.0 }.encode()
    }

    fn close_lcp(&mut self, flow: FlowId, reason: LcpCloseReason, ctx: &mut Cx<'_>) {
        if self.lcp.take().is_some() {
            ctx.emit(TraceEvent::LcpClosed { flow: flow.0, reason });
        }
        self.lcp_gen = self.lcp_gen.wrapping_add(1);
        self.pace_remaining = 0;
    }
}

impl<H: Hcp> Beside<H> for Ppt {
    type Flow = PptFlow<H::Detector>;
    /// EWD: one low-priority ACK per two opportunistic packets (§3.2).
    const LOW_ACK_EVERY: u32 = LCP_PACKETS_PER_ACK;

    fn flow(&self, flow: &FlowDesc) -> Self::Flow {
        // Identification sees what actually lands in the send buffer.
        let first_write = flow.first_write_bytes.min(self.cfg.send_buffer_bytes);
        let identified_large = self.cfg.knobs.identification
            && FlowIdentifier::default().is_large_at_start(first_write);
        PptFlow { identified_large, ..PptFlow::default() }
    }

    fn started(&self, f: &mut Self::Flow, hcp: &H, tx: &mut DctcpFlowTx, ctx: &mut Cx<'_>) {
        match hcp.case1(f.identified_large) {
            Case1::FirstRtt => {
                let init = initial_window_case1(self.cfg.bdp_bytes(), tx.cwnd_bytes());
                self.open_lcp(f, tx, LcpTrigger::FlowStart, init, ctx);
            }
            Case1::SecondRtt => {
                ctx.timer_after(self.cfg.base_rtt, f.token(tx.id, TIMER_LCP_DELAYED_OPEN));
            }
            Case1::Never => {}
        }
    }

    /// One tag for the whole burst: the level of the bytes sent through
    /// its end, so a burst that crosses a demotion threshold is demoted.
    fn hcp_priority(&self, f: &mut Self::Flow, tx: &DctcpFlowTx, _: u64, _: &mut Cx<'_>) -> u8 {
        if self.cfg.knobs.scheduling {
            MirrorTagger.hcp_priority(f.identified_large, tx.bytes_sent)
        } else {
            0
        }
    }

    fn spare(
        &self,
        f: &mut Self::Flow,
        hcp: &H,
        tx: &DctcpFlowTx,
        law: &H::Law,
        round_alpha: Option<f64>,
    ) -> Option<u64> {
        hcp.spare_capacity(&mut f.detector, tx, law, round_alpha, &self.cfg)
    }

    fn fill(&self, f: &mut Self::Flow, tx: &mut DctcpFlowTx, init: u64, ctx: &mut Cx<'_>) {
        self.open_lcp(f, tx, LcpTrigger::QueueBuildup, init, ctx);
    }

    fn on_low_ack(&self, f: &mut Self::Flow, tx: &mut DctcpFlowTx, ack: &AckHdr, ctx: &mut Cx<'_>) {
        let now = ctx.now();
        let clocked = f.lcp.as_mut().map(|lcp| lcp.on_low_priority_ack(ack.ece, now));
        let mut sent_new = false;
        if clocked == Some(LcpAction::SendOne) {
            // With EWD, one ACK clocks one packet; the no-EWD ablation
            // clocks two (rate holds instead of halving).
            sent_new = self.send_lcp_segment(f, tx, ctx);
            if sent_new && !self.cfg.knobs.ewd {
                self.send_lcp_segment(f, tx, ctx);
            }
        }
        ctx.emit(TraceEvent::LcpAck { flow: tx.id.0, ece: ack.ece, sent_new });
    }

    fn on_timer(&self, f: &mut Self::Flow, tx: &mut DctcpFlowTx, token: Token, ctx: &mut Cx<'_>) {
        let live = f.lcp_gen == token.generation;
        match token.kind {
            TIMER_LCP_PACE => {
                let pacing = live && f.lcp.is_some() && f.pace_remaining > 0;
                if pacing && self.send_lcp_segment(f, tx, ctx) {
                    f.pace_remaining = f.pace_remaining.saturating_sub(tx.mss() as u64);
                    if f.pace_remaining > 0 {
                        ctx.timer_after(f.pace_interval, f.token(tx.id, TIMER_LCP_PACE));
                    }
                }
            }
            TIMER_LCP_EXPIRY => {
                let rtt = self.cfg.base_rtt;
                let Some(lcp) = f.lcp.as_ref().filter(|_| live) else { return };
                if !lcp.is_expired(ctx.now(), rtt) {
                    ctx.timer_after(rtt, f.token(tx.id, TIMER_LCP_EXPIRY));
                } else if lcp.ack_counts().0 == 0 {
                    // Expired without a single LP ACK ever arriving: the
                    // loop's packets (or their ACKs) all died, the §3.2
                    // total-preemption / loss case.
                    f.close_lcp(tx.id, LcpCloseReason::NoLpAcks, ctx);
                } else {
                    f.close_lcp(tx.id, LcpCloseReason::Expired, ctx);
                }
            }
            TIMER_LCP_DELAYED_OPEN => {
                // The spare window is the BDP minus what HCP now occupies.
                let init = initial_window_case1(self.cfg.bdp_bytes(), tx.cwnd_bytes());
                self.open_lcp(f, tx, LcpTrigger::FlowStart, init, ctx);
            }
            _ => {}
        }
    }

    /// The finishing ACK closes the loop; every low-priority one is traced.
    fn done_ack(&self, f: Option<&mut Self::Flow>, id: FlowId, ack: &AckHdr, ctx: &mut Cx<'_>) {
        if let Some(f) = f {
            f.close_lcp(id, LcpCloseReason::FlowDone, ctx);
        }
        if ack.lcp {
            ctx.emit(TraceEvent::LcpAck { flow: id.0, ece: ack.ece, sent_new: false });
        }
    }

    /// The window is the dual-loop total: an open loop's initial window
    /// on top of the HCP's. LCP segments claim flow bytes through the
    /// shared HCP ledger, so the loop's in-flight is already counted.
    fn low_window(&self, f: &Self::Flow) -> u64 {
        f.lcp.as_ref().map_or(0, |l| l.initial_window_bytes())
    }
}

/// The PPT endpoint.
pub type PptTransport = Window<DctcpHcp, Ppt>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use netsim::{star, Rate, SimDuration, SimTime, SwitchConfig};

    fn install_ppt(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &PptConfig) {
        crate::install(topo, || PptTransport::new(tcp.clone(), DctcpHcp, Ppt { cfg: *cfg }));
    }

    fn ppt_testbed(n: usize) -> (netsim::Topology<Proto>, TcpCfg, PptConfig) {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let base_rtt = delay * 4;
        let cfg = PptConfig::new(rate, base_rtt);
        let (k_hi, k_lo) = cfg.ecn_thresholds();
        let topo = star::<Proto>(n, rate, delay, SwitchConfig::ppt(200_000, k_hi, k_lo));
        let tcp = TcpCfg::new(base_rtt);
        (topo, tcp, cfg)
    }

    #[test]
    fn single_small_flow_completes_in_one_rtt_ish() {
        let (mut topo, tcp, cfg) = ppt_testbed(2);
        install_ppt(&mut topo, &tcp, &cfg);
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 5_000, SimTime::ZERO, 5_000);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(20), 100);
        assert_eq!(report.flows_completed, 1);
        let fct = topo.sim.completion(f).unwrap();
        assert!(fct.as_nanos() < 200_000, "small flow fct={fct}");
    }

    #[test]
    fn large_flow_completes_faster_than_dctcp() {
        // One 4MB flow on an idle network: PPT's LCP fills the pipe during
        // slow start, so it must beat plain DCTCP.
        let size = 4 << 20;

        let (mut ppt_topo, tcp, cfg) = ppt_testbed(2);
        install_ppt(&mut ppt_topo, &tcp, &cfg);
        let f =
            ppt_topo.sim.add_flow(ppt_topo.hosts[0], ppt_topo.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut ppt_topo.sim, SimDuration::from_millis(20), 50_000);
        let ppt_fct = ppt_topo.sim.completion(f).expect("ppt flow done");

        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mut dctcp_topo = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        crate::install(&mut dctcp_topo, || crate::DctcpTransport::new(tcp.clone(), DctcpHcp, ()));
        let g = dctcp_topo.sim.add_flow(
            dctcp_topo.hosts[0],
            dctcp_topo.hosts[1],
            size,
            SimTime::ZERO,
            size,
        );
        run_done(&mut dctcp_topo.sim, SimDuration::from_millis(100), 1_000_000);
        let dctcp_fct = dctcp_topo.sim.completion(g).expect("dctcp flow done");

        assert!(
            ppt_fct < dctcp_fct,
            "PPT ({ppt_fct}) must beat DCTCP ({dctcp_fct}) on an idle pipe"
        );
    }

    #[test]
    fn lcp_packets_use_low_priority_band() {
        // Two senders onto one downlink so the egress queue actually
        // builds (on an idle path nothing ever sits in a queue and the
        // sampler would see zeros).
        let (mut topo, tcp, cfg) = ppt_testbed(3);
        install_ppt(&mut topo, &tcp, &cfg);
        let size = 2 << 20;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        // Watch the switch egress port toward the receiver.
        let port = topo
            .sim
            .switch_port_towards(topo.leaves[0], netsim::NodeId::Host(topo.hosts[2]))
            .unwrap();
        topo.sim.enable_telemetry(netsim::TelemetryConfig::new(SimDuration::from_micros(5)));
        run_done(&mut topo.sim, SimDuration::from_millis(20), 50_000);
        let low_band = topo.sim.telemetry().unwrap().port_queue_lp_bytes(topo.leaves[0], port);
        let low_band_bytes: f64 = low_band.points().map(|p| p.value).sum();
        assert!(low_band_bytes > 0.0, "LCP traffic must appear in P4-P7");
    }

    #[test]
    fn many_to_one_all_complete_without_collapse() {
        let (mut topo, tcp, cfg) = ppt_testbed(8);
        install_ppt(&mut topo, &tcp, &cfg);
        for i in 0..7 {
            topo.sim.add_flow(
                topo.hosts[i],
                topo.hosts[7],
                500_000,
                SimTime(i as u64 * 1000),
                500_000,
            );
        }
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 50_000);
        assert_eq!(report.flows_completed, 7, "incast flows must all finish");
    }

    #[test]
    fn small_flows_beat_large_flows_under_contention() {
        let (mut topo, tcp, cfg) = ppt_testbed(4);
        install_ppt(&mut topo, &tcp, &cfg);
        // Two large identified flows hog the path to h3...
        topo.sim.add_flow(topo.hosts[0], topo.hosts[3], 8 << 20, SimTime::ZERO, 8 << 20);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[3], 8 << 20, SimTime::ZERO, 8 << 20);
        // ...then a burst of small flows arrives mid-transfer.
        let mut smalls = Vec::new();
        for i in 0..10u64 {
            smalls.push(topo.sim.add_flow(
                topo.hosts[2],
                topo.hosts[3],
                4_000,
                SimTime(2_000_000 + i * 10_000),
                4_000,
            ));
        }
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 200_000);
        assert_eq!(report.flows_completed, 12);
        for s in smalls {
            let start = topo.sim.flows()[s.0 as usize].start;
            let fct = topo.sim.completion(s).unwrap() - start;
            assert!(
                fct.as_nanos() < 1_000_000,
                "small flow should cut the line, fct={}us",
                fct.as_micros_f64()
            );
        }
    }

    #[test]
    fn ablations_run_to_completion() {
        // The switches belong to the layer, so every HCP under it must
        // honour them — not only DCTCP.
        use crate::{HpccHcp, SwiftHcp};
        type Install = fn(&mut netsim::Topology<Proto>, &TcpCfg, &PptConfig);
        let layered: [(&str, Install); 3] = [
            ("ppt", install_ppt),
            ("swift-ppt", |topo, tcp, cfg| {
                crate::install(topo, || Window::new(tcp.clone(), SwiftHcp, Ppt { cfg: *cfg }))
            }),
            ("hpcc-ppt", |topo, tcp, cfg| {
                let hcp = HpccHcp::new(topo.edge_rate, topo.base_rtt).with_high_band_only();
                crate::install(topo, || Window::new(tcp.clone(), hcp, Ppt { cfg: *cfg }))
            }),
        ];
        for (name, install) in layered {
            for (ecn, ewd, sched, ident) in [
                (false, true, true, true),
                (true, false, true, true),
                (true, true, false, true),
                (true, true, true, false),
            ] {
                let (mut topo, tcp, mut cfg) = ppt_testbed(3);
                cfg.knobs.lcp_ecn = ecn;
                cfg.knobs.ewd = ewd;
                cfg.knobs.scheduling = sched;
                cfg.knobs.identification = ident;
                install(&mut topo, &tcp, &cfg);
                topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 1 << 20, SimTime::ZERO, 1 << 20);
                topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 50_000, SimTime(100_000), 50_000);
                let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 10_000);
                assert_eq!(
                    report.flows_completed, 2,
                    "{name} ablation (ecn={ecn},ewd={ewd},sched={sched},ident={ident}) must still complete"
                );
            }
        }
    }

    #[test]
    fn fill_fraction_sweep_runs() {
        for frac in [0.5, 1.0, 1.5] {
            let (mut topo, tcp, mut cfg) = ppt_testbed(3);
            cfg.knobs.fill = frac;
            install_ppt(&mut topo, &tcp, &cfg);
            topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 2 << 20, SimTime::ZERO, 2 << 20);
            topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 2 << 20, SimTime::ZERO, 2 << 20);
            let report = run_done(&mut topo.sim, SimDuration::from_millis(20), 50_000);
            assert_eq!(report.flows_completed, 2, "fill fraction {frac}");
        }
    }
}
