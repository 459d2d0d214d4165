//! The high-priority control loop (HCP) as an interface.
//!
//! DCTCP, Swift, HPCC and PowerTCP all ride one reliability engine
//! ([`DctcpFlowTx`]: segmentation, SACK, fast retransmit, RTO) and differ
//! in four things only, which [`Hcp`] names: how a flow's sender is built
//! (window law, initial window), how its data packets are stamped for
//! feedback, when PPT's case-1 loop opens at flow start, and what tells
//! the sender the path has spare capacity (PPT's case 2).
//!
//! [`Window<H>`] runs an HCP on its own — that is the HPCC, PowerTCP and
//! Swift endpoint. [`crate::lcp::Lcp<H>`] layers PPT's low-priority loop
//! and flow scheduling over the same `H` (Fig 14, appendix B).

use netsim::{Ctx, Ecn, FlowDesc, FlowId, Packet, SimTime, Transport};
use ppt_core::PptConfig;

use crate::common::{arm_rto, release_rto, service_rto, FlowTable, TableStats, Token, TIMER_RTO};
use crate::proto::{DataHdr, IntSlot, Proto};
use crate::rx::TcpRxTable;
use crate::tcp_base::{AckOutcome, DctcpFlowTx, SegOut, TcpCfg};

/// The feedback channel an HCP's data packets are stamped for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamp {
    /// ECN-capable; switches mark, the receiver echoes ECE (DCTCP).
    Ecn,
    /// Not ECN-capable; the echoed timestamp is the only signal (Swift).
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

/// What differs between high-priority loops. `Lcp` keeps one value per
/// flow (cloned from the endpoint's), so an implementation may hold
/// per-flow detector state; `Window` only ever calls [`Hcp::flow_tx`].
pub trait Hcp: Clone {
    /// How this HCP's data packets are stamped.
    const STAMP: Stamp;

    /// Build a flow's sender: window law and initial window.
    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> DctcpFlowTx;

    /// When case 1 opens for a flow (not) identified large at start.
    fn case1(&self, _identified_large: bool) -> Case1 {
        Case1::Never
    }

    /// Case 2, asked after every HCP ACK of a live flow (before the
    /// window is refilled): `Some(initial LCP window)` when the feedback
    /// just processed says the path has spare capacity.
    fn spare_capacity(
        &mut self,
        _tx: &DctcpFlowTx,
        _ack: &AckOutcome,
        _cfg: &PptConfig,
    ) -> Option<u64> {
        None
    }
}

/// The HCP data packet for `seg`, stamped for `H`'s feedback channel.
pub(crate) fn hcp_packet<H: Hcp>(tx: &DctcpFlowTx, seg: SegOut, now: SimTime) -> Packet<Proto> {
    let hdr = DataHdr {
        offset: seg.offset,
        len: seg.len,
        msg_size: tx.size,
        lcp: false,
        retx: seg.retx,
        sent_at: now,
        int: if H::STAMP == Stamp::Int { IntSlot::Armed } else { IntSlot::Off },
    };
    let mut pkt = Packet::data(tx.id, tx.src, tx.dst, seg.len, Proto::Data(hdr));
    if H::STAMP != Stamp::Ecn {
        pkt.ecn = Ecn::not_capable();
    }
    pkt
}

/// Transmit `flow`'s segments at the top priority while its window
/// allows, then keep the RTO timer armed: the whole send path of an HCP
/// running alone, and the primary-loop half of RC3 and the §2.3 oracle.
pub(crate) fn pump<H: Hcp>(flow: &mut DctcpFlowTx, ctx: &mut Ctx<'_, Proto>) {
    let now = ctx.now();
    while let Some(seg) = flow.next_segment(now) {
        if seg.retx {
            ctx.note_retransmit(flow.id);
        }
        ctx.send(hcp_packet::<H>(flow, seg, now));
    }
    arm_rto(flow, ctx);
}

/// An HCP running alone: one window per flow, single priority.
pub struct Window<H: Hcp> {
    tcp: TcpCfg,
    hcp: H,
    /// Senders still waiting for ACKs; a finished one leaves nothing.
    tx: FlowTable<DctcpFlowTx>,
    rx: TcpRxTable,
}

impl<H: Hcp> Window<H> {
    /// New endpoint running `hcp` over the TCP mechanics in `tcp`.
    pub fn new(tcp: TcpCfg, hcp: H) -> Self {
        Window { tcp, hcp, tx: FlowTable::new(), rx: TcpRxTable::new(1) }
    }

    /// Occupancy of the `(sender, receiver)` tables: flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }
}

impl<H: Hcp> Transport<Proto> for Window<H> {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let tx = self.hcp.flow_tx(flow, &self.tcp);
        pump::<H>(self.tx.insert(flow.id, tx), ctx);
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        match &pkt.payload {
            Proto::Data(_) => self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) => {
                let Some(flow) = self.tx.get_mut(pkt.flow) else { return };
                flow.on_ack(ack, ctx.now());
                if flow.is_done() {
                    release_rto(flow, ctx);
                    self.tx.retire(pkt.flow);
                } else {
                    pump::<H>(flow, ctx);
                }
            }
            _ => unreachable!("window endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        if token.kind != TIMER_RTO {
            return;
        }
        let Some(flow) = self.tx.get_mut(FlowId(token.flow)) else { return };
        if service_rto(flow, ctx) {
            pump::<H>(flow, ctx);
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        crate::common::cc_snapshot(self.tx.values().map(|tx| (tx, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::{ack, drive};
    use netsim::{HostId, SimDuration};

    /// Start one 1 000-byte flow on `t`, finish it with one ACK, and check
    /// the sender was retired — RTO timer given up — and that nothing it
    /// left behind (a late ACK of either loop, every timer it armed) can do
    /// anything any more: these endpoints keep no tombstone.
    fn finish_and_poke<T: Transport<Proto>>(mut t: T, senders: impl Fn(&T) -> TableStats) {
        let me = HostId(0);
        let flow = FlowDesc::new(FlowId(3), me, HostId(1), 1000, SimTime::ZERO);
        let start = drive(SimTime::ZERO, me, |ctx| t.on_flow_start(&flow, ctx));
        assert_eq!(senders(&t), TableStats { live: 1, high_water: 1 });
        let at = SimTime(100_000);
        let fin = drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), 1000, false), ctx));
        assert_eq!(fin.rto_disarms(), vec![3], "retiring gives up the live timer");
        assert!(fin.packets.is_empty() && fin.timers.is_empty());
        assert_eq!(senders(&t), TableStats { live: 0, high_water: 1 });
        assert_eq!(t.cc_snapshot().flows, 0);
        for lcp in [false, true] {
            assert!(drive(at, me, |ctx| t.on_packet(ack(3, (1, 0), 1000, lcp), ctx)).nothing());
        }
        for (fires_at, token) in start.timers {
            assert!(
                drive(fires_at, me, |ctx| t.on_timer(token, ctx)).nothing(),
                "token {token:#x}"
            );
        }
    }

    #[test]
    fn tombstone_free_senders_retire_at_their_last_ack() {
        use crate::{HpccHcp, HypotheticalTransport, PiasTransport, Rc3Transport, SwiftHcp};
        let tcp = TcpCfg::new(SimDuration::from_micros(80));
        finish_and_poke(Window::new(tcp.clone(), SwiftHcp), |t| t.flow_tables().0);
        finish_and_poke(Window::new(tcp.clone(), HpccHcp::new(100_000)), |t| t.flow_tables().0);
        finish_and_poke(PiasTransport::new(tcp.clone(), Default::default()), |t| t.flow_tables().0);
        let rc3 = crate::Rc3Cfg { bdp_bytes: 100_000, send_buffer_bytes: 1 << 30 };
        finish_and_poke(Rc3Transport::new(tcp.clone(), rc3), |t| t.flow_tables().0);
        let oracle = crate::MwRecorder::default();
        oracle.borrow_mut().insert(FlowId(3), 50_000);
        finish_and_poke(HypotheticalTransport::new(tcp, &oracle, 1.0), |t| t.flow_tables().0);
    }
}
