//! The "hypothetical DCTCP" oracle of §2.3.
//!
//! Built exactly as the paper describes: *first* run default DCTCP and
//! record each flow's maximum window (MW) with
//! [`crate::dctcp::MwRecorder`]; *then* run this transport, which sends
//! just enough low-priority opportunistic packets to fill each flow's
//! window gap up to `fill_fraction × MW` every RTT. Fig 2 uses
//! fill_fraction = 1; Fig 3 sweeps 0.5–1.5 and shows both under- and
//! over-filling lose.

use std::collections::BTreeMap;

use netsim::{Ctx, Ecn, FlowDesc, FlowId, Packet, Transport};

use crate::common::{release_rto, service_rto, FlowTable, TableStats, Token, TIMER_RTO};
use crate::dctcp::MwRecorder;
use crate::hcp::pump;
use crate::ppt::DctcpHcp;
use crate::proto::{DataHdr, IntSlot, Proto};
use crate::rx::TcpRxTable;
use crate::tcp_base::{DctcpFlowTx, TcpCfg};

/// Per-RTT oracle fill tick.
pub const TIMER_HYPO_FILL: u8 = 9;

struct HypoFlow {
    hcp: DctcpFlowTx,
    /// The oracle MW from the recording run (None → no filling).
    mw: Option<u64>,
    /// Low-priority bytes in flight.
    lp_inflight: u64,
}

/// The hypothetical-DCTCP endpoint.
pub struct HypotheticalTransport {
    tcp: TcpCfg,
    /// MW oracle recorded from a prior plain-DCTCP run of the *same*
    /// workload (same seeds ⇒ same flow ids): a whole-run lookup, not
    /// per-flow state.
    oracle: BTreeMap<FlowId, u64>,
    fill_fraction: f64,
    /// Senders still waiting for ACKs; a finished one leaves nothing (its
    /// fill tick finds no flow and stops).
    tx: FlowTable<HypoFlow>,
    rx: TcpRxTable,
}

impl HypotheticalTransport {
    /// Build from a recorded oracle.
    pub fn new(tcp: TcpCfg, oracle: &MwRecorder, fill_fraction: f64) -> Self {
        HypotheticalTransport {
            tcp,
            oracle: oracle.borrow().clone(),
            fill_fraction,
            tx: FlowTable::new(),
            rx: TcpRxTable::new(1),
        }
    }

    /// Occupancy of the `(sender, receiver)` tables: flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    /// Once per RTT: send opportunistic tail packets so that
    /// cwnd + lp_inflight ≈ fill_fraction × MW.
    fn fill_tick(tcp: &TcpCfg, fill_fraction: f64, f: &mut HypoFlow, ctx: &mut Ctx<'_, Proto>) {
        let mss = tcp.mss as u64;
        let now = ctx.now();
        let Some(mw) = f.mw else { return };
        let target = (mw as f64 * fill_fraction) as u64;
        let occupied = f.hcp.cwnd_bytes() + f.lp_inflight;
        let mut budget = target.saturating_sub(occupied);
        let (id, src, dst, size) = (f.hcp.id, f.hcp.src, f.hcp.dst, f.hcp.size);
        while budget >= mss {
            let Some((start, len)) = f.hcp.claim_tail(size, tcp.mss) else { break };
            f.lp_inflight += len as u64;
            budget = budget.saturating_sub(len as u64);
            let hdr = DataHdr {
                offset: start,
                len,
                msg_size: size,
                lcp: true,
                retx: false,
                sent_at: now,
                int: IntSlot::Off,
            };
            let mut pkt = Packet::data(id, src, dst, len, Proto::Data(hdr)).with_priority(4);
            pkt.ecn = Ecn::capable();
            ctx.send(pkt);
        }
    }

    /// Retire `id`, whose last byte was just acknowledged.
    fn retire(&mut self, id: FlowId, ctx: &mut Ctx<'_, Proto>) {
        if let Some(f) = self.tx.retire(id) {
            release_rto(&f.hcp, ctx);
        }
    }
}

impl Transport<Proto> for HypotheticalTransport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let hcp = DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, self.tcp.clone());
        let mw = self.oracle.get(&flow.id).copied();
        let f = self.tx.insert(flow.id, HypoFlow { hcp, mw, lp_inflight: 0 });
        pump::<DctcpHcp>(&mut f.hcp, ctx);
        Self::fill_tick(&self.tcp, self.fill_fraction, f, ctx);
        ctx.timer_after(
            self.tcp.base_rtt,
            Token { kind: TIMER_HYPO_FILL, generation: 0, flow: flow.id.0 }.encode(),
        );
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        match &pkt.payload {
            Proto::Data(_) => self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) if ack.lcp => {
                let Some(f) = self.tx.get_mut(pkt.flow) else { return };
                let sacked: u64 = ack.sacks.iter().map(|&(s, e)| e - s).sum();
                f.lp_inflight = f.lp_inflight.saturating_sub(sacked);
                f.hcp.on_lcp_ack(ack, ctx.now());
                if f.hcp.is_done() {
                    self.retire(pkt.flow, ctx);
                }
            }
            Proto::Ack(ack) => {
                let Some(f) = self.tx.get_mut(pkt.flow) else { return };
                f.hcp.on_ack(ack, ctx.now());
                if f.hcp.is_done() {
                    return self.retire(pkt.flow, ctx);
                }
                pump::<DctcpHcp>(&mut f.hcp, ctx);
            }
            _ => unreachable!("hypothetical endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        let Some(f) = self.tx.get_mut(FlowId(token.flow)) else { return };
        match token.kind {
            TIMER_RTO => {
                let timed_out = service_rto(&mut f.hcp, ctx);
                if timed_out {
                    pump::<DctcpHcp>(&mut f.hcp, ctx);
                }
            }
            TIMER_HYPO_FILL => {
                // Lost low-priority packets never get acked; reclaim their
                // budget each RTT.
                f.lp_inflight = 0;
                Self::fill_tick(&self.tcp, self.fill_fraction, f, ctx);
                ctx.timer_after(
                    self.tcp.base_rtt,
                    Token { kind: TIMER_HYPO_FILL, generation: 0, flow: token.flow }.encode(),
                );
            }
            _ => {}
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        crate::common::cc_snapshot(self.tx.values().map(|f| (&f.hcp, 0)))
    }
}

/// Install the hypothetical transport with a previously recorded oracle.
pub fn install_hypothetical(
    topo: &mut netsim::Topology<Proto>,
    tcp: &TcpCfg,
    oracle: &MwRecorder,
    fill_fraction: f64,
) {
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(
            h,
            Box::new(HypotheticalTransport::new(tcp.clone(), oracle, fill_fraction)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dctcp::DctcpTransport;
    use netsim::SimTime;
    use netsim::{star, Rate, RunLimits, SimDuration, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Run DCTCP to record MWs, then the hypothetical filler on the same
    /// workload; the filler must cut the large flow's FCT.
    #[test]
    fn oracle_filling_beats_plain_dctcp() {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mk = || star::<Proto>(3, rate, delay, SwitchConfig::ppt(200_000, 17_000, 10_000));
        let size = 4u64 << 20;

        // Pass 1: record.
        let mut a = mk();
        let tcp = TcpCfg::new(a.base_rtt);
        let rec: MwRecorder = Rc::new(RefCell::new(BTreeMap::new()));
        for &h in &a.hosts.clone() {
            a.sim.set_transport(
                h,
                Box::new(DctcpTransport::new(tcp.clone()).with_mw_recorder(rec.clone())),
            );
        }
        let f1 = a.sim.add_flow(a.hosts[0], a.hosts[2], size, SimTime::ZERO, size);
        let f2 = a.sim.add_flow(a.hosts[1], a.hosts[2], size, SimTime(40_000_000), size);
        a.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        let base1 = a.sim.completion(f1).unwrap();
        let _ = f2;

        // Pass 2: replay with the oracle.
        let mut b = mk();
        install_hypothetical(&mut b, &tcp, &rec, 1.0);
        let g1 = b.sim.add_flow(b.hosts[0], b.hosts[2], size, SimTime::ZERO, size);
        b.sim.add_flow(b.hosts[1], b.hosts[2], size, SimTime(40_000_000), size);
        let report =
            b.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
        let hypo1 = b.sim.completion(g1).unwrap();
        assert!(hypo1 < base1, "oracle filler ({hypo1}) must beat plain DCTCP ({base1})");
    }

    #[test]
    fn flows_without_oracle_entries_degrade_to_dctcp() {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mut topo = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        let rec: MwRecorder = Rc::new(RefCell::new(BTreeMap::new())); // empty oracle
        install_hypothetical(&mut topo, &tcp, &rec, 1.0);
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1 << 20, SimTime::ZERO, 1);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 1);
        assert!(topo.sim.completion(f).is_some());
    }
}
