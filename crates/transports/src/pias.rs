//! PIAS — Practical Information-Agnostic flow Scheduling.
//!
//! DCTCP rate control plus multi-level-feedback-queue priority tagging:
//! every flow starts at the highest priority and is demoted as its
//! bytes-sent crosses successive thresholds, approximating SJF without
//! knowing flow sizes. Contrasted with PPT in appendix D (Fig 25): PIAS
//! has no spare-bandwidth filling and demotes large flows only *after*
//! they have pushed a lot of bytes through the high-priority queues.

use netsim::{Ctx, FlowDesc, FlowId, Packet, TraceEvent, Transport};

use crate::common::{arm_rto, release_rto, service_rto, FlowTable, TableStats, Token, TIMER_RTO};
use crate::proto::{DataHdr, IntSlot, Proto};
use crate::rx::TcpRxTable;
use crate::tcp_base::{DctcpFlowTx, TcpCfg};

/// PIAS demotion thresholds: bytes-sent boundaries between the 8 priority
/// levels (7 thresholds). Defaults follow the equal-split spirit of the
/// PIAS paper's web-search settings, scaled geometrically.
#[derive(Clone, Debug)]
pub struct PiasCfg {
    pub thresholds: [u64; 7],
}

impl Default for PiasCfg {
    fn default() -> Self {
        PiasCfg { thresholds: [10_000, 30_000, 80_000, 200_000, 600_000, 2_000_000, 10_000_000] }
    }
}

impl PiasCfg {
    /// Priority level for a flow that has sent `bytes_sent` bytes.
    pub fn priority(&self, bytes_sent: u64) -> u8 {
        self.thresholds.iter().take_while(|&&t| bytes_sent >= t).count() as u8
    }
}

struct PiasFlow {
    tx: DctcpFlowTx,
    /// Last priority the flow's packets were tagged with — only
    /// maintained while tracing, to emit `PiasDemote` on level changes.
    traced_prio: u8,
}

/// The PIAS endpoint.
pub struct PiasTransport {
    tcp: TcpCfg,
    cfg: PiasCfg,
    /// Senders still waiting for ACKs; a finished one leaves nothing.
    tx: FlowTable<PiasFlow>,
    rx: TcpRxTable,
}

impl PiasTransport {
    /// New endpoint.
    pub fn new(tcp: TcpCfg, cfg: PiasCfg) -> Self {
        PiasTransport { tcp, cfg, tx: FlowTable::new(), rx: TcpRxTable::new(1) }
    }

    /// Occupancy of the `(sender, receiver)` tables: flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    fn pump(cfg: &PiasCfg, flow: &mut PiasFlow, ctx: &mut Ctx<'_, Proto>) {
        let now = ctx.now();
        let PiasFlow { tx, traced_prio } = flow;
        let (id, src, dst, size) = (tx.id, tx.src, tx.dst, tx.size);
        while let Some(seg) = tx.next_segment(now) {
            if seg.retx {
                ctx.note_retransmit(id);
            }
            let prio = cfg.priority(tx.bytes_sent);
            if ctx.tracing() {
                if prio > *traced_prio {
                    ctx.emit(TraceEvent::PiasDemote { flow: id.0, from: *traced_prio, to: prio });
                }
                *traced_prio = prio;
            }
            let hdr = DataHdr {
                offset: seg.offset,
                len: seg.len,
                msg_size: size,
                lcp: false,
                retx: seg.retx,
                sent_at: now,
                int: IntSlot::Off,
            };
            ctx.send(Packet::data(id, src, dst, seg.len, Proto::Data(hdr)).with_priority(prio));
        }
        arm_rto(tx, ctx);
    }
}

impl Transport<Proto> for PiasTransport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let tx = DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, self.tcp.clone());
        let flow = self.tx.insert(flow.id, PiasFlow { tx, traced_prio: 0 });
        Self::pump(&self.cfg, flow, ctx);
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        match &pkt.payload {
            Proto::Data(_) => self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) => {
                let Some(flow) = self.tx.get_mut(pkt.flow) else { return };
                flow.tx.on_ack(ack, ctx.now());
                if flow.tx.is_done() {
                    release_rto(&flow.tx, ctx);
                    self.tx.retire(pkt.flow);
                } else {
                    Self::pump(&self.cfg, flow, ctx);
                }
            }
            _ => unreachable!("PIAS endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        if token.kind != TIMER_RTO {
            return;
        }
        let Some(flow) = self.tx.get_mut(FlowId(token.flow)) else { return };
        if service_rto(&mut flow.tx, ctx) {
            Self::pump(&self.cfg, flow, ctx);
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        crate::common::cc_snapshot(self.tx.values().map(|f| (&f.tx, 0)))
    }
}

/// Install PIAS on every host.
pub fn install_pias(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &PiasCfg) {
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Box::new(PiasTransport::new(tcp.clone(), cfg.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{star, Rate, RunLimits, SimDuration, SimTime, SwitchConfig};

    #[test]
    fn demotion_levels() {
        let cfg = PiasCfg::default();
        assert_eq!(cfg.priority(0), 0);
        assert_eq!(cfg.priority(9_999), 0);
        assert_eq!(cfg.priority(10_000), 1);
        assert_eq!(cfg.priority(100_000), 3);
        assert_eq!(cfg.priority(50_000_000), 7);
    }

    #[test]
    fn small_flow_overtakes_large_under_pias() {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mut topo = star::<Proto>(3, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        install_pias(&mut topo, &tcp, &PiasCfg::default());
        let big = topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 8 << 20, SimTime::ZERO, 1);
        let small = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 20_000, SimTime(1_000_000), 1);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
        // The aged-down big flow must not block the young small flow.
        let small_fct = topo.sim.completion(small).unwrap() - SimTime(1_000_000);
        assert!(
            small_fct.as_nanos() < 2_000_000,
            "small flow fct = {}us",
            small_fct.as_micros_f64()
        );
        assert!(topo.sim.completion(big).is_some());
    }
}
