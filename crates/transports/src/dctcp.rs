//! The DCTCP transport endpoint (the paper's primary reactive baseline
//! and PPT's HCP loop).

// The MwRecorder oracle handle below is the one sanctioned RefCell use:
// a measurement tap, not simulation state (see its doc comment).
// simlint: allow(shared_mut)
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::{Ctx, FlowDesc, FlowId, Packet, TraceEvent, Transport};

use crate::common::{arm_rto, release_rto, service_rto, FlowTable, TableStats, Token};
use crate::proto::{DataHdr, IntSlot, Proto};
use crate::rx::TcpRxTable;
use crate::tcp_base::{DctcpFlowTx, TcpCfg};

// Historical home of the shared TCP-family RTO timer kind.
pub use crate::common::TIMER_RTO;

/// Shared map for recording each flow's maximum window — consumed by the
/// "hypothetical DCTCP" oracle experiments (Fig 2/3/20).
///
/// This is observational plumbing between the measurement pass and the
/// replay pass of a single-threaded experiment, never engine state: no
/// event ordering depends on it, and it will not cross shard boundaries.
// simlint: allow(shared_mut)
pub type MwRecorder = Rc<RefCell<BTreeMap<FlowId, u64>>>;

/// Plain DCTCP: all data at the highest priority, ECN-driven window.
///
/// Two reactive Table-1 baselines are thin variants of this endpoint:
/// *TCP-10* (loss-based TCP with a 10-MSS initial window — ECN disabled)
/// and *Halfback* (TCP-10 plus a line-rate first-RTT blast for flows up
/// to 141 KB).
pub struct DctcpTransport {
    cfg: TcpCfg,
    /// Senders still waiting for ACKs.
    tx: FlowTable<DctcpFlowTx>,
    /// Final window of every finished sender: all the `CwndUpdate` trace
    /// line of a late ACK needs.
    tx_done: FlowTable<u64>,
    rx: TcpRxTable,
    mw_recorder: Option<MwRecorder>,
    /// ECN participation (off for the TCP-10 / Halfback variants: they
    /// react to loss only).
    ecn_enabled: bool,
    /// Halfback: flows up to this size blast their whole payload in the
    /// first RTT.
    first_rtt_blast_cap: Option<u64>,
}

impl DctcpTransport {
    /// New endpoint with the given TCP parameters.
    pub fn new(cfg: TcpCfg) -> Self {
        DctcpTransport {
            cfg,
            tx: FlowTable::new(),
            tx_done: FlowTable::new(),
            rx: TcpRxTable::new(1),
            mw_recorder: None,
            ecn_enabled: true,
            first_rtt_blast_cap: None,
        }
    }

    /// The TCP-10 baseline: IW = 10 MSS, no ECN (loss-driven only).
    pub fn tcp10(cfg: TcpCfg) -> Self {
        let mut t = Self::new(cfg);
        t.ecn_enabled = false;
        t
    }

    /// The Halfback baseline: TCP-10 plus "pace out ≤141 KB flows in the
    /// first RTT" (the paper's §2.1 characterization).
    pub fn halfback(cfg: TcpCfg) -> Self {
        let mut t = Self::tcp10(cfg);
        t.first_rtt_blast_cap = Some(141_000);
        t
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

    fn pump(flow: &mut DctcpFlowTx, ecn: bool, ctx: &mut Ctx<'_, Proto>) {
        let now = ctx.now();
        while let Some(seg) = flow.next_segment(now) {
            if seg.retx {
                ctx.note_retransmit(flow.id);
                ctx.emit(TraceEvent::Retransmit {
                    flow: flow.id.0,
                    offset: seg.offset,
                    len: seg.len as u64,
                });
            }
            let hdr = DataHdr {
                offset: seg.offset,
                len: seg.len,
                msg_size: flow.size,
                lcp: false,
                retx: seg.retx,
                sent_at: now,
                int: IntSlot::Off,
            };
            let mut pkt = Packet::data(flow.id, flow.src, flow.dst, seg.len, Proto::Data(hdr));
            if !ecn {
                pkt = pkt.without_ecn();
            }
            ctx.send(pkt);
        }
        arm_rto(flow, ctx);
    }

    fn record_mw(rec: &Option<MwRecorder>, flow: &DctcpFlowTx) {
        if let Some(rec) = rec {
            // Prefer the congestion-avoidance MW; flows that never left
            // slow start fall back to the final window.
            let mw = flow.wmax.w_max_bytes().unwrap_or_else(|| flow.cwnd_bytes());
            rec.borrow_mut().insert(flow.id, mw);
        }
    }
}

impl Transport<Proto> for DctcpTransport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let mut cfg = self.cfg.clone();
        if let Some(cap) = self.first_rtt_blast_cap {
            if flow.size_bytes <= cap {
                // Halfback: short flows go out at line rate immediately.
                cfg.init_cwnd_bytes = cfg.init_cwnd_bytes.max(flow.size_bytes);
            }
        }
        let tx = DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, cfg);
        Self::pump(self.tx.insert(flow.id, tx), self.ecn_enabled, ctx);
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        match &pkt.payload {
            Proto::Data(_) => self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) => {
                let Some(flow) = self.tx.get_mut(pkt.flow) else {
                    // A late ACK of a finished flow moves nothing, but traces.
                    if let Some(&cwnd) = self.tx_done.get(pkt.flow) {
                        ctx.emit(TraceEvent::CwndUpdate { flow: pkt.flow.0, cwnd });
                    }
                    return;
                };
                let out = flow.on_ack(ack, ctx.now());
                if ctx.tracing() {
                    if let Some(alpha) = out.round_alpha {
                        ctx.emit(TraceEvent::AlphaUpdate { flow: pkt.flow.0, alpha });
                    }
                    ctx.emit(TraceEvent::CwndUpdate { flow: pkt.flow.0, cwnd: flow.cwnd_bytes() });
                }
                if flow.is_done() {
                    Self::record_mw(&self.mw_recorder, flow);
                    release_rto(flow, ctx);
                    self.tx_done.insert(pkt.flow, flow.cwnd_bytes());
                    self.tx.retire(pkt.flow);
                } else {
                    Self::pump(flow, self.ecn_enabled, ctx);
                }
            }
            _ => unreachable!("DCTCP endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        if token.kind != TIMER_RTO {
            return;
        }
        let Some(flow) = self.tx.get_mut(FlowId(token.flow)) else { return };
        if service_rto(flow, ctx) {
            Self::pump(flow, self.ecn_enabled, ctx);
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        crate::common::cc_snapshot(self.tx.values().map(|tx| (tx, 0)))
    }
}

/// Convenience: install a fresh DCTCP endpoint on every host of a
/// topology.
pub fn install_dctcp(topo: &mut netsim::Topology<Proto>, cfg: &TcpCfg) {
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Box::new(DctcpTransport::new(cfg.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{star, Rate, RunLimits, SimDuration, SimTime, SwitchConfig};

    fn testbed(n: usize, k_bytes: u64) -> netsim::Topology<Proto> {
        star(n, Rate::gbps(10), SimDuration::from_micros(20), SwitchConfig::dctcp(200_000, k_bytes))
    }

    #[test]
    fn single_flow_completes_quickly() {
        let mut topo = testbed(2, 100_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        let size = 1 << 20; // 1MB
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        let report = topo.sim.run(RunLimits::default());
        assert_eq!(report.flows_completed, 1, "flow must complete");
        let fct = topo.sim.completion(f).unwrap();
        // Ideal: ~860us serialization + slow-start ramp. Allow 5x ideal.
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos();
        assert!(fct.as_nanos() < 5 * ideal + 2_000_000, "fct={fct}");
    }

    #[test]
    fn many_flows_all_complete() {
        let mut topo = testbed(4, 60_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        for i in 0..20u64 {
            let src = (i % 3) as usize;
            topo.sim.add_flow(
                topo.hosts[src],
                topo.hosts[3],
                50_000 + i * 10_000,
                SimTime(i * 50_000),
                1,
            );
        }
        let report =
            topo.sim.run(RunLimits { max_time: SimTime(5_000_000_000), max_events: 200_000_000 });
        assert_eq!(report.flows_completed, 20);
    }

    #[test]
    fn ecn_keeps_queue_bounded_and_avoids_drops() {
        // Two long flows share a 10G bottleneck with K = 30KB and a 200KB
        // buffer: DCTCP should hold the queue near K with zero drops.
        let mut topo = testbed(3, 30_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        let size = 10 << 20;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        let report =
            topo.sim.run(RunLimits { max_time: SimTime(10_000_000_000), max_events: 500_000_000 });
        assert_eq!(report.flows_completed, 2);
        let c = topo.sim.total_counters();
        assert_eq!(c.dropped, 0, "ECN should prevent drops: {c:?}");
        assert!(c.marked > 0, "marks must have occurred");
    }

    #[test]
    fn loss_is_recovered_via_sack_or_rto() {
        // Tiny buffer without ECN: drops happen, flow must still finish.
        let mut topo = star::<Proto>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::basic(15_000),
        );
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        let size = 2 << 20;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        let report =
            topo.sim.run(RunLimits { max_time: SimTime(30_000_000_000), max_events: 500_000_000 });
        let c = topo.sim.total_counters();
        assert!(c.dropped > 0, "expected drops with a 15KB buffer");
        assert_eq!(report.flows_completed, 2, "flows must survive losses");
    }

    #[test]
    fn mw_recorder_captures_windows() {
        let mut topo = testbed(3, 30_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        let rec: MwRecorder = Rc::new(RefCell::new(BTreeMap::new()));
        for &h in &topo.hosts.clone() {
            topo.sim.set_transport(
                h,
                Box::new(DctcpTransport::new(cfg.clone()).with_mw_recorder(rec.clone())),
            );
        }
        let size = 10 << 20;
        let f1 = topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        let f2 = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.run(RunLimits { max_time: SimTime(10_000_000_000), max_events: 500_000_000 });
        let rec = rec.borrow();
        assert!(rec.contains_key(&f1) && rec.contains_key(&f2));
        assert!(rec[&f1] >= netsim::MSS_BYTES as u64);
    }

    /// A sender is retired by the ACK that finishes it — with the simsan
    /// ledger told its live RTO timer is given up — and what arrives later
    /// does what it did to a done flow: an ACK traces the frozen window,
    /// the timer's fire is dropped.
    #[test]
    fn a_finished_sender_is_retired_and_late_events_do_what_they_did() {
        use crate::common::rto_token;
        use crate::common::testkit::{ack, drive};
        use netsim::HostId;
        let me = HostId(0);
        let mut t = DctcpTransport::new(TcpCfg::new(SimDuration::from_micros(80)));
        let flow = netsim::FlowDesc::new(FlowId(3), me, HostId(1), 1000, SimTime::ZERO);
        let start = drive(SimTime::ZERO, me, |ctx| t.on_flow_start(&flow, ctx));
        assert_eq!((start.packets.len(), start.timers.len()), (1, 1));
        let rto_at = start.timers[0].0;
        assert_eq!(t.flow_tables().0, TableStats { live: 1, high_water: 1 });

        let fin = drive(SimTime(100_000), me, |ctx| t.on_packet(ack(3, (1, 0), 1000, false), ctx));
        let cwnd = match fin.trace.last() {
            Some(&TraceEvent::CwndUpdate { flow: 3, cwnd }) => cwnd,
            other => panic!("the finishing ACK traces the window, got {other:?}"),
        };
        assert_eq!(fin.rto_disarms(), vec![3], "retiring gives up the live timer");
        assert!(fin.packets.is_empty() && fin.timers.is_empty());
        assert_eq!(t.flow_tables().0, TableStats { live: 0, high_water: 1 });
        assert_eq!(t.cc_snapshot().flows, 0);

        // A duplicate of that ACK: the same one trace line a done flow emitted.
        let late = drive(SimTime(150_000), me, |ctx| t.on_packet(ack(3, (1, 0), 1000, false), ctx));
        assert_eq!(late.trace, vec![TraceEvent::CwndUpdate { flow: 3, cwnd }]);
        assert!(late.packets.is_empty() && late.timers.is_empty() && late.notes.is_empty());
        // The timer it left in the queue fires into nothing.
        assert!(drive(rto_at, me, |ctx| t.on_timer(rto_token(3), ctx)).nothing());
        // An ACK for a flow this host never sent is still ignored.
        let stray = drive(rto_at, me, |ctx| t.on_packet(ack(4, (1, 0), 1000, false), ctx));
        assert!(stray.nothing());
    }
}
