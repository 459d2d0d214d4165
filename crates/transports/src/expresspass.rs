//! ExpressPass — credit-scheduled proactive transport (Table 1's
//! "Passive (1st RTT wasted)" row).
//!
//! Simplified to the properties the paper's comparison relies on:
//!
//! * the sender holds data until credits arrive — the first RTT carries
//!   only a credit request, so short flows pay a full extra RTT;
//! * the receiver paces credits at the downlink packet rate (here
//!   slightly de-rated by the credit-efficiency factor the real system
//!   converges to), round-robin across active flows;
//! * each credit releases exactly one data packet, so data queues stay
//!   near-empty by construction.
//!
//! The real system's switch-level credit throttling and feedback control
//! are folded into the receiver-side pacer: on a single-bottleneck path
//! (every topology here bottlenecks at the receiver downlink or a host
//! uplink) the two are equivalent in the steady state.

use std::collections::VecDeque;

use netsim::{Ctx, FlowDesc, FlowId, HostId, Packet, Rate, SimDuration, SimTime, Transport};

use crate::common::{FlowTable, IntervalSet, TableStats, Token};
use crate::proto::{NdpHdr, Proto};

/// Credit pacer tick.
pub const TIMER_EP_CREDIT: u8 = 10;
/// Receiver stall watchdog.
pub const TIMER_EP_WATCHDOG: u8 = 11;
/// Sender-side request retry (covers a lost credit request).
pub const TIMER_EP_REQUEST: u8 = 12;

/// ExpressPass configuration.
#[derive(Clone, Debug)]
pub struct ExpressPassCfg {
    /// Downlink rate credits are paced against.
    pub edge_rate: Rate,
    /// Credit pacing de-rate (the real system's feedback loop converges
    /// close to full utilization; 0.95 is generous and stable).
    pub credit_rate_factor: f64,
    /// Watchdog for stalled incomplete flows.
    pub watchdog: SimDuration,
}

impl ExpressPassCfg {
    /// Credits paced at 0.95 of `edge_rate`.
    pub fn new(edge_rate: Rate, watchdog: SimDuration) -> Self {
        ExpressPassCfg { edge_rate, credit_rate_factor: 0.95, watchdog }
    }
}

struct EpTx {
    id: FlowId,
    src: HostId,
    dst: HostId,
    size: u64,
    sent: u64,
}

struct EpRx {
    peer: HostId,
    size: u64,
    received: IntervalSet,
    /// Credits already issued (bytes authorized).
    credited: u64,
    last_activity: SimTime,
}

/// The ExpressPass endpoint.
///
/// Wire format reuse: credit requests, credits and data ride the
/// [`NdpHdr`] shapes (`Pull` = credit, `Nack` = credit request carrying
/// the message size in `len`'s place is *not* done — requests use
/// `Data { len: 0 }`), since the semantics map one-to-one and the
/// simulator never inspects these fields.
pub struct ExpressPassTransport {
    cfg: ExpressPassCfg,
    mss: u32,
    /// Every sender the host started: nothing tells an ExpressPass sender
    /// that its flow completed, so they stay to the end of the run.
    tx: FlowTable<EpTx>,
    /// Receivers still missing bytes.
    rx: FlowTable<EpRx>,
    /// The completed ones, each with whether it completed *under-credited*
    /// (`credited < size`: a retried request had rewound the credit line):
    /// a late request of such a flow still takes a turn in the credit
    /// round-robin, which skips it.
    rx_done: FlowTable<bool>,
    credit_queue: VecDeque<FlowId>,
    pacer_armed: bool,
}

impl ExpressPassTransport {
    /// New endpoint.
    pub fn new(cfg: ExpressPassCfg, mss: u32) -> Self {
        ExpressPassTransport {
            cfg,
            mss,
            tx: FlowTable::new(),
            rx: FlowTable::new(),
            rx_done: FlowTable::new(),
            credit_queue: VecDeque::new(),
            pacer_armed: false,
        }
    }

    /// Occupancy of the `(sender, receiver)` tables; only the receivers'
    /// follows the flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    fn credit_interval(&self) -> SimDuration {
        let base = self.cfg.edge_rate.serialization_time(netsim::MTU_BYTES as u64);
        SimDuration::from_nanos((base.as_nanos() as f64 / self.cfg.credit_rate_factor) as u64)
    }

    fn arm_pacer(&mut self, ctx: &mut Ctx<'_, Proto>) {
        if !self.pacer_armed && !self.credit_queue.is_empty() {
            self.pacer_armed = true;
            ctx.timer_after(
                self.credit_interval(),
                Token { kind: TIMER_EP_CREDIT, generation: 0, flow: 0 }.encode(),
            );
        }
    }

    fn pacer_tick(&mut self, ctx: &mut Ctx<'_, Proto>) {
        let host = ctx.host();
        let mss = self.mss as u64;
        self.pacer_armed = false;
        while let Some(flow) = self.credit_queue.pop_front() {
            // Completed since it queued, or already fully credited.
            let Some(m) = self.rx.get_mut(flow).filter(|m| m.credited < m.size) else { continue };
            m.credited = (m.credited + mss).min(m.size);
            let peer = m.peer;
            ctx.send(Packet::ctrl(flow, host, peer, Proto::Ndp(NdpHdr::Pull)));
            // Still hungry? go to the back of the round-robin.
            if m.credited < m.size {
                self.credit_queue.push_back(flow);
            }
            break;
        }
        self.arm_pacer(ctx);
    }
}

impl Transport<Proto> for ExpressPassTransport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        self.tx.insert(
            flow.id,
            EpTx { id: flow.id, src: flow.src, dst: flow.dst, size: flow.size_bytes, sent: 0 },
        );
        // Credit request only — the 1st RTT carries no data.
        let hdr = NdpHdr::Data { offset: 0, len: 0, msg_size: flow.size_bytes, retx: false };
        ctx.send(Packet::ctrl(flow.id, flow.src, flow.dst, Proto::Ndp(hdr)));
        // Retry the request if no credit ever arrives (lost request).
        ctx.timer_after(
            self.cfg.watchdog,
            Token { kind: TIMER_EP_REQUEST, generation: 0, flow: flow.id.0 }.encode(),
        );
    }

    fn on_packet(&mut self, pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let Proto::Ndp(hdr) = &pkt.payload else {
            unreachable!("ExpressPass endpoint received an alien packet")
        };
        match hdr {
            // Credit request (len == 0) or data.
            NdpHdr::Data { offset, len, msg_size, retx } => {
                let (offset, len, msg_size, retx) = (*offset, *len, *msg_size, *retx);
                let flow = pkt.flow;
                let now = ctx.now();
                let mut first = false;
                let m = match self.rx.get_mut(flow) {
                    Some(m) => m,
                    None => {
                        if let Some(&under_credited) = self.rx_done.get(flow) {
                            // Late packet of a completed flow.
                            if len == 0 && under_credited {
                                self.credit_queue.push_back(flow);
                                self.arm_pacer(ctx);
                            }
                            return;
                        }
                        first = true;
                        let (size, received) = (msg_size, IntervalSet::new());
                        let m =
                            EpRx { peer: pkt.src, size, received, credited: 0, last_activity: now };
                        self.rx.insert(flow, m)
                    }
                };
                m.last_activity = now;
                if len == 0 {
                    // Request: admit to the credit round-robin. A *retried*
                    // request means the sender is still at byte zero — any
                    // credits we issued were lost, so re-issue from what we
                    // actually hold. (Without this, a lost credit deadlocks:
                    // retries refresh `last_activity`, muzzling the stall
                    // watchdog, while `credited` claims the flow is served.)
                    if retx {
                        m.credited = m.received.covered_bytes();
                    }
                    if first || m.credited < m.size {
                        self.credit_queue.push_back(flow);
                        self.arm_pacer(ctx);
                    }
                    if first {
                        ctx.timer_after(
                            self.cfg.watchdog,
                            Token { kind: TIMER_EP_WATCHDOG, generation: 0, flow: flow.0 }.encode(),
                        );
                    }
                    return;
                }
                m.received.insert(offset, offset + len as u64);
                if m.received.covers(m.size) {
                    let under_credited = m.credited < m.size;
                    ctx.flow_completed(flow);
                    self.rx.retire(flow);
                    self.rx_done.insert(flow, under_credited);
                }
            }
            // Recovery: resend a lost range (stall watchdog path).
            NdpHdr::Nack { offset, len } => {
                let (offset, len) = (*offset, *len);
                let mss = self.mss as u64;
                let Some(tx) = self.tx.get(pkt.flow) else { return };
                let mut off = offset;
                let end = (offset + len as u64).min(tx.size);
                while off < end {
                    let take = ((end - off).min(mss)) as u32;
                    ctx.note_retransmit(tx.id);
                    let hdr =
                        NdpHdr::Data { offset: off, len: take, msg_size: tx.size, retx: true };
                    let p = Packet::data(tx.id, tx.src, tx.dst, take, Proto::Ndp(hdr))
                        .with_priority(1)
                        .without_ecn();
                    ctx.send(p);
                    off += take as u64;
                }
            }
            // Credit: release one data packet.
            NdpHdr::Pull => {
                let mss = self.mss as u64;
                let Some(tx) = self.tx.get_mut(pkt.flow) else { return };
                if tx.sent < tx.size {
                    let len = ((tx.size - tx.sent).min(mss)) as u32;
                    let hdr = NdpHdr::Data { offset: tx.sent, len, msg_size: tx.size, retx: false };
                    let p = Packet::data(tx.id, tx.src, tx.dst, len, Proto::Ndp(hdr))
                        .with_priority(1)
                        .without_ecn();
                    tx.sent += len as u64;
                    ctx.send(p);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        match token.kind {
            TIMER_EP_CREDIT => self.pacer_tick(ctx),
            TIMER_EP_REQUEST => {
                let flow = FlowId(token.flow);
                let Some(tx) = self.tx.get(flow) else { return };
                if tx.sent == 0 && tx.size > 0 {
                    let hdr = NdpHdr::Data { offset: 0, len: 0, msg_size: tx.size, retx: true };
                    ctx.send(Packet::ctrl(tx.id, tx.src, tx.dst, Proto::Ndp(hdr)));
                    ctx.timer_after(
                        self.cfg.watchdog,
                        Token { kind: TIMER_EP_REQUEST, generation: 0, flow: token.flow }.encode(),
                    );
                }
            }
            TIMER_EP_WATCHDOG => {
                let flow = FlowId(token.flow);
                let watchdog = self.cfg.watchdog;
                // A completed flow's watchdog finds nothing and stops.
                let Some(m) = self.rx.get(flow) else { return };
                if ctx.now().saturating_since(m.last_activity) >= watchdog {
                    // Ask the sender to resend every hole below the credit
                    // line — its `sent` pointer only moves forward and the
                    // pacer cannot re-issue spent credits, so recovery must
                    // be an explicit NACK (this also covers lost credits:
                    // the sender treats a NACK as authorization to (re)send
                    // the range).
                    let host = ctx.host();
                    let peer = m.peer;
                    let mut gaps = Vec::new();
                    let mut cursor = 0;
                    let upto = m.received.covered_bytes().max(m.credited).min(m.size);
                    while let Some((s, e)) = m.received.first_gap(cursor, upto) {
                        gaps.push((s, (e - s).min(u32::MAX as u64) as u32));
                        cursor = e;
                    }
                    for (off, len) in gaps {
                        ctx.send(Packet::ctrl(
                            flow,
                            host,
                            peer,
                            Proto::Ndp(NdpHdr::Nack { offset: off, len }),
                        ));
                    }
                    self.credit_queue.push_back(flow);
                    self.arm_pacer(ctx);
                }
                ctx.timer_after(
                    watchdog,
                    Token { kind: TIMER_EP_WATCHDOG, generation: 0, flow: token.flow }.encode(),
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{star, RunLimits, SwitchConfig};

    pub(super) fn install_expresspass(topo: &mut netsim::Topology<Proto>, watchdog: SimDuration) {
        let cfg = ExpressPassCfg::new(topo.edge_rate, watchdog);
        crate::install(topo, || ExpressPassTransport::new(cfg.clone(), netsim::MSS_BYTES));
    }

    fn setup(n: usize) -> netsim::Topology<Proto> {
        star::<Proto>(n, Rate::gbps(10), SimDuration::from_micros(20), SwitchConfig::basic(200_000))
    }

    #[test]
    fn first_rtt_is_wasted_by_design() {
        let mut topo = setup(2);
        install_expresspass(&mut topo, SimDuration::from_millis(1));
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1_000, SimTime::ZERO, 1_000);
        topo.sim.run(RunLimits::default());
        let fct = topo.sim.completion(f).unwrap();
        // Request (1/2 RTT) + credit (1/2 RTT) + data (1/2 RTT) > 1 RTT.
        assert!(fct.as_nanos() > 80_000 + 40_000, "fct={fct} must include the credit round-trip");
    }

    #[test]
    fn credit_clocking_keeps_queues_empty_under_incast() {
        let mut topo = setup(9);
        install_expresspass(&mut topo, SimDuration::from_millis(1));
        for i in 0..8 {
            topo.sim.add_flow(topo.hosts[i], topo.hosts[8], 200_000, SimTime(i as u64 * 100), 1);
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 8);
        assert_eq!(topo.sim.total_counters().dropped, 0, "credit clocking must prevent drops");
    }

    #[test]
    fn large_flow_throughput_near_line_rate() {
        let mut topo = setup(2);
        install_expresspass(&mut topo, SimDuration::from_millis(1));
        let size = 4 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        topo.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        let fct = topo.sim.completion(f).unwrap().as_nanos() as f64;
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos() as f64;
        assert!(fct / ideal < 1.5, "{}x ideal", fct / ideal);
    }

    /// A completed receiver leaves the table; late data and a late credit
    /// request do nothing (the flow completed fully credited), the credit
    /// pacer skips its stale turn, and its watchdog stops.
    #[test]
    fn a_completed_receiver_is_retired_and_late_packets_do_what_they_did() {
        use crate::common::testkit::drive;
        let me = HostId(1);
        let cfg = ExpressPassCfg {
            edge_rate: Rate::gbps(10),
            credit_rate_factor: 0.95,
            watchdog: SimDuration::from_millis(1),
        };
        let mut t = ExpressPassTransport::new(cfg, 1000);
        let pkt_of = |flow: u64, offset: u64, len: u32, msg_size: u64, retx: bool| {
            let hdr = NdpHdr::Data { offset, len, msg_size, retx };
            Packet::ctrl(FlowId(flow), HostId(0), me, Proto::Ndp(hdr))
        };
        let pkt = |len: u32, retx: bool| pkt_of(7, 0, len, 1000, retx);
        let request = drive(SimTime(10), me, |ctx| t.on_packet(pkt(0, false), ctx));
        assert_eq!(request.timers.len(), 2, "credit pacer, then the watchdog");
        let (credit_tick, watchdog) = (request.timers[0], request.timers[1]);
        let credit = drive(credit_tick.0, me, |ctx| t.on_timer(credit_tick.1, ctx));
        assert_eq!(credit.packets.len(), 1);
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
        let done = drive(SimTime(5_000), me, |ctx| t.on_packet(pkt(1000, false), ctx));
        assert_eq!(done.completed, vec![FlowId(7)]);
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });
        assert_eq!(t.rx_done.get(FlowId(7)), Some(&false), "it completed fully credited");

        assert!(drive(SimTime(6_000), me, |ctx| t.on_packet(pkt(1000, true), ctx)).nothing());
        assert!(drive(SimTime(7_000), me, |ctx| t.on_packet(pkt(0, true), ctx)).nothing());
        assert!(drive(watchdog.0, me, |ctx| t.on_timer(watchdog.1, ctx)).nothing());
        // A stale turn in the credit round-robin is skipped.
        t.credit_queue.push_back(FlowId(7));
        assert!(drive(SimTime(8_000), me, |ctx| t.on_timer(credit_tick.1, ctx)).nothing());
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });

        // A flow whose data outran its credit line completes under-credited
        // (a retried request had rewound the line); its late request still
        // takes a turn in the round-robin, which skips it.
        drive(SimTime(9_000), me, |ctx| t.on_packet(pkt_of(8, 0, 0, 2000, false), ctx));
        drive(SimTime(9_100), me, |ctx| t.on_packet(pkt_of(8, 0, 1000, 2000, false), ctx));
        let done =
            drive(SimTime(9_200), me, |ctx| t.on_packet(pkt_of(8, 1000, 1000, 2000, false), ctx));
        assert_eq!(done.completed, vec![FlowId(8)]);
        assert_eq!(t.rx_done.get(FlowId(8)), Some(&true));
        t.credit_queue.clear();
        t.pacer_armed = false;
        let late = drive(SimTime(9_300), me, |ctx| t.on_packet(pkt_of(8, 0, 0, 2000, true), ctx));
        assert!(late.packets.is_empty() && late.completed.is_empty());
        assert_eq!(late.timers.len(), 1, "the late request arms the credit pacer");
        assert!(drive(late.timers[0].0, me, |ctx| t.on_timer(late.timers[0].1, ctx)).nothing());
        assert!(!t.pacer_armed && t.rx.stats().live == 0);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::tests::install_expresspass;
    use super::*;
    use crate::proto::Proto;
    use netsim::{star, RunLimits, SwitchConfig};

    /// Lossy environment: a 30KB switch buffer forces request/credit/data
    /// losses; the two watchdogs must still complete every flow.
    #[test]
    fn expresspass_survives_heavy_loss() {
        let mut topo = star::<Proto>(
            6,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::basic(30_000),
        );
        install_expresspass(&mut topo, SimDuration::from_millis(1));
        for i in 0..40u64 {
            let src = (i % 5) as usize;
            topo.sim.add_flow(
                topo.hosts[src],
                topo.hosts[5],
                10_000 + i * 37_000,
                netsim::SimTime(i * 20_000),
                1,
            );
        }
        let report = topo.sim.run(RunLimits {
            max_time: netsim::SimTime(60_000_000_000),
            max_events: 2_000_000_000,
        });
        assert_eq!(
            report.flows_completed,
            40,
            "ExpressPass stalled {} flows",
            40 - report.flows_completed
        );
    }
}
