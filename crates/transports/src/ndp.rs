//! NDP — re-architected datacenter transport with packet trimming and
//! receiver-driven pulls.
//!
//! * Senders blast the first window (one BDP) at line rate; everything
//!   after that is released one packet per PULL.
//! * Switches trim data packets to headers beyond a shallow queue
//!   threshold (see [`netsim::SwitchConfig::ndp`]); trimmed headers jump
//!   to the control queue, so the receiver learns about every would-be
//!   loss in one RTT and NACKs it back onto the sender's retransmit queue.
//! * Receivers pace PULLs at the downlink packet rate, round-robin across
//!   active flows, which clocks senders at exactly the bottleneck rate.
//!
//! The paper's characterization (§2.1, Table 1): passive first-RTT use
//! (trimmed payloads waste the capacity they occupied) but graceful
//! steady-state behaviour under incast.

use std::collections::VecDeque;

use netsim::{Ctx, FlowDesc, FlowId, HostId, Packet, Rate, SimDuration, SimTime, Transport};

use crate::common::{FlowTable, IntervalSet, TableStats, Token};
use crate::proto::{NdpHdr, Proto};

/// Receiver pull-pacer tick.
pub const TIMER_NDP_PULL: u8 = 7;
/// Receiver stall watchdog.
pub const TIMER_NDP_WATCHDOG: u8 = 8;

/// NDP configuration.
#[derive(Clone, Debug)]
pub struct NdpCfg {
    /// First-window size (one BDP).
    pub initial_window_bytes: u64,
    /// Downlink rate the pull pacer clocks against.
    pub edge_rate: Rate,
    /// Watchdog interval for stalled incomplete flows.
    pub watchdog: SimDuration,
}

impl NdpCfg {
    /// The initial window is the BDP of the edge link.
    pub fn new(edge_rate: Rate, base_rtt: SimDuration, watchdog: SimDuration) -> Self {
        NdpCfg { initial_window_bytes: netsim::bdp_bytes(edge_rate, base_rtt), edge_rate, watchdog }
    }
}

struct NdpTx {
    id: FlowId,
    src: HostId,
    dst: HostId,
    size: u64,
    /// Next new byte.
    sent: u64,
    /// NACKed ranges awaiting a pull.
    retx_queue: VecDeque<(u64, u32)>,
}

struct NdpRx {
    peer: HostId,
    size: u64,
    received: IntervalSet,
    last_activity: SimTime,
}

/// The NDP endpoint.
pub struct NdpTransport {
    cfg: NdpCfg,
    mss: u32,
    /// Every sender the host started: nothing tells an NDP sender that its
    /// flow completed, so they stay to the end of the run.
    tx: FlowTable<NdpTx>,
    /// Receivers still missing bytes.
    rx: FlowTable<NdpRx>,
    /// The completed ones. A late trimmed header still earns its NACK and
    /// pull; both go by what the packet says, so the mark is all there is.
    rx_done: FlowTable<()>,
    /// Receiver-side pull queue (one token per expected packet).
    pull_queue: VecDeque<FlowId>,
    pacer_armed: bool,
}

impl NdpTransport {
    /// New endpoint.
    pub fn new(cfg: NdpCfg, mss: u32) -> Self {
        NdpTransport {
            cfg,
            mss,
            tx: FlowTable::new(),
            rx: FlowTable::new(),
            rx_done: FlowTable::new(),
            pull_queue: VecDeque::new(),
            pacer_armed: false,
        }
    }

    /// Occupancy of the `(sender, receiver)` tables; only the receivers'
    /// follows the flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    fn data_packet(tx: &NdpTx, offset: u64, len: u32, retx: bool) -> Packet<Proto> {
        let hdr = NdpHdr::Data { offset, len, msg_size: tx.size, retx };
        Packet::data(tx.id, tx.src, tx.dst, len, Proto::Ndp(hdr))
            .with_priority(1)
            .with_trimmable(true)
            .without_ecn()
    }

    /// Release one packet in response to a PULL: retransmissions first,
    /// then new data.
    fn release_one(&mut self, id: FlowId, ctx: &mut Ctx<'_, Proto>) {
        let mss = self.mss as u64;
        let Some(tx) = self.tx.get_mut(id) else { return };
        if let Some((off, len)) = tx.retx_queue.pop_front() {
            let take = len.min(mss as u32);
            if (take as u64) < len as u64 {
                tx.retx_queue.push_front((off + take as u64, len - take));
            }
            ctx.note_retransmit(tx.id);
            let pkt = Self::data_packet(tx, off, take, true);
            ctx.send(pkt);
            return;
        }
        if tx.sent < tx.size {
            let len = ((tx.size - tx.sent).min(mss)) as u32;
            let pkt = Self::data_packet(tx, tx.sent, len, false);
            tx.sent += len as u64;
            ctx.send(pkt);
        }
    }

    fn enqueue_pull(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Proto>) {
        self.pull_queue.push_back(flow);
        if !self.pacer_armed {
            self.pacer_armed = true;
            // First pull fires after one packet service time.
            ctx.timer_after(
                self.cfg.edge_rate.serialization_time(netsim::MTU_BYTES as u64),
                Token { kind: TIMER_NDP_PULL, generation: 0, flow: 0 }.encode(),
            );
        }
    }

    fn pacer_tick(&mut self, ctx: &mut Ctx<'_, Proto>) {
        let host = ctx.host();
        // Skip pulls for flows that completed since enqueueing.
        while let Some(flow) = self.pull_queue.pop_front() {
            if let Some(m) = self.rx.get(flow) {
                ctx.send(Packet::ctrl(flow, host, m.peer, Proto::Ndp(NdpHdr::Pull)));
                break;
            }
        }
        if self.pull_queue.is_empty() {
            self.pacer_armed = false;
        } else {
            ctx.timer_after(
                self.cfg.edge_rate.serialization_time(netsim::MTU_BYTES as u64),
                Token { kind: TIMER_NDP_PULL, generation: 0, flow: 0 }.encode(),
            );
        }
    }
}

impl Transport<Proto> for NdpTransport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let first = flow.size_bytes.min(self.cfg.initial_window_bytes);
        let tx = NdpTx {
            id: flow.id,
            src: flow.src,
            dst: flow.dst,
            size: flow.size_bytes,
            sent: first,
            retx_queue: VecDeque::new(),
        };
        // Line-rate first window.
        let mss = self.mss as u64;
        let mut off = 0;
        while off < first {
            let len = ((first - off).min(mss)) as u32;
            ctx.send(Self::data_packet(&tx, off, len, false));
            off += len as u64;
        }
        self.tx.insert(flow.id, tx);
    }

    fn on_packet(&mut self, pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let Proto::Ndp(hdr) = &pkt.payload else {
            unreachable!("NDP endpoint received a non-NDP packet")
        };
        match hdr {
            NdpHdr::Data { offset, len, msg_size, .. } => {
                let (offset, len, msg_size) = (*offset, *len, *msg_size);
                let flow = pkt.flow;
                let peer = pkt.src;
                let now = ctx.now();
                // `None`: a late packet of a completed flow.
                let m = match self.rx.get_mut(flow) {
                    Some(m) => {
                        m.last_activity = now;
                        Some(m)
                    }
                    None if self.rx_done.contains(flow) => None,
                    None => {
                        ctx.timer_after(
                            self.cfg.watchdog,
                            Token { kind: TIMER_NDP_WATCHDOG, generation: 0, flow: flow.0 }
                                .encode(),
                        );
                        let (size, received) = (msg_size, IntervalSet::new());
                        Some(
                            self.rx
                                .insert(flow, NdpRx { peer, size, received, last_activity: now }),
                        )
                    }
                };
                if pkt.trimmed {
                    // Payload was cut: NACK so the sender requeues it, and
                    // pull it through the pacer like any other packet.
                    let host = ctx.host();
                    ctx.send(Packet::ctrl(
                        flow,
                        host,
                        peer,
                        Proto::Ndp(NdpHdr::Nack { offset, len }),
                    ));
                    self.enqueue_pull(flow, ctx);
                    return;
                }
                let Some(m) = m else { return };
                m.received.insert(offset, offset + len as u64);
                if m.received.covers(m.size) {
                    ctx.flow_completed(flow);
                    self.rx.retire(flow);
                    self.rx_done.insert(flow, ());
                } else {
                    self.enqueue_pull(flow, ctx);
                }
            }
            NdpHdr::Nack { offset, len } => {
                let (offset, len) = (*offset, *len);
                if let Some(tx) = self.tx.get_mut(pkt.flow) {
                    // Back of the queue: `release_one` pops the front, so
                    // trimmed ranges are resent in NACK-arrival order,
                    // ahead of any new data.
                    tx.retx_queue.push_back((offset, len));
                    // A NACK may reach past `sent` (watchdog recovery of a
                    // dead pull chain): the range is queued for delivery
                    // now, so never send it again as "new" data.
                    tx.sent = tx.sent.max(offset + len as u64);
                }
            }
            NdpHdr::Pull => {
                self.release_one(pkt.flow, ctx);
            }
            NdpHdr::Ack { .. } => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        match token.kind {
            TIMER_NDP_PULL => self.pacer_tick(ctx),
            TIMER_NDP_WATCHDOG => {
                let flow = FlowId(token.flow);
                let watchdog = self.cfg.watchdog;
                // A completed flow's watchdog finds nothing and stops.
                let Some(m) = self.rx.get(flow) else { return };
                if ctx.now().saturating_since(m.last_activity) >= watchdog {
                    // Whole-packet loss (a failed link, not the trimmer)
                    // leaves holes no trimmed header ever advertised: NACK
                    // every gap up to the message size so the sender
                    // requeues them, with one pull per missing packet to
                    // clock them out.
                    let host = ctx.host();
                    let mss = self.mss as u64;
                    let peer = m.peer;
                    let mut gaps = Vec::new();
                    let mut cursor = 0;
                    while let Some((s, e)) = m.received.first_gap(cursor, m.size) {
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
                        for _ in 0..(len as u64).div_ceil(mss) {
                            self.enqueue_pull(flow, ctx);
                        }
                    }
                    // Kick the sender with an extra pull (covers lost
                    // pulls/NACKs/headers).
                    self.enqueue_pull(flow, ctx);
                }
                ctx.timer_after(
                    watchdog,
                    Token { kind: TIMER_NDP_WATCHDOG, generation: 0, flow: token.flow }.encode(),
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

    fn install_ndp(topo: &mut netsim::Topology<Proto>, watchdog: SimDuration) {
        let cfg = NdpCfg::new(topo.edge_rate, topo.base_rtt, watchdog);
        crate::install(topo, || NdpTransport::new(cfg.clone(), netsim::MSS_BYTES));
    }

    fn setup(n: usize) -> netsim::Topology<Proto> {
        // NDP switch: shallow 60KB port buffer, trim beyond 12KB.
        star::<Proto>(
            n,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::ndp(60_000, 12_000),
        )
    }

    #[test]
    fn single_flow_completes() {
        let mut topo = setup(2);
        install_ndp(&mut topo, SimDuration::from_millis(1));
        let size = 1 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 1);
        let fct = topo.sim.completion(f).unwrap();
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos();
        assert!(fct.as_nanos() < 4 * ideal, "fct={fct}");
    }

    #[test]
    fn incast_trims_instead_of_dropping() {
        let mut topo = setup(9);
        install_ndp(&mut topo, SimDuration::from_millis(1));
        for i in 0..8 {
            topo.sim.add_flow(topo.hosts[i], topo.hosts[8], 200_000, SimTime(i as u64 * 100), 1);
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 8);
        let c = topo.sim.total_counters();
        assert!(c.trimmed > 0, "incast must engage the trimmer: {c:?}");
        // Trimming replaces dropping: payload drops should be rare or nil.
        assert!(c.dropped < c.trimmed / 10 + 5, "trim should dominate drops: {c:?}");
    }

    #[test]
    fn pull_pacing_clocks_sender_at_bottleneck_rate() {
        // One long flow: after the initial burst, data arrives pull-clocked
        // — so the FCT is close to size/rate with no queue blowup.
        let mut topo = setup(2);
        install_ndp(&mut topo, SimDuration::from_millis(1));
        let size = 4 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        topo.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        let fct = topo.sim.completion(f).unwrap().as_nanos() as f64;
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos() as f64;
        assert!(fct / ideal < 2.6, "pull clocking too slow: {}x ideal", fct / ideal);
    }

    /// A completed receiver leaves the table; a late trimmed header still
    /// earns its NACK and a turn in the pull queue (which the pacer skips),
    /// and nothing completes — or is created — twice.
    #[test]
    fn a_completed_receiver_is_retired_and_late_packets_do_what_they_did() {
        use crate::common::testkit::drive;
        let me = HostId(1);
        let cfg = NdpCfg {
            initial_window_bytes: 50_000,
            edge_rate: Rate::gbps(10),
            watchdog: SimDuration::from_millis(1),
        };
        let mut t = NdpTransport::new(cfg, 1000);
        let pkt = |offset: u64, trimmed: bool| {
            let hdr = NdpHdr::Data { offset, len: 1000, msg_size: 2000, retx: false };
            let mut p = Packet::data(FlowId(7), HostId(0), me, 1000, Proto::Ndp(hdr));
            p.trimmed = trimmed;
            p
        };
        let first = drive(SimTime(10), me, |ctx| t.on_packet(pkt(0, false), ctx));
        // The watchdog, then the pacer for the pull the packet earned.
        assert_eq!(first.timers.len(), 2);
        let watchdog = first.timers[0];
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
        let last = drive(SimTime(20), me, |ctx| t.on_packet(pkt(1000, false), ctx));
        assert_eq!(last.completed, vec![FlowId(7)]);
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });

        // The queued pull finds the flow complete: nothing is sent.
        let tick = drive(SimTime(30), me, |ctx| t.on_timer(first.timers[1].1, ctx));
        assert!(tick.nothing() && !t.pacer_armed);
        // A late whole duplicate changes nothing.
        assert!(drive(SimTime(40), me, |ctx| t.on_packet(pkt(0, false), ctx)).nothing());
        // A late trimmed header is NACKed to the sender and queues a pull.
        let late = drive(SimTime(50), me, |ctx| t.on_packet(pkt(1000, true), ctx));
        assert!(late.completed.is_empty(), "a flow completes once");
        assert_eq!(late.packets.len(), 1);
        assert_eq!(late.packets[0].dst, HostId(0));
        let nacked =
            matches!(late.packets[0].payload, Proto::Ndp(NdpHdr::Nack { offset: 1000, len: 1000 }));
        assert!(nacked, "{:?}", late.packets[0].payload);
        assert_eq!(late.timers.len(), 1, "the pull arms the pacer");
        assert!(drive(SimTime(60), me, |ctx| t.on_timer(late.timers[0].1, ctx)).nothing());
        // The watchdog of a completed flow stops.
        assert!(drive(watchdog.0, me, |ctx| t.on_timer(watchdog.1, ctx)).nothing());
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });
    }
}
