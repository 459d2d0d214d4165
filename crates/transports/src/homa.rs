//! Homa — receiver-driven, SRPT-scheduled proactive transport — and the
//! Aeolus variant that de-prioritizes and selectively drops pre-credit
//! (unscheduled) packets.
//!
//! Mechanics reproduced from the papers, at the fidelity the PPT paper's
//! evaluation uses (Aeolus's simulator with timeout loss recovery):
//!
//! * Senders blast the first `rtt_bytes` of every message *unscheduled* at
//!   line rate. Homa maps unscheduled packets to the top priorities
//!   (P1–P4, cut by message size); Aeolus maps them to the lowest
//!   priority (P7) where the switch selectively drops them at a shallow
//!   threshold.
//! * Receivers grant the remainder with SRPT order and a configurable
//!   overcommitment degree: the `overcommit` messages with the fewest
//!   remaining bytes each keep one `rtt_bytes` window of grants
//!   outstanding; grants carry the scheduled priority (P5 + rank for
//!   Homa, P1 + rank for Aeolus).
//! * Loss recovery is timeout-based RESEND from the receiver. Aeolus adds
//!   the probe packet: it trails the unscheduled burst, is never dropped
//!   by the selective dropper, and lets the receiver request lost
//!   unscheduled bytes immediately as scheduled retransmissions.

use netsim::{Ctx, FlowDesc, FlowId, HostId, Packet, SimDuration, SimTime, Transport};

use crate::common::{FlowTable, IntervalSet, TableStats, Token};
use crate::proto::{HomaHdr, Proto};

/// Receiver RESEND poll timer.
pub const TIMER_HOMA_RESEND: u8 = 6;

/// Homa/Aeolus configuration.
#[derive(Clone, Debug)]
pub struct HomaCfg {
    /// Unscheduled window per message (the paper: 50 KB testbed, 45 KB at
    /// 40/100 G).
    pub rtt_bytes: u64,
    /// Overcommitment degree (the paper: 2).
    pub overcommit: usize,
    /// Message-size cutoffs mapping unscheduled packets onto P1–P4.
    pub unsched_cutoffs: [u64; 3],
    /// Receiver timeout before requesting a RESEND.
    pub resend_timeout: SimDuration,
    /// Aeolus mode: unscheduled at P7 + selective dropping + probes.
    pub aeolus: bool,
}

impl HomaCfg {
    /// Paper-calibrated defaults for a given RTTbytes.
    pub fn new(rtt_bytes: u64) -> Self {
        HomaCfg {
            rtt_bytes,
            overcommit: 2,
            unsched_cutoffs: [3_000, 30_000, 300_000],
            resend_timeout: SimDuration::from_millis(1),
            aeolus: false,
        }
    }

    fn unsched_priority(&self, msg_size: u64) -> u8 {
        if self.aeolus {
            return 7; // pre-credit packets ride the droppable band
        }
        let level = self.unsched_cutoffs.iter().take_while(|&&c| msg_size > c).count() as u8;
        1 + level // P1..P4
    }

    fn sched_priority(&self, rank: usize) -> u8 {
        if self.aeolus {
            (1 + rank.min(2)) as u8 // P1..P3: scheduled beats unscheduled
        } else {
            (5 + rank.min(2)) as u8 // P5..P7: below unscheduled
        }
    }

    /// The shallow byte cap Aeolus's selective dropper applies to the
    /// unscheduled band (P7) at every port.
    pub const AEOLUS_DROP_THRESHOLD: u64 = 24_000;
}

/// Build the switch configuration a Homa/Aeolus experiment needs.
pub fn homa_switch_config(port_buffer: u64, aeolus: bool) -> netsim::SwitchConfig {
    let cfg = netsim::SwitchConfig::basic(port_buffer);
    if aeolus {
        cfg.with_range_cap(7, 8, HomaCfg::AEOLUS_DROP_THRESHOLD)
    } else {
        cfg
    }
}

struct HomaTx {
    id: FlowId,
    src: HostId,
    dst: HostId,
    size: u64,
    /// Next new byte to transmit.
    sent: u64,
    /// Highest authorized offset.
    granted: u64,
    sched_prio: u8,
}

struct HomaRx {
    flow: FlowId,
    peer: HostId,
    size: u64,
    received: IntervalSet,
    /// Highest offset granted to the sender.
    granted: u64,
    last_data: SimTime,
    /// Aeolus: unscheduled bytes the probe said were sent.
    probe_expected: Option<u64>,
}

/// The Homa / Aeolus endpoint.
pub struct HomaTransport {
    cfg: HomaCfg,
    mss: u32,
    /// Every sender the host started: nothing tells a Homa sender that its
    /// message completed, so they stay to the end of the run.
    tx: FlowTable<HomaTx>,
    /// Receivers still missing bytes: the set `regrant` ranks.
    rx: FlowTable<HomaRx>,
    /// The completed ones; late data re-runs the grant pass and no more.
    rx_done: FlowTable<()>,
    /// `regrant`'s `(remaining bytes, flow)` ranking, reused across calls.
    grant_scratch: Vec<(u64, FlowId)>,
}

impl HomaTransport {
    /// New endpoint.
    pub fn new(cfg: HomaCfg, mss: u32) -> Self {
        HomaTransport {
            cfg,
            mss,
            tx: FlowTable::new(),
            rx: FlowTable::new(),
            rx_done: FlowTable::new(),
            grant_scratch: Vec::new(),
        }
    }

    /// Occupancy of the `(sender, receiver)` tables; only the receivers'
    /// follows the flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    /// The receiver for a flow first heard of now (by data or by probe),
    /// with its timeout-recovery timer armed.
    fn open_rx(
        &mut self,
        flow: FlowId,
        peer: HostId,
        size: u64,
        granted: u64,
        ctx: &mut Ctx<'_, Proto>,
    ) -> &mut HomaRx {
        ctx.timer_after(
            self.cfg.resend_timeout,
            Token { kind: TIMER_HOMA_RESEND, generation: 0, flow: flow.0 }.encode(),
        );
        let (received, last_data) = (IntervalSet::new(), ctx.now());
        let m = HomaRx { flow, peer, size, received, granted, last_data, probe_expected: None };
        self.rx.insert(flow, m)
    }

    fn send_range(
        tx: &HomaTx,
        from: u64,
        to: u64,
        prio: u8,
        unscheduled: bool,
        retx: bool,
        mss: u32,
        ctx: &mut Ctx<'_, Proto>,
    ) {
        let mut off = from;
        while off < to {
            let len = ((to - off).min(mss as u64)) as u32;
            if retx {
                ctx.note_retransmit(tx.id);
            }
            let hdr = HomaHdr::Data { offset: off, len, msg_size: tx.size, unscheduled, retx };
            let pkt = Packet::data(tx.id, tx.src, tx.dst, len, Proto::Homa(hdr))
                .with_priority(prio)
                .without_ecn();
            ctx.send(pkt);
            off += len as u64;
        }
    }

    /// Transmit any newly-granted region.
    fn pump_tx(tx: &mut HomaTx, mss: u32, ctx: &mut Ctx<'_, Proto>) {
        let to = tx.granted.min(tx.size);
        if tx.sent < to {
            let from = tx.sent;
            tx.sent = to;
            let prio = tx.sched_prio;
            Self::send_range(tx, from, to, prio, false, false, mss, ctx);
        }
    }

    /// SRPT + overcommit granting: keep one RTTbytes window outstanding
    /// for the `overcommit` incomplete messages with the fewest remaining
    /// bytes.
    fn regrant(&mut self, ctx: &mut Ctx<'_, Proto>) {
        let HomaTransport { cfg, rx, grant_scratch: active, .. } = self;
        active.clear();
        active.extend(
            rx.values()
                .filter(|m| m.granted < m.size)
                .map(|m| (m.size - m.received.covered_bytes(), m.flow)),
        );
        active.sort_unstable();
        let host = ctx.host();
        for (rank, &(_, flow)) in active.iter().take(cfg.overcommit).enumerate() {
            let prio = cfg.sched_priority(rank);
            let Some(m) = rx.get_mut(flow) else { continue };
            let target = m.size.min(m.received.covered_bytes() + cfg.rtt_bytes);
            if target > m.granted {
                m.granted = target;
                let hdr = HomaHdr::Grant { granted_offset: target, prio };
                ctx.send(Packet::ctrl(flow, host, m.peer, Proto::Homa(hdr)));
            }
        }
    }

    /// Ask for a retransmission of every hole the receiver can prove.
    fn request_resends(m: &mut HomaRx, upto: u64, ctx: &mut Ctx<'_, Proto>) {
        let host = ctx.host();
        let mut cursor = 0u64;
        while let Some((s, e)) = m.received.first_gap(cursor, upto) {
            let hdr = HomaHdr::Resend { offset: s, len: (e - s).min(u32::MAX as u64) as u32 };
            ctx.send(Packet::ctrl(m.flow, host, m.peer, Proto::Homa(hdr)));
            cursor = e;
        }
    }
}

impl Transport<Proto> for HomaTransport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let unsched = flow.size_bytes.min(self.cfg.rtt_bytes);
        let tx = HomaTx {
            id: flow.id,
            src: flow.src,
            dst: flow.dst,
            size: flow.size_bytes,
            sent: unsched,
            granted: unsched,
            sched_prio: self.cfg.sched_priority(0),
        };
        // Blind line-rate unscheduled burst (the pre-credit phase).
        let prio = self.cfg.unsched_priority(flow.size_bytes);
        Self::send_range(&tx, 0, unsched, prio, true, false, self.mss, ctx);
        if self.cfg.aeolus {
            // The probe trails the burst at control priority; it is not
            // subject to the selective dropper.
            let hdr = HomaHdr::Probe { unscheduled_sent: unsched, msg_size: flow.size_bytes };
            ctx.send(Packet::ctrl(flow.id, flow.src, flow.dst, Proto::Homa(hdr)));
        }
        self.tx.insert(flow.id, tx);
    }

    fn on_packet(&mut self, pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let Proto::Homa(hdr) = &pkt.payload else {
            unreachable!("Homa endpoint received a non-Homa packet")
        };
        match hdr {
            HomaHdr::Data { offset, len, msg_size, .. } => {
                let (offset, len, msg_size) = (*offset, *len, *msg_size);
                let flow = pkt.flow;
                let m = match self.rx.get_mut(flow) {
                    Some(m) => m,
                    // Late data of a completed message.
                    None if self.rx_done.contains(flow) => return self.regrant(ctx),
                    // The unscheduled window needs no grants.
                    None => {
                        let unsched = msg_size.min(self.cfg.rtt_bytes);
                        self.open_rx(flow, pkt.src, msg_size, unsched, ctx)
                    }
                };
                m.last_data = ctx.now();
                m.received.insert(offset, offset + len as u64);
                if m.received.covers(m.size) {
                    ctx.flow_completed(flow);
                    self.rx.retire(flow);
                    self.rx_done.insert(flow, ());
                }
                self.regrant(ctx);
            }
            HomaHdr::Grant { granted_offset, prio } => {
                let (granted_offset, prio) = (*granted_offset, *prio);
                if let Some(tx) = self.tx.get_mut(pkt.flow) {
                    tx.granted = tx.granted.max(granted_offset);
                    tx.sched_prio = prio;
                    Self::pump_tx(tx, self.mss, ctx);
                }
            }
            HomaHdr::Resend { offset, len } => {
                let (offset, len) = (*offset, *len);
                let mss = self.mss;
                if let Some(tx) = self.tx.get(pkt.flow) {
                    // Retransmissions go out scheduled at the top
                    // scheduled priority.
                    let prio = self.cfg.sched_priority(0);
                    let to = (offset + len as u64).min(tx.size);
                    Self::send_range(tx, offset, to, prio, false, true, mss, ctx);
                }
            }
            HomaHdr::Probe { unscheduled_sent, msg_size } => {
                let (unscheduled_sent, msg_size) = (*unscheduled_sent, *msg_size);
                let flow = pkt.flow;
                let m = match self.rx.get_mut(flow) {
                    Some(m) => m,
                    // The message completed before its probe arrived.
                    None if self.rx_done.contains(flow) => return,
                    // The probe can overtake the P7 data burst; the
                    // timeout-recovery timer must still get armed.
                    None => {
                        let granted = msg_size.min(unscheduled_sent);
                        self.open_rx(flow, pkt.src, msg_size, granted, ctx)
                    }
                };
                m.probe_expected = Some(unscheduled_sent);
                m.granted = m.granted.max(unscheduled_sent);
                // Aeolus: any hole below the probe line was selectively
                // dropped — reclaim it immediately as scheduled traffic.
                Self::request_resends(m, unscheduled_sent, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        if token.kind != TIMER_HOMA_RESEND {
            return;
        }
        let flow = FlowId(token.flow);
        let timeout = self.cfg.resend_timeout;
        // A completed message's timer finds nothing and stops.
        let Some(m) = self.rx.get_mut(flow) else { return };
        let now = ctx.now();
        if now.saturating_since(m.last_data) >= timeout {
            // Stalled: request every provable hole up to the granted line.
            let upto = m.granted.min(m.size);
            Self::request_resends(m, upto, ctx);
        }
        ctx.timer_after(
            timeout,
            Token { kind: TIMER_HOMA_RESEND, generation: 0, flow: flow.0 }.encode(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{star, Rate, RunLimits, SimDuration};

    fn install_homa(topo: &mut netsim::Topology<Proto>, cfg: &HomaCfg) {
        crate::install(topo, || HomaTransport::new(cfg.clone(), netsim::MSS_BYTES));
    }

    fn setup(n: usize, aeolus: bool) -> (netsim::Topology<Proto>, HomaCfg) {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let topo = star::<Proto>(n, rate, delay, homa_switch_config(200_000, aeolus));
        let mut cfg = HomaCfg::new(50_000);
        cfg.aeolus = aeolus;
        (topo, cfg)
    }

    #[test]
    fn unscheduled_priority_by_message_size() {
        let cfg = HomaCfg::new(50_000);
        assert_eq!(cfg.unsched_priority(1_000), 1);
        assert_eq!(cfg.unsched_priority(10_000), 2);
        assert_eq!(cfg.unsched_priority(100_000), 3);
        assert_eq!(cfg.unsched_priority(10_000_000), 4);
        let ae = HomaCfg { aeolus: true, ..HomaCfg::new(50_000) };
        assert_eq!(ae.unsched_priority(1_000), 7);
    }

    #[test]
    fn small_message_completes_in_one_rtt() {
        let (mut topo, cfg) = setup(2, false);
        install_homa(&mut topo, &cfg);
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 10_000, SimTime::ZERO, 10_000);
        let report = topo.sim.run(RunLimits::default());
        assert_eq!(report.flows_completed, 1);
        // One-way: ~40us prop + serialization; no grant round needed.
        let fct = topo.sim.completion(f).unwrap();
        assert!(fct.as_nanos() < 100_000, "fct={fct}");
    }

    #[test]
    fn large_message_is_granted_through() {
        let (mut topo, cfg) = setup(2, false);
        install_homa(&mut topo, &cfg);
        let size = 2 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 1);
        let fct = topo.sim.completion(f).unwrap();
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos();
        assert!(fct.as_nanos() < 4 * ideal, "fct={fct} ideal={ideal}ns");
    }

    #[test]
    fn srpt_prefers_shorter_message() {
        let (mut topo, cfg) = setup(3, false);
        install_homa(&mut topo, &cfg);
        // Long message first, then a short one mid-transfer: the short one
        // must finish far sooner than the long one.
        let long = topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 8 << 20, SimTime::ZERO, 1);
        let short = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 300_000, SimTime(1_000_000), 1);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
        assert!(topo.sim.completion(short).unwrap() < topo.sim.completion(long).unwrap());
    }

    #[test]
    fn incast_burst_recovers_from_drops() {
        let (mut topo, cfg) = setup(9, false);
        install_homa(&mut topo, &cfg);
        // 8 × 100KB simultaneously into one host: the line-rate unscheduled
        // bursts overload the 200KB buffer; timeout recovery must finish
        // every message.
        for i in 0..8 {
            topo.sim.add_flow(topo.hosts[i], topo.hosts[8], 100_000, SimTime(i as u64 * 100), 1);
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 8, "all incast messages must finish");
        assert!(topo.sim.total_counters().dropped > 0, "bursts should overflow the buffer");
    }

    #[test]
    fn aeolus_drops_only_unscheduled_and_recovers_via_probe() {
        let (mut topo, cfg) = setup(9, true);
        install_homa(&mut topo, &cfg);
        for i in 0..8 {
            topo.sim.add_flow(topo.hosts[i], topo.hosts[8], 100_000, SimTime(i as u64 * 100), 1);
        }
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 8);
        let c = topo.sim.total_counters();
        assert!(c.dropped > 0, "selective dropper must engage under incast");
    }

    /// A completed receiver leaves the table (so the grant pass ranks live
    /// messages only); late data still re-runs the grant pass, a late probe
    /// does nothing, and nothing completes — or is created — twice.
    #[test]
    fn a_completed_receiver_is_retired_and_late_packets_do_what_they_did() {
        use crate::common::testkit::drive;
        let me = HostId(1);
        let mut t = HomaTransport::new(HomaCfg::new(50_000), 1000);
        let data = |flow: u64, offset: u64, size: u64| {
            let hdr =
                HomaHdr::Data { offset, len: 1000, msg_size: size, unscheduled: true, retx: false };
            Packet::data(FlowId(flow), HostId(0), me, 1000, Proto::Homa(hdr))
        };
        let probe = |flow: u64, unscheduled_sent: u64, msg_size: u64| {
            let hdr = HomaHdr::Probe { unscheduled_sent, msg_size };
            Packet::ctrl(FlowId(flow), HostId(0), me, Proto::Homa(hdr))
        };
        let only = drive(SimTime(10), me, |ctx| t.on_packet(data(7, 0, 1000), ctx));
        assert_eq!(only.completed, vec![FlowId(7)]);
        assert_eq!(only.timers.len(), 1, "the resend timer is armed whatever happens next");
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });

        // A probe opens message 8 with less granted than it could have;
        // probes do not run the grant pass, so the grant is still owed.
        let opened = drive(SimTime(20), me, |ctx| t.on_packet(probe(8, 1000, 100_000), ctx));
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
        let granted = |did: &crate::common::testkit::Did| {
            let grants = did.packets.iter().filter_map(|p| match p.payload {
                Proto::Homa(HomaHdr::Grant { granted_offset, .. }) => {
                    Some((p.flow, granted_offset))
                }
                _ => None,
            });
            grants.collect::<Vec<_>>()
        };
        assert_eq!(granted(&opened), vec![]);

        // Late data of the completed message: no completion, no receiver,
        // but the grant pass runs and pays message 8 what it is owed.
        let late = drive(SimTime(30), me, |ctx| t.on_packet(data(7, 0, 1000), ctx));
        assert!(late.completed.is_empty() && late.timers.is_empty());
        assert_eq!(granted(&late), vec![(FlowId(8), 50_000)]);
        // A late probe, and the resend timer, of the completed message.
        assert!(drive(SimTime(40), me, |ctx| t.on_packet(probe(7, 1000, 1000), ctx)).nothing());
        assert!(drive(only.timers[0].0, me, |ctx| t.on_timer(only.timers[0].1, ctx)).nothing());
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
    }
}
