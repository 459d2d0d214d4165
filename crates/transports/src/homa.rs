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
//! * Receivers grant the remainder with SRPT order and an overcommitment
//!   degree: the [`HomaCfg::OVERCOMMIT`] messages with the fewest
//!   remaining bytes each keep one `rtt_bytes` window of grants
//!   outstanding; grants carry the scheduled priority (P5 + rank for
//!   Homa, P1 + rank for Aeolus).
//! * Loss recovery is timeout-based RESEND from the receiver. Aeolus adds
//!   the probe packet: it trails the unscheduled burst, is never dropped
//!   by the selective dropper, and lets the receiver request lost
//!   unscheduled bytes immediately as scheduled retransmissions.

use netsim::{Ctx, FlowId, Packet, SimDuration};

use crate::proto::{Proto, PullHdr};
use crate::pull::{send, Grant, Pull, PullRx, PullTx};

/// Receiver RESEND poll timer.
pub const TIMER_HOMA_RESEND: u8 = 6;

/// Homa/Aeolus configuration, and the [`Grant`] policy it runs.
#[derive(Clone, Debug)]
pub struct HomaCfg {
    /// Unscheduled window per message (the paper: 50 KB testbed, 45 KB at
    /// 40/100 G).
    pub rtt_bytes: u64,
    /// Receiver timeout before requesting a RESEND.
    pub resend_timeout: SimDuration,
    /// Aeolus mode: unscheduled at P7 + selective dropping + probes.
    pub aeolus: bool,
}

impl HomaCfg {
    /// Overcommitment degree (the paper: 2).
    pub const OVERCOMMIT: usize = 2;
    /// Message-size cutoffs mapping unscheduled packets onto P1–P4.
    pub const UNSCHED_CUTOFFS: [u64; 3] = [3_000, 30_000, 300_000];

    /// Paper-calibrated defaults for a given RTTbytes.
    pub fn new(rtt_bytes: u64) -> Self {
        HomaCfg { rtt_bytes, resend_timeout: SimDuration::from_millis(1), aeolus: false }
    }

    fn unsched_priority(&self, msg_size: u64) -> u8 {
        if self.aeolus {
            return 7; // pre-credit packets ride the droppable band
        }
        let level = Self::UNSCHED_CUTOFFS.iter().take_while(|&&c| msg_size > c).count() as u8;
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

/// The Homa / Aeolus endpoint.
pub type HomaTransport = Pull<HomaCfg>;

// simlint: hot-path
/// SRPT + overcommit granting: keep one RTTbytes window outstanding for
/// the [`HomaCfg::OVERCOMMIT`] incomplete messages with the fewest
/// remaining bytes (ties to the lower flow id).
fn regrant(ep: &mut HomaTransport, ctx: &mut Ctx<'_, Proto>) {
    // The ranking, fewest remaining first; a slot left unfilled names no
    // receiver.
    const LAST: usize = HomaCfg::OVERCOMMIT - 1;
    let mut top = [(u64::MAX, FlowId(u64::MAX)); HomaCfg::OVERCOMMIT];
    for (flow, m) in ep.rx.iter().filter(|(_, m)| m.policy < m.size) {
        let key = (m.size - m.received.covered_bytes(), flow);
        if key < top[LAST] {
            top[LAST] = key;
            top.sort_unstable();
        }
    }
    let host = ctx.host();
    for (rank, (_, flow)) in top.into_iter().enumerate() {
        let prio = ep.g.sched_priority(rank);
        let Some(m) = ep.rx.get_mut(flow) else { continue };
        let target = m.size.min(m.received.covered_bytes() + ep.g.rtt_bytes);
        if target > m.policy {
            m.policy = target;
            let hdr = PullHdr::Grant { granted_offset: target, prio };
            ctx.send(Packet::ctrl(flow, host, m.peer, Proto::Pull(hdr)));
        }
    }
}
// simlint: hot-path-end

/// Late data of a completed message re-runs the grant pass and no more.
impl Grant for HomaCfg {
    const WATCHDOG: u8 = TIMER_HOMA_RESEND;
    type Tx = ();
    /// The grant line: the highest offset granted to the sender.
    type Rx = u64;
    type Done = ();

    fn watchdog(&self) -> SimDuration {
        self.resend_timeout
    }

    fn start(&self, tx: &mut PullTx<()>, mss: u32, ctx: &mut Ctx<'_, Proto>) {
        // Blind line-rate unscheduled burst (the pre-credit phase).
        tx.sent = tx.size.min(self.rtt_bytes);
        send::<Self>(tx, (0, tx.sent), self.unsched_priority(tx.size), false, mss, ctx);
        if self.aeolus {
            // The probe trails the burst at control priority; it is not
            // subject to the selective dropper.
            ctx.send(tx.ctrl(PullHdr::Probe { unscheduled_sent: tx.sent, msg_size: tx.size }));
        }
    }

    /// The unscheduled window needs no grants.
    fn open(&self, size: u64) -> u64 {
        size.min(self.rtt_bytes)
    }

    /// Every provable hole up to the granted line.
    fn stall_line(rx: &PullRx<u64>) -> u64 {
        rx.policy.min(rx.size)
    }

    fn arrived(ep: &mut Pull<Self>, _flow: FlowId, _live: bool, ctx: &mut Ctx<'_, Proto>) {
        regrant(ep, ctx);
    }

    /// Retransmissions go out scheduled, at the top scheduled priority.
    fn on_resend(&self, _tx: &mut PullTx<()>, _offset: u64, _len: u32) -> Option<u8> {
        Some(self.sched_priority(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::common::TableStats;
    use netsim::{star, HostId, Rate, SimDuration, SimTime, Transport};

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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(100), 10_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(10), 20_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 100_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(10), 10_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(10), 10_000);
        assert_eq!(report.flows_completed, 8);
        let c = topo.sim.total_counters();
        assert!(c.dropped > 0, "selective dropper must engage under incast");
    }

    /// A completed receiver leaves the table (so the grant pass ranks live
    /// messages only); late data still re-runs the grant pass, a late probe
    /// is answered `Done`, and nothing completes — or is created — twice.
    #[test]
    fn a_completed_receiver_is_retired_and_late_packets_do_what_they_did() {
        use crate::common::testkit::drive;
        let me = HostId(1);
        let mut t = HomaTransport::new(HomaCfg::new(50_000), 1000);
        let data = |flow: u64, offset: u64, size: u64| {
            let hdr = PullHdr::Data { offset, len: 1000, msg_size: size };
            Packet::data(FlowId(flow), HostId(0), me, 1000, Proto::Pull(hdr))
        };
        let probe = |flow: u64, unscheduled_sent: u64, msg_size: u64| {
            let hdr = PullHdr::Probe { unscheduled_sent, msg_size };
            Packet::ctrl(FlowId(flow), HostId(0), me, Proto::Pull(hdr))
        };
        let only = drive(SimTime(10), me, |ctx| t.on_packet(data(7, 0, 1000), ctx));
        assert_eq!(only.completed, vec![FlowId(7)]);
        assert_eq!(only.timers.len(), 1, "the resend timer is armed whatever happens next");
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });

        // A probe opens message 8 at `Grant::open`'s line, its unscheduled
        // window: no grant is owed to it, and its prefix is asked for.
        let opened = drive(SimTime(20), me, |ctx| t.on_packet(probe(8, 1000, 100_000), ctx));
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
        let granted = |did: &crate::common::testkit::Did| {
            let grants = did.packets.iter().filter_map(|p| match p.payload {
                Proto::Pull(PullHdr::Grant { granted_offset, .. }) => {
                    Some((p.flow, granted_offset))
                }
                _ => None,
            });
            grants.collect::<Vec<_>>()
        };
        assert_eq!(granted(&opened), vec![]);
        let asked = opened.packets.iter().map(|p| p.payload.clone()).collect::<Vec<_>>();
        assert!(matches!(asked[..], [Proto::Pull(PullHdr::Resend { offset: 0, len: 1000 })]));

        // Late data of the completed message: no completion, no receiver;
        // the grant pass runs and finds nothing owed.
        let late = drive(SimTime(30), me, |ctx| t.on_packet(data(7, 0, 1000), ctx));
        assert!(late.completed.is_empty() && late.timers.is_empty());
        assert_eq!(granted(&late), vec![]);
        // A late probe of the completed message is answered `Done`; its
        // resend timer finds nothing.
        let done = drive(SimTime(40), me, |ctx| t.on_packet(probe(7, 1000, 1000), ctx));
        let answer = done.packets.iter().map(|p| (p.dst, p.payload.clone())).collect::<Vec<_>>();
        assert!(matches!(answer[..], [(HostId(0), Proto::Pull(PullHdr::Done))]), "{answer:?}");
        assert!(done.timers.is_empty() && done.completed.is_empty());
        assert!(drive(only.timers[0].0, me, |ctx| t.on_timer(only.timers[0].1, ctx)).nothing());
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
    }
}
