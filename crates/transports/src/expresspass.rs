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
//!
//! On the wire ([`PullHdr`]) a credit request is a `Request`, a credit a
//! `Pull`, and the stall watchdog's NACK a `Resend`.

use netsim::{Ctx, Packet, Rate, SimDuration};

use crate::proto::{Proto, PullHdr};
use crate::pull::{Grant, Pull, PullRx, PullTx};

/// Credit pacer tick.
pub const TIMER_EP_CREDIT: u8 = 10;
/// Receiver stall watchdog.
pub const TIMER_EP_WATCHDOG: u8 = 11;
/// Sender-side request retry (covers a lost credit request): its [`Grant::RETRY`].
pub const TIMER_EP_REQUEST: u8 = 12;

/// ExpressPass configuration, and the [`Grant`] policy it runs.
#[derive(Clone, Debug)]
pub struct ExpressPassCfg {
    /// Downlink rate credits are paced against.
    pub edge_rate: Rate,
    /// Watchdog for stalled incomplete flows, and the sender's request
    /// retry.
    pub watchdog: SimDuration,
}

impl ExpressPassCfg {
    /// Credit pacing de-rate (the real system's feedback loop converges
    /// close to full utilization; 0.95 is generous and stable).
    pub const CREDIT_RATE_FACTOR: f64 = 0.95;

    /// Credits paced at [`Self::CREDIT_RATE_FACTOR`] of `edge_rate`.
    pub fn new(edge_rate: Rate, watchdog: SimDuration) -> Self {
        ExpressPassCfg { edge_rate, watchdog }
    }
}

/// The ExpressPass endpoint.
pub type ExpressPassTransport = Pull<ExpressPassCfg>;

impl Grant for ExpressPassCfg {
    const WATCHDOG: u8 = TIMER_EP_WATCHDOG;
    const PACER: u8 = TIMER_EP_CREDIT;
    const RETRY: u8 = TIMER_EP_REQUEST;
    type Tx = ();
    /// The credit line: bytes authorized.
    type Rx = u64;
    /// Whether the flow completed *under-credited* (`credited < size`: a
    /// retried request had rewound the credit line): a late request of such
    /// a flow still takes a turn in the credit round-robin, which skips it.
    type Done = bool;

    fn watchdog(&self) -> SimDuration {
        self.watchdog
    }

    fn start(&self, tx: &mut PullTx<()>, _mss: u32, ctx: &mut Ctx<'_, Proto>) {
        // Credit request only — the 1st RTT carries no data.
        ctx.send(tx.ctrl(PullHdr::Request { msg_size: tx.size, retry: false }));
    }

    /// The request again, marked a retry: no credit and no NACK arrived.
    fn reopen(tx: &PullTx<()>) -> PullHdr {
        PullHdr::Request { msg_size: tx.size, retry: true }
    }

    fn done(rx: &PullRx<u64>) -> bool {
        rx.policy < rx.size
    }

    /// Every hole below the credit line: the sender's `sent` pointer only
    /// moves forward and the pacer cannot re-issue spent credits, so
    /// recovery must be an explicit NACK (which also covers lost credits:
    /// the sender treats a NACK as authorization to (re)send the range).
    fn stall_line(rx: &PullRx<u64>) -> u64 {
        rx.received.covered_bytes().max(rx.policy).min(rx.size)
    }

    fn pace_interval(&self) -> SimDuration {
        let base = self.edge_rate.serialization_time(netsim::MTU_BYTES as u64);
        SimDuration::from_nanos((base.as_nanos() as f64 / Self::CREDIT_RATE_FACTOR) as u64)
    }

    /// A credit for one more MSS; still hungry, to the back of the
    /// round-robin. Fully credited: skipped.
    fn turn(rx: &mut PullRx<u64>, mss: u32) -> Option<bool> {
        (rx.policy < rx.size).then(|| {
            rx.policy = (rx.policy + mss as u64).min(rx.size);
            rx.policy < rx.size
        })
    }

    /// A request: admit the flow to the credit round-robin.
    fn on_control(ep: &mut Pull<Self>, pkt: &Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let Proto::Pull(PullHdr::Request { msg_size, retry }) = pkt.payload else { return };
        let (flow, now) = (pkt.flow, ctx.now());
        let mut first = false;
        let m = match ep.rx.get_mut(flow) {
            Some(m) => m,
            None => {
                if let Some(&under_credited) = ep.rx_done.get(flow) {
                    // Late request of a completed flow.
                    if under_credited {
                        ep.pace(flow, ctx);
                    }
                    return;
                }
                first = true;
                ep.rx.insert(flow, PullRx::new(pkt.src, msg_size, now, 0))
            }
        };
        m.last_activity = now;
        // A *retried* request means the sender is still at byte zero — any
        // credits we issued were lost, so re-issue from what we actually
        // hold. (Without this, a lost credit deadlocks: retries refresh
        // `last_activity`, muzzling the stall watchdog, while the credit
        // line claims the flow is served.)
        if retry {
            m.policy = m.received.covered_bytes();
        }
        if first || m.policy < m.size {
            ep.pace(flow, ctx);
        }
        if first {
            ep.arm(Self::WATCHDOG, flow, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::common::TableStats;
    use netsim::{star, FlowId, HostId, SimTime, SwitchConfig, Transport};

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
        run_done(&mut topo.sim, SimDuration::from_millis(100), 10_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(5), 20_000);
        assert_eq!(report.flows_completed, 8);
        assert_eq!(topo.sim.total_counters().dropped, 0, "credit clocking must prevent drops");
    }

    #[test]
    fn large_flow_throughput_near_line_rate() {
        let mut topo = setup(2);
        install_expresspass(&mut topo, SimDuration::from_millis(1));
        let size = 4 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut topo.sim, SimDuration::from_millis(10), 50_000);
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
        let cfg =
            ExpressPassCfg { edge_rate: Rate::gbps(10), watchdog: SimDuration::from_millis(1) };
        let mut t = ExpressPassTransport::new(cfg, 1000);
        // A credit request when `len` is 0, data otherwise.
        let pkt_of = |flow: u64, offset: u64, len: u32, msg_size: u64, retry: bool| {
            let hdr = match len {
                0 => PullHdr::Request { msg_size, retry },
                _ => PullHdr::Data { offset, len, msg_size },
            };
            Packet::ctrl(FlowId(flow), HostId(0), me, Proto::Pull(hdr))
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
        t.paced.push_back(FlowId(7));
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
        t.paced.clear();
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
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use netsim::{star, SwitchConfig};

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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(100), 500_000);
        assert_eq!(
            report.flows_completed,
            40,
            "ExpressPass stalled {} flows",
            40 - report.flows_completed
        );
    }
}
