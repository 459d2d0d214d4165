//! A Swift-like delay-based transport and the PPT-over-Swift variant.
//!
//! Fig 14 of the paper shows PPT's dual-loop design layered on a
//! delay-based transport "conceptually equivalent to Swift": the variant
//! opens an LCP loop whenever the flow's measured delay falls below the
//! target delay and closes it after two consecutive RTTs without
//! low-priority ACKs, with the same mirror-symmetric flow scheduling.

use netsim::{FlowDesc, SimDuration, SimTime};
use ppt_core::PptConfig;

use crate::hcp::{Case1, Hcp, Stamp, Window};
use crate::ppt::Ppt;
use crate::proto::AckHdr;
use crate::tcp_base::{DctcpFlowTx, TcpCfg, WindowLaw};

/// Multiplicative-decrease gain β.
const BETA: f64 = 0.8;
/// Most of the window one decrease may take.
const MAX_MDF: f64 = 0.5;

/// Swift's window law, the fabric-delay half (Fig 14's "conceptually
/// equivalent to Swift" variant): Reno's increase while an ACK's delay is
/// under target, else a decrease in proportion to the overshoot, at most
/// once per base RTT.
#[derive(Clone, Debug)]
pub struct SwiftLaw {
    /// Target one-way+return fabric delay.
    target: SimDuration,
    /// Last multiplicative decrease.
    last_decrease: SimTime,
    /// The delay (now − `ts_echo`) of the last ACK, if it acknowledged
    /// anything new: the case-2 signal.
    delay: Option<SimDuration>,
}

impl SwiftLaw {
    /// Swift defaults for a given base RTT: target = 1.5 × base RTT.
    pub fn new(base_rtt: SimDuration) -> Self {
        SwiftLaw {
            target: SimDuration::from_nanos(base_rtt.as_nanos() * 3 / 2),
            last_decrease: SimTime::ZERO,
            delay: None,
        }
    }
}

impl WindowLaw for SwiftLaw {
    fn on_ack(
        &mut self,
        tx: &mut DctcpFlowTx,
        ack: &AckHdr,
        newly: u64,
        now: SimTime,
    ) -> Option<f64> {
        self.delay = (newly > 0).then(|| now.saturating_since(ack.ts_echo));
        let delay = self.delay?;
        if delay < self.target {
            tx.grow(newly);
        } else if now.saturating_since(self.last_decrease) >= tx.cfg().base_rtt {
            let over =
                (delay.as_nanos() - self.target.as_nanos()) as f64 / delay.as_nanos().max(1) as f64;
            tx.cut((1.0 - BETA * over).max(1.0 - MAX_MDF));
            self.last_decrease = now;
        }
        tx.set_cwnd(tx.cwnd());
        None
    }
}

/// The Swift-like high-priority loop: delay-based window (target =
/// 1.5 × base RTT), no ECN participation, and "delay below target" as
/// the spare-capacity signal (Fig 14).
#[derive(Clone, Copy, Debug)]
pub struct SwiftHcp;

impl Hcp for SwiftHcp {
    const STAMP: Stamp = Stamp::Delay;
    type Law = SwiftLaw;
    type Detector = ();

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, SwiftLaw) {
        let tx = DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, tcp.clone());
        (tx, SwiftLaw::new(tcp.base_rtt))
    }

    /// The pipe is empty at flow start, as in PPT; identified-large flows
    /// simply rely on the delay trigger.
    fn case1(&self, identified_large: bool) -> Case1 {
        if identified_large {
            Case1::Never
        } else {
            Case1::FirstRtt
        }
    }

    /// A loop sized to the gap between the window and the BDP.
    fn spare_capacity(
        &self,
        _: &mut (),
        tx: &DctcpFlowTx,
        law: &SwiftLaw,
        _: Option<f64>,
        cfg: &PptConfig,
    ) -> Option<u64> {
        (law.delay? < law.target).then(|| cfg.bdp_bytes().saturating_sub(tx.cwnd_bytes()))
    }
}

/// Plain Swift-like endpoint: delay-based window, single priority.
pub type SwiftTransport = Window<SwiftHcp>;
/// PPT layered over the Swift-like transport (Fig 14).
pub type SwiftPptTransport = Window<SwiftHcp, Ppt>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use netsim::{star, Rate, SimDuration, SimTime, SwitchConfig};

    fn install_swift(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg) {
        crate::install(topo, || SwiftTransport::new(tcp.clone(), SwiftHcp, ()));
    }

    fn install_swift_ppt(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &PptConfig) {
        crate::install(topo, || SwiftPptTransport::new(tcp.clone(), SwiftHcp, Ppt { cfg: *cfg }));
    }

    fn setup(n: usize) -> (netsim::Topology<Proto>, TcpCfg, PptConfig) {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let topo = star::<Proto>(n, rate, delay, SwitchConfig::ppt(200_000, 17_000, 10_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        let cfg = PptConfig::new(rate, topo.base_rtt);
        (topo, tcp, cfg)
    }

    #[test]
    fn swift_flows_complete() {
        let (mut topo, tcp, _) = setup(3);
        install_swift(&mut topo, &tcp);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 2 << 20, SimTime::ZERO, 1);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 100_000, SimTime(200_000), 1);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 20_000);
        assert_eq!(report.flows_completed, 2);
    }

    #[test]
    fn swift_keeps_delay_near_target_without_ecn() {
        // Swift has no ECN: queues are bounded by the delay target instead.
        let (mut topo, tcp, _) = setup(3);
        install_swift(&mut topo, &tcp);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 8 << 20, SimTime::ZERO, 1);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 8 << 20, SimTime::ZERO, 1);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 200_000);
        assert_eq!(report.flows_completed, 2);
        let c = topo.sim.total_counters();
        assert_eq!(c.marked, 0, "Swift packets must not be ECN-marked");
    }

    #[test]
    fn ppt_over_swift_beats_plain_swift_on_idle_pipe() {
        let size = 4 << 20;
        let (mut a, tcp, cfg) = setup(2);
        install_swift_ppt(&mut a, &tcp, &cfg);
        let f = a.sim.add_flow(a.hosts[0], a.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut a.sim, SimDuration::from_millis(20), 50_000);
        let ppt_fct = a.sim.completion(f).expect("swift-ppt done");

        let (mut b, tcp2, _) = setup(2);
        install_swift(&mut b, &tcp2);
        let g = b.sim.add_flow(b.hosts[0], b.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut b.sim, SimDuration::from_millis(20), 50_000);
        let swift_fct = b.sim.completion(g).expect("swift done");

        assert!(ppt_fct < swift_fct, "ppt-over-swift ({ppt_fct}) must beat swift ({swift_fct})");
    }
}
