//! PIAS — Practical Information-Agnostic flow Scheduling.
//!
//! DCTCP rate control plus multi-level-feedback-queue priority tagging:
//! every flow starts at the highest priority and is demoted as its
//! bytes-sent crosses successive thresholds, approximating SJF without
//! knowing flow sizes. Contrasted with PPT in appendix D (Fig 25): PIAS
//! has no spare-bandwidth filling and demotes large flows only *after*
//! they have pushed a lot of bytes through the high-priority queues.

use netsim::TraceEvent;

use crate::hcp::{Beside, Cx, Hcp, Window};
use crate::ppt::DctcpHcp;
use crate::tcp_base::DctcpFlowTx;

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

impl<H: Hcp> Beside<H> for PiasCfg {
    /// Last priority the flow's packets were tagged with — only maintained
    /// while tracing, to emit `PiasDemote` on level changes.
    type Flow = u8;

    /// Each segment's own level: that of the bytes sent through it.
    fn hcp_priority(&self, traced: &mut u8, tx: &DctcpFlowTx, sent: u64, ctx: &mut Cx<'_>) -> u8 {
        let prio = self.priority(sent);
        if ctx.tracing() {
            if prio > *traced {
                ctx.emit(TraceEvent::PiasDemote { flow: tx.id.0, from: *traced, to: prio });
            }
            *traced = prio;
        }
        prio
    }
}

/// The PIAS endpoint: DCTCP with per-packet demotion beside it.
pub type PiasTransport = Window<DctcpHcp, PiasCfg>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use crate::tcp_base::TcpCfg;
    use netsim::{star, Rate, SimDuration, SimTime, SwitchConfig};

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
        crate::install(&mut topo, || PiasTransport::new(tcp.clone(), DctcpHcp, PiasCfg::default()));
        let big = topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 8 << 20, SimTime::ZERO, 1);
        let small = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 20_000, SimTime(1_000_000), 1);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 100_000);
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
