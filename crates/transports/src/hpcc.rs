//! HPCC — High Precision Congestion Control — and PPT over it.
//!
//! Window-based control driven by per-hop INT telemetry: every data packet
//! collects (qlen, txBytes, ts, linkRate) at each switch egress, the
//! receiver echoes the stack in its ACK, and the sender computes the
//! bottleneck "inflight" estimate U and sets W = W_c/(U/η) + W_AI.
//! The paper compares against HPCC in appendix D (Fig 25): it utilizes
//! spare bandwidth gracefully but has no in-network flow scheduling.
//!
//! Appendix B suggests PPT's design can serve as a building block for
//! INT-based transports: "one may open a PPT LCP loop to send
//! low-priority opportunistic packets whenever HPCC's estimated in-flight
//! bytes are smaller than BDP and use PPT's buffer-aware scheduling to
//! prioritize small flows over large ones". [`HpccPptTransport`] does
//! exactly that with [`Lcp`] over the same [`HpccHcp`].

use netsim::{FlowDesc, Rate, SimDuration};
use ppt_core::PptConfig;

use crate::hcp::{Hcp, Stamp, Window};
use crate::lcp::Lcp;
use crate::tcp_base::{AckOutcome, CcMode, DctcpFlowTx, HpccCc, TcpCfg};

/// Open the LCP loop when HPCC's inflight estimate falls below this
/// fraction of capacity (the appendix's "in-flight bytes smaller than
/// BDP" condition, with a little hysteresis).
pub const DEFAULT_U_OPEN_THRESHOLD: f64 = 0.90;

/// HPCC as the high-priority loop (η = 0.95, maxStage = 5, W_AI = 1 MSS):
/// INT instead of ECN, a line-rate start, and U below
/// [`DEFAULT_U_OPEN_THRESHOLD`] as the spare-capacity signal.
#[derive(Clone, Copy, Debug)]
pub struct HpccHcp {
    /// Line-rate start: the initial window is one BDP.
    bdp_bytes: u64,
    high_band_only: bool,
}

impl HpccHcp {
    /// The line-rate initial window is the BDP of the edge link.
    pub fn new(edge_rate: Rate, base_rtt: SimDuration) -> Self {
        HpccHcp { bdp_bytes: netsim::bdp_bytes(edge_rate, base_rtt), high_band_only: false }
    }

    /// Measure only the high-priority band, as an HCP sharing its path
    /// with an LCP must (see [`HpccCc::high_band_only`]).
    pub fn with_high_band_only(mut self) -> Self {
        self.high_band_only = true;
        self
    }
}

impl Hcp for HpccHcp {
    const STAMP: Stamp = Stamp::Int;

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> DctcpFlowTx {
        let mut tcp = tcp.clone();
        tcp.init_cwnd_bytes = tcp.init_cwnd_bytes.max(self.bdp_bytes);
        let mut cc = HpccCc::new(tcp.base_rtt, tcp.init_cwnd_bytes);
        cc.high_band_only = self.high_band_only;
        DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, tcp)
            .with_cc_mode(CcMode::Hpcc(cc))
    }

    // No case 1: HPCC already starts at line rate (IW = BDP), so there is
    // no startup gap to fill.

    /// The inflight estimate says the path has headroom: fill up to the
    /// BDP.
    fn spare_capacity(
        &mut self,
        tx: &DctcpFlowTx,
        _ack: &AckOutcome,
        _cfg: &PptConfig,
    ) -> Option<u64> {
        let CcMode::Hpcc(h) = tx.cc_mode() else { return None };
        (h.last_u > 0.0 && h.last_u < DEFAULT_U_OPEN_THRESHOLD)
            .then(|| self.bdp_bytes.saturating_sub(tx.inflight_bytes()))
    }
}

/// The HPCC endpoint.
pub type HpccTransport = Window<HpccHcp>;
/// The PPT-over-HPCC endpoint.
pub type HpccPptTransport = Lcp<HpccHcp>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Proto;
    use netsim::{star, EcnRule, MarkScope, Rate, RunLimits, SimDuration, SimTime, SwitchConfig};

    fn install_hpcc(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg) {
        let hcp = HpccHcp::new(topo.edge_rate, topo.base_rtt);
        crate::install(topo, || HpccTransport::new(tcp.clone(), hcp, ()));
    }

    fn install_hpcc_ppt(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &PptConfig) {
        let hcp = HpccHcp::new(topo.edge_rate, topo.base_rtt).with_high_band_only();
        crate::install(topo, || HpccPptTransport::new(tcp.clone(), cfg.clone(), hcp));
    }

    fn setup(n: usize) -> (netsim::Topology<Proto>, TcpCfg) {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        // HPCC needs no ECN config; plain deep-buffered switch.
        let topo = star::<Proto>(n, rate, delay, SwitchConfig::basic(200_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        (topo, tcp)
    }

    #[test]
    fn hpcc_flows_complete() {
        let (mut topo, tcp) = setup(3);
        install_hpcc(&mut topo, &tcp);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 2 << 20, SimTime::ZERO, 1);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 500_000, SimTime(100_000), 1);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
    }

    #[test]
    fn hpcc_converges_to_low_queue_occupancy() {
        // Two long flows share the bottleneck: HPCC targets 95% utilization
        // with near-empty queues, so drops must not occur and the queue
        // should stay shallow.
        let (mut topo, tcp) = setup(3);
        install_hpcc(&mut topo, &tcp);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 6 << 20, SimTime::ZERO, 1);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 6 << 20, SimTime::ZERO, 1);
        let port = topo
            .sim
            .switch_port_towards(topo.leaves[0], netsim::NodeId::Host(topo.hosts[2]))
            .unwrap();
        topo.sim.enable_telemetry(netsim::TelemetryConfig::new(SimDuration::from_micros(50)));
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
        assert_eq!(topo.sim.total_counters().dropped, 0, "HPCC should not overflow a 200KB buffer");
        // Average backlog over the steady interval should be well under
        // the buffer (HPCC's near-zero-queue property, loosely checked).
        let backlog = topo.sim.telemetry().unwrap().port_queue_bytes(topo.leaves[0], port);
        let avg = backlog.points().map(|p| p.value).sum::<f64>() / backlog.len().max(1) as f64;
        assert!(avg < 100_000.0, "avg queue {avg} too deep for HPCC");
    }

    /// Switch for PPT-over-HPCC: no ECN for the INT-driven HCP band, PPT's
    /// low threshold for the LCP band, push-out protection.
    fn hpcc_ppt_switch(buffer: u64, k_low: u64) -> SwitchConfig {
        let mut cfg = SwitchConfig::basic(buffer).with_push_out(true);
        for p in 4..8 {
            cfg.ecn[p] = Some(EcnRule { threshold_bytes: k_low, scope: MarkScope::Port });
        }
        cfg
    }

    #[test]
    fn flows_complete_and_lcp_band_is_used() {
        let rate = Rate::gbps(10);
        let mut topo = star::<Proto>(
            3,
            rate,
            netsim::SimDuration::from_micros(20),
            hpcc_ppt_switch(200_000, 40_000),
        );
        let cfg = PptConfig::new(rate, topo.base_rtt);
        let tcp = TcpCfg::new(topo.base_rtt);
        install_hpcc_ppt(&mut topo, &tcp, &cfg);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 2 << 20, SimTime::ZERO, 2 << 20);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 100_000, SimTime(300_000), 100_000);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
    }

    #[test]
    fn beats_plain_hpcc_under_mixed_load() {
        // A workload with idle gaps: the LCP loop should pick up slack.
        let rate = Rate::gbps(10);
        let size = 4u64 << 20;

        let mut a = star::<Proto>(
            2,
            rate,
            netsim::SimDuration::from_micros(20),
            hpcc_ppt_switch(200_000, 40_000),
        );
        let cfg = PptConfig::new(rate, a.base_rtt);
        let tcp = TcpCfg::new(a.base_rtt);
        install_hpcc_ppt(&mut a, &tcp, &cfg);
        let f = a.sim.add_flow(a.hosts[0], a.hosts[1], size, SimTime::ZERO, size);
        a.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        let ppt_fct = a.sim.completion(f).expect("hpcc-ppt done");

        let mut b = star::<Proto>(
            2,
            rate,
            netsim::SimDuration::from_micros(20),
            SwitchConfig::basic(200_000),
        );
        install_hpcc(&mut b, &tcp);
        let g = b.sim.add_flow(b.hosts[0], b.hosts[1], size, SimTime::ZERO, size);
        b.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        let hpcc_fct = b.sim.completion(g).expect("hpcc done");

        // HPCC already starts at line rate, so gains are modest — but the
        // variant must never be slower than ~5% of plain HPCC.
        assert!(
            ppt_fct.as_nanos() as f64 <= hpcc_fct.as_nanos() as f64 * 1.05,
            "hpcc-ppt {ppt_fct} vs hpcc {hpcc_fct}"
        );
    }
}
