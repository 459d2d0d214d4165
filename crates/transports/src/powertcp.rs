//! PowerTCP — window control from in-network power.
//!
//! "PowerTCP: Pushing the Performance Limits of Datacenter Networks"
//! (NSDI'22): every ACK echoes the per-hop INT stack HPCC already
//! carries, and the sender computes normalized *power* Γ — current
//! (throughput + queue gradient) times voltage (queue + BDP) over the
//! base power C²τ — then sets W = γ·(W_c/Γ + β) + (1−γ)·W. Reacting to
//! the queue *gradient* lets PowerTCP back off while the queue is still
//! building, a reaction HPCC only has once the queue level itself moves.
//! Everything but the window law is HPCC's: the same [`Stamp::Int`]
//! packets through the same [`Window`] endpoint.

use netsim::{FlowDesc, Rate, SimDuration};

use crate::hcp::{Hcp, Stamp, Window};
use crate::tcp_base::{CcMode, DctcpFlowTx, PowerTcpCc, TcpCfg};

/// PowerTCP as a high-priority loop (γ = 0.9, β = 1 MSS). No scheme
/// layers an LCP over it, so it keeps [`Hcp`]'s defaults: no case 1, no
/// spare-capacity signal.
#[derive(Clone, Copy, Debug)]
pub struct PowerTcpHcp {
    /// Line-rate start: the initial window is one BDP.
    bdp_bytes: u64,
}

impl PowerTcpHcp {
    /// The line-rate initial window is the BDP of the edge link.
    pub fn new(edge_rate: Rate, base_rtt: SimDuration) -> Self {
        PowerTcpHcp { bdp_bytes: netsim::bdp_bytes(edge_rate, base_rtt) }
    }
}

impl Hcp for PowerTcpHcp {
    const STAMP: Stamp = Stamp::Int;

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> DctcpFlowTx {
        let mut tcp = tcp.clone();
        tcp.init_cwnd_bytes = tcp.init_cwnd_bytes.max(self.bdp_bytes);
        // The window law divides by Γ on *every* ACK (unlike HPCC, which
        // only divides when congested), and an ACK arriving after the
        // path drained can measure near-zero power — W_c/Γ would then
        // inflate the window by orders of magnitude and W_c latches the
        // inflated value an RTT later. Reference implementations bound
        // the window at a small BDP multiple; 4× leaves room for the
        // additive probe to fill a shared buffer without letting one
        // idle-path ACK park megabytes in the NIC queue.
        tcp.max_cwnd_bytes = tcp.max_cwnd_bytes.min((4 * self.bdp_bytes).max(tcp.init_cwnd_bytes));
        let cc = PowerTcpCc::new(tcp.base_rtt, tcp.init_cwnd_bytes);
        DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, tcp)
            .with_cc_mode(CcMode::PowerTcp(cc))
    }
}

/// The PowerTCP endpoint.
pub type PowerTcpTransport = Window<PowerTcpHcp>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Proto;
    use netsim::{star, Rate, RunLimits, SimDuration, SimTime, SwitchConfig};

    fn install_powertcp(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg) {
        let hcp = PowerTcpHcp::new(topo.edge_rate, topo.base_rtt);
        crate::install(topo, || PowerTcpTransport::new(tcp.clone(), hcp, ()));
    }

    fn setup(n: usize) -> (netsim::Topology<Proto>, TcpCfg) {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        // PowerTCP needs no ECN config; plain deep-buffered switch.
        let topo = star::<Proto>(n, rate, delay, SwitchConfig::basic(200_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        (topo, tcp)
    }

    #[test]
    fn powertcp_flows_complete() {
        let (mut topo, tcp) = setup(3);
        install_powertcp(&mut topo, &tcp);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 2 << 20, SimTime::ZERO, 1);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 500_000, SimTime(100_000), 1);
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        assert_eq!(report.flows_completed, 2);
    }

    #[test]
    fn powertcp_converges_to_low_queue_occupancy() {
        // Two long flows share the bottleneck: the power signal targets
        // λ = C with empty queues, so drops must not occur and the
        // backlog should stay shallow.
        let (mut topo, tcp) = setup(3);
        install_powertcp(&mut topo, &tcp);
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
        assert_eq!(
            topo.sim.total_counters().dropped,
            0,
            "PowerTCP should not overflow a 200KB buffer"
        );
        // Average backlog over the steady interval should be well under
        // the buffer (the near-zero-queue property, loosely checked).
        let backlog = topo.sim.telemetry().unwrap().port_queue_bytes(topo.leaves[0], port);
        let avg = backlog.points().map(|p| p.value).sum::<f64>() / backlog.len().max(1) as f64;
        assert!(avg < 100_000.0, "avg queue {avg} too deep for PowerTCP");
    }
}
