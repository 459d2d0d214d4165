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

use netsim::{FlowDesc, Rate, SimDuration, SimTime};

use crate::hcp::{Hcp, Stamp, Window};
use crate::hpcc::IntHistory;
use crate::proto::{AckHdr, IntHop};
use crate::tcp_base::{DctcpFlowTx, TcpCfg, WindowLaw};

/// EWMA gain γ of the window update (W_c/Γ blends into the window at γ).
const GAMMA: f64 = 0.9;
/// Additive increase β per update, bytes.
const BETA: f64 = netsim::MSS_BYTES as f64;

/// PowerTCP's window law (NSDI'22, Algorithm 1): the window tracks
/// in-network *power* — current × voltage, where the current λ is the
/// per-hop throughput plus queue gradient and the voltage is the queue
/// plus one BDP — normalized so Γ = 1 at the q = 0, λ = C equilibrium.
/// Reacting to the gradient term lets it respond to congestion *while
/// queues are still building*, one RTT earlier than HPCC's inflight
/// estimate, which only sees the queue level itself.
#[derive(Clone, Debug)]
pub struct PowerTcpLaw {
    hist: IntHistory,
    /// Time-smoothed normalized power Γ (Algorithm 1's ewma over τ).
    smoothed: f64,
    /// When the previous power measurement was taken (Δt of the ewma).
    last_measure: SimTime,
}

impl PowerTcpLaw {
    /// PowerTCP from a window of `init_cwnd` bytes; Γ starts at equilibrium.
    pub fn new(init_cwnd: u64) -> Self {
        PowerTcpLaw { hist: IntHistory::new(init_cwnd), smoothed: 1.0, last_measure: SimTime::ZERO }
    }

    /// Normalized power Γ from an echoed INT stack, with τ the base RTT:
    /// per hop, λ = Δq/Δt + ΔtxBytes/Δt (current), v = q + C·τ (voltage),
    /// and the base power C²·τ normalizes the product so Γ = 1 means
    /// "exactly line rate with empty queues". The max over hops is then
    /// smoothed over τ. Hops without history contribute nothing (the
    /// first ACK of a flow measures neutral power).
    fn measure_power(&mut self, int: &[IntHop], now: SimTime, base_rtt: SimDuration) -> f64 {
        let tau = base_rtt.as_secs_f64();
        let mut g_max: f64 = 0.0;
        self.hist.advance(int, |hop, prev| {
            let c = hop.rate_bps as f64 / 8.0; // bytes/sec
            let Some(prev) = prev.filter(|_| c > 0.0) else { return };
            let dt_ns = hop.ts.as_nanos().saturating_sub(prev.ts.as_nanos());
            if dt_ns == 0 {
                return;
            }
            let dt = dt_ns as f64 / 1e9;
            let dq = hop.qlen_bytes as f64 - prev.qlen_bytes as f64;
            let tx_rate = hop.tx_bytes.saturating_sub(prev.tx_bytes) as f64 / dt;
            // Draining queues can push λ negative; clamp at zero (the
            // window still grows through the β term and the small Γ).
            let lambda = (dq / dt + tx_rate).max(0.0);
            let voltage = hop.qlen_bytes as f64 + c * tau;
            let base_power = c * c * tau;
            g_max = g_max.max(lambda * voltage / base_power);
        });
        if g_max <= 0.0 {
            // No history yet (or an idle path): neutral power.
            g_max = 1.0;
        }
        // Time-weighted ewma over one base RTT (PowerTCP Algorithm 1).
        let dt = now.saturating_since(self.last_measure).as_secs_f64();
        self.last_measure = now;
        self.smoothed = if dt >= tau || tau <= 0.0 {
            g_max
        } else {
            (self.smoothed * (tau - dt) + g_max * dt) / tau
        };
        self.smoothed
    }
}

impl WindowLaw for PowerTcpLaw {
    fn on_ack(&mut self, tx: &mut DctcpFlowTx, ack: &AckHdr, _: u64, now: SimTime) -> Option<f64> {
        let power = self.measure_power(ack.int_echo.as_deref()?, now, tx.cfg().base_rtt);
        self.hist.latch(ack, tx);
        // w = γ·(w_c/Γ + β) + (1−γ)·w: multiplicative toward the
        // power-balanced window, additive β probing.
        let w = GAMMA * (self.hist.wc / power.max(1e-3) + BETA) + (1.0 - GAMMA) * tx.cwnd();
        tx.set_cwnd(w.max(tx.mss() as f64));
        None
    }
}

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
    type Law = PowerTcpLaw;
    type Detector = ();

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, PowerTcpLaw) {
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
        let law = PowerTcpLaw::new(tcp.init_cwnd_bytes);
        (DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, tcp), law)
    }
}

/// The PowerTCP endpoint.
pub type PowerTcpTransport = Window<PowerTcpHcp>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::{IntStack, Proto};
    use netsim::{star, FlowId, HostId, Rate, SimDuration, SimTime, SwitchConfig};

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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 50_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 200_000);
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

    // ------------------------------------------------------------
    // The law alone, fed hand-made INT echoes.
    // ------------------------------------------------------------

    fn cfg() -> TcpCfg {
        TcpCfg::new(SimDuration::from_micros(80))
    }

    fn ack<const N: usize>(cum: u64, sacks: [(u64, u64); N], ece: bool) -> AckHdr {
        let sacks = sacks.into();
        AckHdr { cum, sacks, ece, lcp: false, ts_echo: SimTime::ZERO, int_echo: None }
    }

    /// An INT stack of one hop.
    fn int_stack(hop: IntHop) -> Box<IntStack> {
        Box::new([hop].into_iter().collect())
    }

    fn hop(qlen: u64, tx: u64, ts_ns: u64) -> IntHop {
        IntHop {
            qlen_bytes: qlen,
            qlen_high_bytes: qlen,
            tx_bytes: tx,
            tx_high_bytes: tx,
            ts: SimTime(ts_ns),
            rate_bps: 10_000_000_000,
        }
    }

    /// A sender of `c` and PowerTCP's law over it.
    fn powertcp_flow(c: &TcpCfg) -> (DctcpFlowTx, PowerTcpLaw) {
        let tx = DctcpFlowTx::new(FlowId(0), HostId(0), HostId(1), 100 << 20, c.clone());
        (tx, PowerTcpLaw::new(c.init_cwnd_bytes))
    }

    #[test]
    fn powertcp_power_is_neutral_at_line_rate_and_rises_with_queue_gradient() {
        // 10G, τ = 80µs: C = 1.25e9 B/s, BDP = 100KB, base power = C²τ.
        let (mut p, tau) = (PowerTcpLaw::new(100_000), SimDuration::from_micros(80));
        // First ACK has no per-hop history: neutral power.
        let g = p.measure_power(&[hop(0, 0, 0)], SimTime(0), tau);
        assert!((g - 1.0).abs() < 1e-9, "{g}");
        // Line rate with empty queue is the equilibrium: λ = C, v = BDP,
        // so Γ = C·(C·τ)/(C²·τ) = 1 exactly.
        let g = p.measure_power(&[hop(0, 50_000, 40_000)], SimTime(40_000), tau);
        assert!((g - 1.0).abs() < 1e-6, "{g}");
        // A building queue adds its gradient to the current and its depth
        // to the voltage: power must rise above 1.
        let g = p.measure_power(&[hop(60_000, 100_000, 80_000)], SimTime(80_000), tau);
        assert!(g > 1.0, "{g}");
    }

    #[test]
    fn powertcp_window_tracks_power() {
        let (mut f, mut law) = powertcp_flow(&cfg());
        while f.next_segment(SimTime::ZERO).is_some() {}
        let w0 = f.cwnd_bytes();
        // Neutral power: the window grows by the γ-weighted β probe.
        let mut a = ack(1460, [(0, 1460)], false);
        a.int_echo = Some(int_stack(hop(0, 0, 0)));
        f.on_ack(&a, SimTime(80_000), &mut law);
        assert!(f.cwnd_bytes() > w0, "neutral power must leave room for additive growth");
        // High power (queue built fast at line rate): multiplicative cut
        // below the pre-congestion window.
        let mut a = ack(2920, [(1460, 2920)], false);
        a.int_echo = Some(int_stack(hop(100_000, 50_000, 40_000)));
        f.on_ack(&a, SimTime(160_000), &mut law);
        assert!(f.cwnd_bytes() < w0, "high power must shrink the window, got {}", f.cwnd_bytes());
    }

    #[test]
    fn powertcp_near_zero_power_cannot_blow_past_the_cap() {
        // An ACK after an idle/drained path measures Γ ≈ 0; the wc/Γ
        // term must clamp at max_cwnd_bytes instead of inflating the
        // window a thousandfold (the divisor floor alone allows 1000×).
        let mut c = cfg();
        c.max_cwnd_bytes = 4 * c.init_cwnd_bytes;
        let (mut f, mut law) = powertcp_flow(&c);
        while f.next_segment(SimTime::ZERO).is_some() {}
        // Prime per-hop history, then echo an almost-idle observation:
        // tiny tx delta, empty queue → λ ≈ 0 → Γ ≈ 0 after smoothing.
        let mut a = ack(1460, [(0, 1460)], false);
        a.int_echo = Some(int_stack(hop(0, 0, 0)));
        f.on_ack(&a, SimTime(80_000), &mut law);
        let mut a = ack(2920, [(1460, 2920)], false);
        a.int_echo = Some(int_stack(hop(0, 1, 160_000)));
        f.on_ack(&a, SimTime(160_000), &mut law);
        assert!(
            f.cwnd_bytes() <= c.max_cwnd_bytes,
            "near-zero power blew the window to {} (cap {})",
            f.cwnd_bytes(),
            c.max_cwnd_bytes
        );
    }
}
