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
//! exactly that with [`Ppt`] beside the same [`HpccHcp`].

use netsim::{FlowDesc, Rate, SimDuration, SimTime};
use ppt_core::PptConfig;

use crate::hcp::{Hcp, Stamp, Window};
use crate::ppt::Ppt;
use crate::proto::{AckHdr, IntHop};
use crate::tcp_base::{DctcpFlowTx, TcpCfg, WindowLaw};

/// Open the LCP loop when HPCC's inflight estimate falls below this
/// fraction of capacity (the appendix's "in-flight bytes smaller than
/// BDP" condition, with a little hysteresis).
pub const DEFAULT_U_OPEN_THRESHOLD: f64 = 0.90;

/// Utilization target η.
const ETA: f64 = 0.95;
/// Additive-increase stages before a multiplicative step.
const MAX_STAGE: u32 = 5;
/// Additive increase per update W_AI, bytes.
const W_AI: f64 = netsim::MSS_BYTES as f64;

/// What the INT-driven laws (HPCC, PowerTCP) keep between ACKs: the
/// previous INT stack, hop by hop, and the reference window W_c, latched
/// once per RTT.
#[derive(Clone, Debug)]
pub(crate) struct IntHistory {
    /// Previous INT observation per hop, keyed by hop index.
    prev: Vec<IntHop>,
    /// Reference window W_c.
    pub(crate) wc: f64,
    /// W_c is latched again by the first ACK past this offset: the end of
    /// the data in flight at the last latch.
    latch_at: u64,
}

impl IntHistory {
    pub(crate) fn new(init_cwnd: u64) -> Self {
        IntHistory { prev: Vec::new(), wc: init_cwnd as f64, latch_at: 0 }
    }

    /// Visit each hop of `int` beside the same hop of the previous stack,
    /// if that had one, then keep `int` as the previous stack.
    pub(crate) fn advance(&mut self, int: &[IntHop], mut f: impl FnMut(&IntHop, Option<&IntHop>)) {
        for (i, hop) in int.iter().enumerate() {
            f(hop, self.prev.get(i));
        }
        self.prev.clear();
        self.prev.extend_from_slice(int);
    }

    /// Latch W_c at `tx`'s window if `ack` is the first of a new RTT; true
    /// when it did.
    pub(crate) fn latch(&mut self, ack: &AckHdr, tx: &DctcpFlowTx) -> bool {
        let due = ack.cum > self.latch_at;
        if due {
            self.wc = tx.cwnd();
            self.latch_at = tx.snd_hi();
        }
        due
    }
}

/// HPCC's window law (per the HPCC paper's per-ACK update driven by INT
/// telemetry): from the bottleneck's inflight estimate U, W = W_c/(U/η) +
/// W_AI when U ≥ η or after `MAX_STAGE` (5) additive steps, else W_c + W_AI.
#[derive(Clone, Debug)]
pub struct HpccLaw {
    hist: IntHistory,
    /// Priority-aware INT: measure only the high-priority band (P0–P3).
    /// Required when an LCP loop shares the path — otherwise HPCC counts
    /// the opportunistic traffic as congestion, yields window, and the
    /// LCP loop absorbs the yield in a spiral.
    high_band_only: bool,
    inc_stage: u32,
    /// The inflight estimate U of the last ACK that carried INT (the
    /// appendix-B variant opens its LCP loop when this drops below 1).
    last_u: f64,
}

impl HpccLaw {
    /// HPCC from a window of `init_cwnd` bytes.
    pub fn new(init_cwnd: u64, high_band_only: bool) -> Self {
        HpccLaw { hist: IntHistory::new(init_cwnd), high_band_only, inc_stage: 0, last_u: 0.0 }
    }
}

impl WindowLaw for HpccLaw {
    fn on_ack(&mut self, tx: &mut DctcpFlowTx, ack: &AckHdr, _: u64, _: SimTime) -> Option<f64> {
        // U: the normalized inflight estimate of the most loaded hop, with
        // T = the base RTT in qlen/(B·T).
        let (t, high) = (tx.cfg().base_rtt.as_secs_f64(), self.high_band_only);
        let mut u: f64 = 0.0;
        self.hist.advance(ack.int_echo.as_deref()?, |hop, prev| {
            let b_bytes_per_sec = hop.rate_bps as f64 / 8.0;
            let qlen = if high { hop.qlen_high_bytes } else { hop.qlen_bytes };
            let mut hop_u = qlen as f64 / (b_bytes_per_sec * t);
            if let Some(prev) = prev {
                let dt_ns = hop.ts.as_nanos().saturating_sub(prev.ts.as_nanos());
                if dt_ns > 0 {
                    let (now_tx, prev_tx) = if high {
                        (hop.tx_high_bytes, prev.tx_high_bytes)
                    } else {
                        (hop.tx_bytes, prev.tx_bytes)
                    };
                    let dbytes = now_tx.saturating_sub(prev_tx) as f64;
                    let tx_rate = dbytes / (dt_ns as f64 / 1e9);
                    hop_u += tx_rate / b_bytes_per_sec;
                }
            }
            u = u.max(hop_u);
        });
        self.last_u = u;
        if self.hist.latch(ack, tx) {
            self.inc_stage = 0;
        }
        let wc = self.hist.wc;
        if u >= ETA || self.inc_stage >= MAX_STAGE {
            tx.set_cwnd((wc / (u / ETA).max(1e-3) + W_AI).max(tx.mss() as f64));
        } else {
            tx.set_cwnd(wc + W_AI);
            self.inc_stage += 1;
        }
        None
    }
}

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
    /// with an LCP must (see [`HpccLaw`]).
    pub fn with_high_band_only(mut self) -> Self {
        self.high_band_only = true;
        self
    }
}

impl Hcp for HpccHcp {
    const STAMP: Stamp = Stamp::Int;
    type Law = HpccLaw;
    type Detector = ();

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, HpccLaw) {
        let mut tcp = tcp.clone();
        tcp.init_cwnd_bytes = tcp.init_cwnd_bytes.max(self.bdp_bytes);
        let law = HpccLaw::new(tcp.init_cwnd_bytes, self.high_band_only);
        (DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, tcp), law)
    }

    // No case 1: HPCC already starts at line rate (IW = BDP), so there is
    // no startup gap to fill.

    /// The inflight estimate says the path has headroom: fill up to the
    /// BDP.
    fn spare_capacity(
        &self,
        _: &mut (),
        tx: &DctcpFlowTx,
        law: &HpccLaw,
        _: Option<f64>,
        _: &PptConfig,
    ) -> Option<u64> {
        (law.last_u > 0.0 && law.last_u < DEFAULT_U_OPEN_THRESHOLD)
            .then(|| self.bdp_bytes.saturating_sub(tx.inflight_bytes()))
    }
}

/// The HPCC endpoint.
pub type HpccTransport = Window<HpccHcp>;
/// The PPT-over-HPCC endpoint.
pub type HpccPptTransport = Window<HpccHcp, Ppt>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use netsim::{star, EcnRule, MarkScope, Rate, SimDuration, SimTime, SwitchConfig};

    fn install_hpcc(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg) {
        let hcp = HpccHcp::new(topo.edge_rate, topo.base_rtt);
        crate::install(topo, || HpccTransport::new(tcp.clone(), hcp, ()));
    }

    fn install_hpcc_ppt(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &PptConfig) {
        let hcp = HpccHcp::new(topo.edge_rate, topo.base_rtt).with_high_band_only();
        crate::install(topo, || HpccPptTransport::new(tcp.clone(), hcp, Ppt { cfg: *cfg }));
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 20_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 200_000);
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
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 20_000);
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
        run_done(&mut a.sim, SimDuration::from_millis(20), 50_000);
        let ppt_fct = a.sim.completion(f).expect("hpcc-ppt done");

        let mut b = star::<Proto>(
            2,
            rate,
            netsim::SimDuration::from_micros(20),
            SwitchConfig::basic(200_000),
        );
        install_hpcc(&mut b, &tcp);
        let g = b.sim.add_flow(b.hosts[0], b.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut b.sim, SimDuration::from_millis(20), 50_000);
        let hpcc_fct = b.sim.completion(g).expect("hpcc done");

        // HPCC already starts at line rate, so gains are modest — but the
        // variant must never be slower than ~5% of plain HPCC.
        assert!(
            ppt_fct.as_nanos() as f64 <= hpcc_fct.as_nanos() as f64 * 1.05,
            "hpcc-ppt {ppt_fct} vs hpcc {hpcc_fct}"
        );
    }
}
