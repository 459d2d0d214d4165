//! The "hypothetical DCTCP" oracle of §2.3.
//!
//! Built exactly as the paper describes: *first* run default DCTCP and
//! record each flow's maximum window (MW) with
//! [`crate::dctcp::MwRecorder`]; *then* run this transport, which sends
//! just enough low-priority opportunistic packets to fill each flow's
//! window gap up to `fill_fraction × MW` every RTT. Fig 2 uses
//! fill_fraction = 1; Fig 3 sweeps 0.5–1.5 and shows both under- and
//! over-filling lose.

use std::collections::BTreeMap;

use netsim::{FlowDesc, FlowId};

use crate::common::Token;
use crate::dctcp::MwRecorder;
use crate::hcp::{low_packet, Beside, Cx, Hcp, Window};
use crate::ppt::DctcpHcp;
use crate::tcp_base::DctcpFlowTx;

/// Per-RTT oracle fill tick.
pub const TIMER_HYPO_FILL: u8 = 9;

/// The oracle filler: what runs beside DCTCP in the hypothetical endpoint.
pub struct Oracle {
    /// MW recorded from a prior plain-DCTCP run of the *same* workload
    /// (same seeds ⇒ same flow ids): a whole-run lookup, not per-flow state.
    oracle: BTreeMap<FlowId, u64>,
    fill_fraction: f64,
}

impl Oracle {
    /// Build from a recorded oracle.
    pub fn new(oracle: &MwRecorder, fill_fraction: f64) -> Self {
        Oracle { oracle: oracle.borrow().clone(), fill_fraction }
    }
}

impl<H: Hcp> Beside<H> for Oracle {
    /// The flow's MW from the recording run (None → no filling).
    type Flow = Option<u64>;

    fn flow(&self, flow: &FlowDesc) -> Option<u64> {
        self.oracle.get(&flow.id).copied()
    }

    /// The fill starts with the first window.
    fn started(&self, mw: &mut Option<u64>, _: &H, tx: &mut DctcpFlowTx, ctx: &mut Cx<'_>) {
        let token = Token { kind: TIMER_HYPO_FILL, generation: 0, flow: tx.id.0 };
        Beside::<H>::on_timer(self, mw, tx, token, ctx);
    }

    /// Once per RTT: send opportunistic tail packets so that cwnd plus
    /// this RTT's fill ≈ fill_fraction × MW. The fill of earlier RTTs is
    /// not counted: delivered or lost, it no longer occupies the path.
    fn on_timer(&self, mw: &mut Option<u64>, tx: &mut DctcpFlowTx, token: Token, ctx: &mut Cx<'_>) {
        if token.kind != TIMER_HYPO_FILL {
            return;
        }
        let target = mw.map_or(0, |mw| (mw as f64 * self.fill_fraction) as u64);
        let mut budget = target.saturating_sub(tx.cwnd_bytes());
        while budget >= tx.mss() as u64 {
            let Some(seg) = tx.claim_tail(tx.size, tx.mss()) else { break };
            budget = budget.saturating_sub(seg.1 as u64);
            ctx.send(low_packet(tx, seg, 4, true, ctx.now()));
        }
        ctx.timer_after(tx.cfg().base_rtt, token.encode());
    }
}

/// The hypothetical-DCTCP endpoint: DCTCP with the oracle filler beside it.
pub type HypotheticalTransport = Window<DctcpHcp, Oracle>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::dctcp::DctcpTransport;
    use crate::proto::Proto;
    use crate::tcp_base::TcpCfg;
    use netsim::SimTime;
    use netsim::{star, Rate, SimDuration, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn install_hypothetical(
        topo: &mut netsim::Topology<Proto>,
        tcp: &TcpCfg,
        oracle: &MwRecorder,
        fill_fraction: f64,
    ) {
        crate::install(topo, || {
            let oracle = Oracle::new(oracle, fill_fraction);
            HypotheticalTransport::new(tcp.clone(), DctcpHcp, oracle)
        });
    }

    /// Run DCTCP to record MWs, then the hypothetical filler on the same
    /// workload; the filler must cut the large flow's FCT.
    #[test]
    fn oracle_filling_beats_plain_dctcp() {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mk = || star::<Proto>(3, rate, delay, SwitchConfig::ppt(200_000, 17_000, 10_000));
        let size = 4u64 << 20;

        // Pass 1: record.
        let mut a = mk();
        let tcp = TcpCfg::new(a.base_rtt);
        let rec: MwRecorder = Rc::new(RefCell::new(BTreeMap::new()));
        crate::install(&mut a, || {
            DctcpTransport::new(tcp.clone(), DctcpHcp, ()).with_mw_recorder(rec.clone())
        });
        let f1 = a.sim.add_flow(a.hosts[0], a.hosts[2], size, SimTime::ZERO, size);
        let f2 = a.sim.add_flow(a.hosts[1], a.hosts[2], size, SimTime(40_000_000), size);
        run_done(&mut a.sim, SimDuration::from_millis(100), 100_000);
        let base1 = a.sim.completion(f1).unwrap();
        let _ = f2;

        // Pass 2: replay with the oracle.
        let mut b = mk();
        install_hypothetical(&mut b, &tcp, &rec, 1.0);
        let g1 = b.sim.add_flow(b.hosts[0], b.hosts[2], size, SimTime::ZERO, size);
        b.sim.add_flow(b.hosts[1], b.hosts[2], size, SimTime(40_000_000), size);
        let report = run_done(&mut b.sim, SimDuration::from_millis(100), 200_000);
        assert_eq!(report.flows_completed, 2);
        let hypo1 = b.sim.completion(g1).unwrap();
        assert!(hypo1 < base1, "oracle filler ({hypo1}) must beat plain DCTCP ({base1})");
    }

    #[test]
    fn flows_without_oracle_entries_degrade_to_dctcp() {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mut topo = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        let rec: MwRecorder = Rc::new(RefCell::new(BTreeMap::new())); // empty oracle
        install_hypothetical(&mut topo, &tcp, &rec, 1.0);
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1 << 20, SimTime::ZERO, 1);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(20), 10_000);
        assert_eq!(report.flows_completed, 1);
        assert!(topo.sim.completion(f).is_some());
    }
}
