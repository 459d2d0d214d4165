//! DCTCP (the paper's primary reactive baseline and PPT's HCP loop) and
//! its two loss-driven Table-1 variants, TCP-10 and Halfback: each is
//! [`Window`] over its own [`Hcp`], and all three run [`DctcpLaw`].

// The MwRecorder oracle handle below is the one sanctioned RefCell use:
// a measurement tap, not simulation state (see its doc comment).
// simlint: allow(shared_mut)
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::{FlowDesc, FlowId, SimTime};
use ppt_core::{AlphaEstimator, DEFAULT_G};

use crate::hcp::{Hcp, Stamp, Window};
use crate::ppt::DctcpHcp;
use crate::proto::AckHdr;
use crate::tcp_base::{DctcpFlowTx, TcpCfg, WindowLaw};

/// Shared map for recording each flow's maximum window — consumed by the
/// "hypothetical DCTCP" oracle experiments (Fig 2/3/20).
///
/// This is observational plumbing between the measurement pass and the
/// replay pass of a single-threaded experiment, never engine state: no
/// event ordering depends on it, and it will not cross shard boundaries.
// simlint: allow(shared_mut)
pub type MwRecorder = Rc<RefCell<BTreeMap<FlowId, u64>>>;

/// DCTCP's window law (the paper's Eq. 1): Reno's increase, and once per
/// round — a window of data acknowledged — α folds in the fraction of
/// ECE-echoing bytes and, if the round saw one, the window is cut by α/2.
/// Unmarked (TCP-10, Halfback) only fast retransmit and RTO cut it.
#[derive(Clone, Debug)]
pub struct DctcpLaw {
    alpha: AlphaEstimator,
    /// The round closes once feedback covers this offset.
    round_end: u64,
    /// An ECE arrived in this round.
    ce_in_round: bool,
}

impl DctcpLaw {
    /// The law for `tx`. Its first round ends with the flow's first
    /// segment, `[0, min(size, MSS))`: the segment every endpoint sends
    /// before any ACK can arrive.
    pub fn new(tx: &DctcpFlowTx) -> Self {
        let round_end = tx.size.min(tx.mss() as u64);
        DctcpLaw { alpha: AlphaEstimator::new(DEFAULT_G), round_end, ce_in_round: false }
    }

    /// Current α.
    pub fn alpha(&self) -> f64 {
        self.alpha.alpha()
    }
}

impl WindowLaw for DctcpLaw {
    fn on_ack(
        &mut self,
        tx: &mut DctcpFlowTx,
        ack: &AckHdr,
        newly: u64,
        _: SimTime,
    ) -> Option<f64> {
        // Every HCP ACK feeds α, a duplicate as one byte.
        self.alpha.on_ack(newly.max(1), if ack.ece { newly.max(1) } else { 0 });
        self.ce_in_round |= ack.ece;
        if newly > 0 {
            tx.grow(newly);
            tx.set_cwnd(tx.cwnd());
        }
        if self.round_end == 0 || tx.cum_high_water() < self.round_end {
            return None;
        }
        let alpha = self.alpha.end_of_round();
        // One multiplicative cut per round at most: the mark is consumed
        // here and only re-arms on fresh ECE.
        if self.ce_in_round {
            tx.cut(self.alpha.cut_factor());
        }
        self.ce_in_round = false;
        self.round_end = tx.snd_hi().max(tx.cum_high_water());
        Some(alpha)
    }
}

/// A DCTCP sender for `flow` over `tcp`, and its law.
pub(crate) fn dctcp_flow(flow: &FlowDesc, tcp: TcpCfg) -> (DctcpFlowTx, DctcpLaw) {
    let tx = DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, tcp);
    let law = DctcpLaw::new(&tx);
    (tx, law)
}

/// Plain DCTCP: all data at the highest priority, ECN-driven window.
pub type DctcpTransport = Window<DctcpHcp>;

/// The TCP-10 baseline: IW = 10 MSS, not ECN-capable (loss-driven only).
#[derive(Clone, Copy, Debug)]
pub struct Tcp10;

impl Hcp for Tcp10 {
    const STAMP: Stamp = Stamp::Delay;
    type Law = DctcpLaw;
    type Detector = ();

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, DctcpLaw) {
        dctcp_flow(flow, tcp.clone())
    }
}

/// The Halfback baseline: TCP-10 plus "pace out ≤141 KB flows in the
/// first RTT" (the paper's §2.1 characterization).
#[derive(Clone, Copy, Debug)]
pub struct Halfback;

impl Hcp for Halfback {
    const STAMP: Stamp = Stamp::Delay;
    type Law = DctcpLaw;
    type Detector = ();

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, DctcpLaw) {
        let mut tcp = tcp.clone();
        if flow.size_bytes <= 141_000 {
            // Short flows go out at line rate immediately.
            tcp.init_cwnd_bytes = tcp.init_cwnd_bytes.max(flow.size_bytes);
        }
        dctcp_flow(flow, tcp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::common::TableStats;
    use crate::proto::Proto;
    use netsim::{star, Rate, SimDuration, SimTime, SwitchConfig, TraceEvent, Transport};

    fn install_dctcp(topo: &mut netsim::Topology<Proto>, cfg: &TcpCfg) {
        crate::install(topo, || DctcpTransport::new(cfg.clone(), DctcpHcp, ()));
    }

    fn testbed(n: usize, k_bytes: u64) -> netsim::Topology<Proto> {
        star(n, Rate::gbps(10), SimDuration::from_micros(20), SwitchConfig::dctcp(200_000, k_bytes))
    }

    #[test]
    fn single_flow_completes_quickly() {
        let mut topo = testbed(2, 100_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        let size = 1 << 20; // 1MB
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(100), 100_000);
        assert_eq!(report.flows_completed, 1, "flow must complete");
        let fct = topo.sim.completion(f).unwrap();
        // Ideal: ~860us serialization + slow-start ramp. Allow 5x ideal.
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos();
        assert!(fct.as_nanos() < 5 * ideal + 2_000_000, "fct={fct}");
    }

    #[test]
    fn many_flows_all_complete() {
        let mut topo = testbed(4, 60_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        for i in 0..20u64 {
            let src = (i % 3) as usize;
            topo.sim.add_flow(
                topo.hosts[src],
                topo.hosts[3],
                50_000 + i * 10_000,
                SimTime(i * 50_000),
                1,
            );
        }
        let report = run_done(&mut topo.sim, SimDuration::from_millis(100), 50_000);
        assert_eq!(report.flows_completed, 20);
    }

    #[test]
    fn ecn_keeps_queue_bounded_and_avoids_drops() {
        // Two long flows share a 10G bottleneck with K = 30KB and a 200KB
        // buffer: DCTCP should hold the queue near K with zero drops.
        let mut topo = testbed(3, 30_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        let size = 10 << 20;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 200_000);
        assert_eq!(report.flows_completed, 2);
        let c = topo.sim.total_counters();
        assert_eq!(c.dropped, 0, "ECN should prevent drops: {c:?}");
        assert!(c.marked > 0, "marks must have occurred");
    }

    #[test]
    fn loss_is_recovered_via_sack_or_rto() {
        // Tiny buffer without ECN: drops happen, flow must still finish.
        let mut topo = star::<Proto>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::basic(15_000),
        );
        let cfg = TcpCfg::new(topo.base_rtt);
        install_dctcp(&mut topo, &cfg);
        let size = 2 << 20;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(20), 50_000);
        let c = topo.sim.total_counters();
        assert!(c.dropped > 0, "expected drops with a 15KB buffer");
        assert_eq!(report.flows_completed, 2, "flows must survive losses");
    }

    #[test]
    fn mw_recorder_captures_windows() {
        let mut topo = testbed(3, 30_000);
        let cfg = TcpCfg::new(topo.base_rtt);
        let rec: MwRecorder = Rc::new(RefCell::new(BTreeMap::new()));
        crate::install(&mut topo, || {
            DctcpTransport::new(cfg.clone(), DctcpHcp, ()).with_mw_recorder(rec.clone())
        });
        let size = 10 << 20;
        let f1 = topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        let f2 = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        run_done(&mut topo.sim, SimDuration::from_millis(50), 200_000);
        let rec = rec.borrow();
        assert!(rec.contains_key(&f1) && rec.contains_key(&f2));
        assert!(rec[&f1] >= netsim::MSS_BYTES as u64);
    }

    /// A sender is retired by the ACK that finishes it — with the simsan
    /// ledger told its live RTO timer is given up — and what arrives later
    /// does what it did to a done flow: an ACK traces the frozen window,
    /// the timer's fire is dropped.
    #[test]
    fn a_finished_sender_is_retired_and_late_events_do_what_they_did() {
        use crate::common::rto_token;
        use crate::common::testkit::{ack, drive};
        use netsim::HostId;
        let me = HostId(0);
        let tcp = TcpCfg::new(SimDuration::from_micros(80));
        let mut t = DctcpTransport::new(tcp, DctcpHcp, ());
        let flow = netsim::FlowDesc::new(FlowId(3), me, HostId(1), 1000, SimTime::ZERO);
        let start = drive(SimTime::ZERO, me, |ctx| t.on_flow_start(&flow, ctx));
        assert_eq!((start.packets.len(), start.timers.len()), (1, 1));
        let rto_at = start.timers[0].0;
        assert_eq!(t.flow_tables().0, TableStats { live: 1, high_water: 1 });

        let fin = drive(SimTime(100_000), me, |ctx| t.on_packet(ack(3, (1, 0), 1000, false), ctx));
        let cwnd = match fin.trace.last() {
            Some(&TraceEvent::CwndUpdate { flow: 3, cwnd }) => cwnd,
            other => panic!("the finishing ACK traces the window, got {other:?}"),
        };
        assert_eq!(fin.rto_disarms(), vec![3], "retiring gives up the live timer");
        assert!(fin.packets.is_empty() && fin.timers.is_empty());
        assert_eq!(t.flow_tables().0, TableStats { live: 0, high_water: 1 });
        assert_eq!(t.cc_snapshot().flows, 0);

        // A duplicate of that ACK: the same one trace line a done flow emitted.
        let late = drive(SimTime(150_000), me, |ctx| t.on_packet(ack(3, (1, 0), 1000, false), ctx));
        assert_eq!(late.trace, vec![TraceEvent::CwndUpdate { flow: 3, cwnd }]);
        assert!(late.packets.is_empty() && late.timers.is_empty() && late.notes.is_empty());
        // The timer it left in the queue fires into nothing.
        assert!(drive(rto_at, me, |ctx| t.on_timer(rto_token(3), ctx)).nothing());
        // An ACK for a flow this host never sent is still ignored.
        let stray = drive(rto_at, me, |ctx| t.on_packet(ack(4, (1, 0), 1000, false), ctx));
        assert!(stray.nothing());
    }
}
