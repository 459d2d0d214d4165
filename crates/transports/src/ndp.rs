//! NDP — re-architected datacenter transport with packet trimming and
//! receiver-driven pulls.
//!
//! * Senders blast the first window (one BDP) at line rate; everything
//!   after that is released one packet per PULL.
//! * Switches trim data packets to headers beyond a shallow queue
//!   threshold (see [`netsim::SwitchConfig::ndp`]); trimmed headers jump
//!   to the control queue, so the receiver learns about every would-be
//!   loss in one RTT and NACKs it back onto the sender's retransmit queue.
//! * Receivers pace PULLs at the downlink packet rate, round-robin across
//!   active flows, which clocks senders at exactly the bottleneck rate.
//!
//! The paper's characterization (§2.1, Table 1): passive first-RTT use
//! (trimmed payloads waste the capacity they occupied) but graceful
//! steady-state behaviour under incast.

use std::collections::VecDeque;

use netsim::{Ctx, FlowId, Rate, SimDuration};

use crate::proto::Proto;
use crate::pull::{send, Grant, Pull, PullTx, PULLED_PRIORITY};

/// Receiver pull-pacer tick.
pub const TIMER_NDP_PULL: u8 = 7;
/// Receiver stall watchdog.
pub const TIMER_NDP_WATCHDOG: u8 = 8;

/// NDP configuration, and the [`Grant`] policy it runs.
#[derive(Clone, Debug)]
pub struct NdpCfg {
    /// First-window size (one BDP).
    pub initial_window_bytes: u64,
    /// Downlink rate the pull pacer clocks against.
    pub edge_rate: Rate,
    /// Watchdog interval for stalled incomplete flows.
    pub watchdog: SimDuration,
}

impl NdpCfg {
    /// The initial window is the BDP of the edge link.
    pub fn new(edge_rate: Rate, base_rtt: SimDuration, watchdog: SimDuration) -> Self {
        NdpCfg { initial_window_bytes: netsim::bdp_bytes(edge_rate, base_rtt), edge_rate, watchdog }
    }
}

/// The NDP endpoint.
pub type NdpTransport = Pull<NdpCfg>;

/// A stalled receiver NACKs every gap up to the message size: whole-packet
/// loss (a failed link, not the trimmer) leaves holes no trimmed header
/// ever advertised. Each NACKed MSS, and the stall itself, earns a pull.
impl Grant for NdpCfg {
    const WATCHDOG: u8 = TIMER_NDP_WATCHDOG;
    const PACER: u8 = TIMER_NDP_PULL;
    const TRIMMABLE: bool = true;
    const PULLS_PER_REQUEST: bool = true;
    /// NACKed ranges awaiting a pull.
    type Tx = VecDeque<(u64, u32)>;
    type Rx = ();
    /// The completed mark: a late trimmed header still earns its NACK and
    /// pull, and both go by what the packet says.
    type Done = ();

    fn watchdog(&self) -> SimDuration {
        self.watchdog
    }

    fn start(&self, tx: &mut PullTx<Self::Tx>, mss: u32, ctx: &mut Ctx<'_, Proto>) {
        // Line-rate first window.
        tx.sent = tx.size.min(self.initial_window_bytes);
        send::<Self>(tx, (0, tx.sent), PULLED_PRIORITY, false, mss, ctx);
    }

    fn arrived(ep: &mut Pull<Self>, flow: FlowId, live: bool, ctx: &mut Ctx<'_, Proto>) {
        if live {
            ep.pace(flow, ctx);
        }
    }

    fn on_resend(&self, tx: &mut PullTx<Self::Tx>, offset: u64, len: u32) -> Option<u8> {
        // Back of the queue: `queued_resend` pops the front, so NACKed
        // ranges are resent in arrival order, ahead of any new data.
        tx.policy.push_back((offset, len));
        // A NACK may reach past `sent` (watchdog recovery of a dead pull
        // chain): the range is queued for delivery now, so never send it
        // again as "new" data.
        tx.sent = tx.sent.max(offset + len as u64);
        None
    }

    fn queued_resend(queue: &mut Self::Tx, mss: u32) -> Option<(u64, u32)> {
        let (offset, len) = queue.pop_front()?;
        let take = len.min(mss);
        if take < len {
            queue.push_front((offset + take as u64, len - take));
        }
        Some((offset, take))
    }

    fn pace_interval(&self) -> SimDuration {
        self.edge_rate.serialization_time(netsim::MTU_BYTES as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::common::TableStats;
    use crate::proto::PullHdr;
    use netsim::{star, HostId, Packet, SimTime, SwitchConfig, Transport};

    fn install_ndp(topo: &mut netsim::Topology<Proto>, watchdog: SimDuration) {
        let cfg = NdpCfg::new(topo.edge_rate, topo.base_rtt, watchdog);
        crate::install(topo, || NdpTransport::new(cfg.clone(), netsim::MSS_BYTES));
    }

    fn setup(n: usize) -> netsim::Topology<Proto> {
        // NDP switch: shallow 60KB port buffer, trim beyond 12KB.
        star::<Proto>(
            n,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::ndp(60_000, 12_000),
        )
    }

    #[test]
    fn single_flow_completes() {
        let mut topo = setup(2);
        install_ndp(&mut topo, SimDuration::from_millis(1));
        let size = 1 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(5), 20_000);
        assert_eq!(report.flows_completed, 1);
        let fct = topo.sim.completion(f).unwrap();
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos();
        assert!(fct.as_nanos() < 4 * ideal, "fct={fct}");
    }

    #[test]
    fn incast_trims_instead_of_dropping() {
        let mut topo = setup(9);
        install_ndp(&mut topo, SimDuration::from_millis(1));
        for i in 0..8 {
            topo.sim.add_flow(topo.hosts[i], topo.hosts[8], 200_000, SimTime(i as u64 * 100), 1);
        }
        let report = run_done(&mut topo.sim, SimDuration::from_millis(5), 20_000);
        assert_eq!(report.flows_completed, 8);
        let c = topo.sim.total_counters();
        assert!(c.trimmed > 0, "incast must engage the trimmer: {c:?}");
        // Trimming replaces dropping: payload drops should be rare or nil.
        assert!(c.dropped < c.trimmed / 10 + 5, "trim should dominate drops: {c:?}");
    }

    #[test]
    fn pull_pacing_clocks_sender_at_bottleneck_rate() {
        // One long flow: after the initial burst, data arrives pull-clocked
        // — so the FCT is close to size/rate with no queue blowup.
        let mut topo = setup(2);
        install_ndp(&mut topo, SimDuration::from_millis(1));
        let size = 4 << 20;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut topo.sim, SimDuration::from_millis(10), 50_000);
        let fct = topo.sim.completion(f).unwrap().as_nanos() as f64;
        let ideal = Rate::gbps(10).serialization_time(size).as_nanos() as f64;
        assert!(fct / ideal < 2.6, "pull clocking too slow: {}x ideal", fct / ideal);
    }

    /// A completed receiver leaves the table; a late trimmed header still
    /// earns its NACK and a turn in the pull queue (which the pacer skips),
    /// and nothing completes — or is created — twice.
    #[test]
    fn a_completed_receiver_is_retired_and_late_packets_do_what_they_did() {
        use crate::common::testkit::drive;
        let me = HostId(1);
        let cfg = NdpCfg {
            initial_window_bytes: 50_000,
            edge_rate: Rate::gbps(10),
            watchdog: SimDuration::from_millis(1),
        };
        let mut t = NdpTransport::new(cfg, 1000);
        let pkt = |offset: u64, trimmed: bool| {
            let hdr = PullHdr::Data { offset, len: 1000, msg_size: 2000 };
            let mut p = Packet::data(FlowId(7), HostId(0), me, 1000, Proto::Pull(hdr));
            p.trimmed = trimmed;
            p
        };
        let first = drive(SimTime(10), me, |ctx| t.on_packet(pkt(0, false), ctx));
        // The watchdog, then the pacer for the pull the packet earned.
        assert_eq!(first.timers.len(), 2);
        let watchdog = first.timers[0];
        assert_eq!(t.flow_tables().1, TableStats { live: 1, high_water: 1 });
        let last = drive(SimTime(20), me, |ctx| t.on_packet(pkt(1000, false), ctx));
        assert_eq!(last.completed, vec![FlowId(7)]);
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });

        // The queued pull finds the flow complete: nothing is sent.
        let tick = drive(SimTime(30), me, |ctx| t.on_timer(first.timers[1].1, ctx));
        assert!(tick.nothing() && !t.pacer_armed);
        // A late whole duplicate changes nothing.
        assert!(drive(SimTime(40), me, |ctx| t.on_packet(pkt(0, false), ctx)).nothing());
        // A late trimmed header is NACKed to the sender and queues a pull.
        let late = drive(SimTime(50), me, |ctx| t.on_packet(pkt(1000, true), ctx));
        assert!(late.completed.is_empty(), "a flow completes once");
        assert_eq!(late.packets.len(), 1);
        assert_eq!(late.packets[0].dst, HostId(0));
        let nacked = matches!(
            late.packets[0].payload,
            Proto::Pull(PullHdr::Resend { offset: 1000, len: 1000 })
        );
        assert!(nacked, "{:?}", late.packets[0].payload);
        assert_eq!(late.timers.len(), 1, "the pull arms the pacer");
        assert!(drive(SimTime(60), me, |ctx| t.on_timer(late.timers[0].1, ctx)).nothing());
        // The watchdog of a completed flow stops.
        assert!(drive(watchdog.0, me, |ctx| t.on_timer(watchdog.1, ctx)).nothing());
        assert_eq!(t.flow_tables().1, TableStats { live: 0, high_water: 1 });
    }
}
