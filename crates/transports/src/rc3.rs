//! RC3 (Recursively Cautious Congestion Control), adapted to the
//! datacenter per the paper's comparison setup: the primary loop is DCTCP
//! (not Internet TCP), and the low-priority loops fill the *entire*
//! remaining BDP from the flow's tail every RTT.
//!
//! Key contrasts with PPT (§3 "Remarks") that this implementation
//! reproduces deliberately:
//! * the low-priority loop opens at flow start and stays open until it
//!   crosses the primary loop — no intermittent detection;
//! * low-priority packets do **not** react to ECN — RC3 makes no attempt
//!   to protect the primary loop;
//! * no exponential decrease: the loop tops back up to a full BDP of
//!   low-priority in-flight every RTT.
//!
//! RC3's recursive priority layering is kept: the last 40 packets of the
//! flow ride P4, the next 400 ride P5, the next 4000 ride P6 and the rest
//! P7, so across flows the scarcest tail bytes win ties.

use crate::common::Token;
use crate::hcp::{low_packet, Beside, Cx, Hcp, Window};
use crate::ppt::DctcpHcp;
use crate::proto::AckHdr;
use crate::tcp_base::DctcpFlowTx;

/// Per-RTT low-priority top-up tick.
pub const TIMER_RC3_TOPUP: u8 = 5;

/// RC3 configuration.
#[derive(Clone, Debug)]
pub struct Rc3Cfg {
    /// BDP the low-priority loop keeps in flight.
    pub bdp_bytes: u64,
    /// Send-buffer bound on tail reach (RC3 recommends huge buffers; the
    /// paper uses 2 GB).
    pub send_buffer_bytes: u64,
}

/// A flow's low-priority loop.
#[derive(Default)]
pub struct Rc3Flow {
    /// Low-priority bytes currently in flight (sent, not yet acked).
    lp_inflight: u64,
    /// The loop has crossed the primary loop and is closed.
    crossed: bool,
}

impl Rc3Cfg {
    /// RC3's recursive layer priority for a byte that sits `from_tail`
    /// bytes before the end of the flow.
    fn layer_priority(mss: u64, from_tail: u64) -> u8 {
        let pkts = from_tail / mss;
        if pkts < 40 {
            4
        } else if pkts < 440 {
            5
        } else if pkts < 4440 {
            6
        } else {
            7
        }
    }

    /// Top the low-priority loop back up to a full BDP of in-flight bytes.
    fn top_up(&self, f: &mut Rc3Flow, tx: &mut DctcpFlowTx, ctx: &mut Cx<'_>) {
        if f.crossed {
            return;
        }
        let mss = tx.mss();
        while f.lp_inflight + mss as u64 <= self.bdp_bytes {
            let buffer_end = tx.size.min(tx.cum_acked().saturating_add(self.send_buffer_bytes));
            let Some((start, len)) = tx.claim_tail(buffer_end, mss) else {
                // Every byte claimed at least once.
                f.crossed = true;
                break;
            };
            tx.add_sent_bytes(len as u64);
            f.lp_inflight += len as u64;
            let prio = Self::layer_priority(mss as u64, tx.size - (start + len as u64));
            // RC3's low loop ignores congestion signals entirely.
            ctx.send(low_packet(tx, (start, len), prio, false, ctx.now()));
        }
    }
}

impl<H: Hcp> Beside<H> for Rc3Cfg {
    type Flow = Rc3Flow;

    /// The loop opens with the first window.
    fn started(&self, f: &mut Rc3Flow, _: &H, tx: &mut DctcpFlowTx, ctx: &mut Cx<'_>) {
        let token = Token { kind: TIMER_RC3_TOPUP, generation: 0, flow: tx.id.0 };
        Beside::<H>::on_timer(self, f, tx, token, ctx);
    }

    /// An ACK frees low-priority window: immediately refill it (this is
    /// what "fills the entire BDP every RTT" means).
    fn on_low_ack(&self, f: &mut Rc3Flow, tx: &mut DctcpFlowTx, ack: &AckHdr, ctx: &mut Cx<'_>) {
        let sacked: u64 = ack.sacks.iter().map(|&(s, e)| e - s).sum();
        f.lp_inflight = f.lp_inflight.saturating_sub(sacked);
        self.top_up(f, tx, ctx);
    }

    /// Periodic refill: lost low-priority packets never get acked, so
    /// reclaim their window each RTT, until the tick after the loops cross.
    fn on_timer(&self, f: &mut Rc3Flow, tx: &mut DctcpFlowTx, token: Token, ctx: &mut Cx<'_>) {
        if token.kind == TIMER_RC3_TOPUP && !f.crossed {
            f.lp_inflight = 0;
            self.top_up(f, tx, ctx);
            ctx.timer_after(tx.cfg().base_rtt, token.encode());
        }
    }
}

/// The RC3 endpoint: DCTCP with the tail-first low-priority loop beside
/// it. RC3 ACKs every low-priority packet (no EWD clock).
pub type Rc3Transport = Window<DctcpHcp, Rc3Cfg>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use crate::tcp_base::TcpCfg;
    use netsim::SimTime;
    use netsim::{star, Rate, SimDuration, SwitchConfig};

    fn install_rc3(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &Rc3Cfg) {
        crate::install(topo, || Rc3Transport::new(tcp.clone(), DctcpHcp, cfg.clone()));
    }

    #[test]
    fn layer_priorities_follow_recursive_split() {
        let mss = netsim::MSS_BYTES as u64;
        assert_eq!(Rc3Cfg::layer_priority(mss, 0), 4);
        assert_eq!(Rc3Cfg::layer_priority(mss, 39 * mss), 4);
        assert_eq!(Rc3Cfg::layer_priority(mss, 40 * mss), 5);
        assert_eq!(Rc3Cfg::layer_priority(mss, 439 * mss), 5);
        assert_eq!(Rc3Cfg::layer_priority(mss, 440 * mss), 6);
        assert_eq!(Rc3Cfg::layer_priority(mss, 5000 * mss), 7);
    }

    #[test]
    fn rc3_completes_flows() {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mut topo = star::<Proto>(3, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        let tcp = TcpCfg::new(topo.base_rtt);
        let cfg = Rc3Cfg {
            bdp_bytes: netsim::bdp_bytes(rate, topo.base_rtt),
            send_buffer_bytes: 2 << 30,
        };
        install_rc3(&mut topo, &tcp, &cfg);
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 3 << 20, SimTime::ZERO, 3 << 20);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 200_000, SimTime(500_000), 200_000);
        let report = run_done(&mut topo.sim, SimDuration::from_millis(50), 50_000);
        assert_eq!(report.flows_completed, 2);
    }

    #[test]
    fn rc3_beats_dctcp_on_idle_pipe() {
        // A single large flow on an empty network: the low loop fills the
        // pipe from the first RTT, so RC3 finishes well before DCTCP.
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let size = 4 << 20;

        let mut a = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        let tcp = TcpCfg::new(a.base_rtt);
        let cfg =
            Rc3Cfg { bdp_bytes: netsim::bdp_bytes(rate, a.base_rtt), send_buffer_bytes: 2 << 30 };
        install_rc3(&mut a, &tcp, &cfg);
        let f = a.sim.add_flow(a.hosts[0], a.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut a.sim, SimDuration::from_millis(20), 50_000);
        let rc3_fct = a.sim.completion(f).expect("rc3 done");

        let mut b = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        crate::install(&mut b, || crate::DctcpTransport::new(tcp.clone(), DctcpHcp, ()));
        let g = b.sim.add_flow(b.hosts[0], b.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut b.sim, SimDuration::from_millis(100), 1_000_000);
        let dctcp_fct = b.sim.completion(g).expect("dctcp done");

        assert!(rc3_fct < dctcp_fct, "rc3={rc3_fct} dctcp={dctcp_fct}");
    }
}
