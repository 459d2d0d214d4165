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

use netsim::{Ctx, Ecn, FlowDesc, FlowId, Packet, Transport};

use crate::common::{release_rto, service_rto, FlowTable, TableStats, Token, TIMER_RTO};
use crate::hcp::pump;
use crate::ppt::DctcpHcp;
use crate::proto::{DataHdr, IntSlot, Proto};
use crate::rx::TcpRxTable;
use crate::tcp_base::{DctcpFlowTx, TcpCfg};

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

struct Rc3FlowTx {
    hcp: DctcpFlowTx,
    /// Low-priority bytes currently in flight (sent, not yet acked).
    lp_inflight: u64,
    /// The low-priority loop is open until it crosses the primary loop.
    lp_active: bool,
}

/// The RC3 endpoint.
pub struct Rc3Transport {
    tcp: TcpCfg,
    cfg: Rc3Cfg,
    /// Senders still waiting for ACKs; a finished one leaves nothing (its
    /// top-up tick finds no flow and stops).
    tx: FlowTable<Rc3FlowTx>,
    rx: TcpRxTable,
}

impl Rc3Transport {
    /// New endpoint. RC3 ACKs every low-priority packet (no EWD clock).
    pub fn new(tcp: TcpCfg, cfg: Rc3Cfg) -> Self {
        Rc3Transport { tcp, cfg, tx: FlowTable::new(), rx: TcpRxTable::new(1) }
    }

    /// Occupancy of the `(sender, receiver)` tables: flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

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
    fn top_up(tcp: &TcpCfg, cfg: &Rc3Cfg, f: &mut Rc3FlowTx, ctx: &mut Ctx<'_, Proto>) {
        let mss = tcp.mss as u64;
        let now = ctx.now();
        if !f.lp_active {
            return;
        }
        let (id, src, dst, size) = (f.hcp.id, f.hcp.src, f.hcp.dst, f.hcp.size);
        while f.lp_inflight + mss <= cfg.bdp_bytes {
            let buffer_end = size.min(f.hcp.cum_acked().saturating_add(cfg.send_buffer_bytes));
            let Some((start, len)) = f.hcp.claim_tail(buffer_end, tcp.mss) else {
                // Loops crossed: every byte claimed at least once.
                f.lp_active = false;
                break;
            };
            f.hcp.add_sent_bytes(len as u64);
            f.lp_inflight += len as u64;
            let prio = Self::layer_priority(mss, size - (start + len as u64));
            let hdr = DataHdr {
                offset: start,
                len,
                msg_size: size,
                lcp: true,
                retx: false,
                sent_at: now,
                int: IntSlot::Off,
            };
            let mut pkt = Packet::data(id, src, dst, len, Proto::Data(hdr)).with_priority(prio);
            // RC3's low loop ignores congestion signals entirely.
            pkt.ecn = Ecn::not_capable();
            ctx.send(pkt);
        }
    }

    /// Retire `id`, whose last byte was just acknowledged.
    fn retire(&mut self, id: FlowId, ctx: &mut Ctx<'_, Proto>) {
        if let Some(f) = self.tx.retire(id) {
            release_rto(&f.hcp, ctx);
        }
    }
}

impl Transport<Proto> for Rc3Transport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let hcp = DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, self.tcp.clone());
        let f = self.tx.insert(flow.id, Rc3FlowTx { hcp, lp_inflight: 0, lp_active: true });
        pump::<DctcpHcp>(&mut f.hcp, ctx);
        Self::top_up(&self.tcp, &self.cfg, f, ctx);
        ctx.timer_after(
            self.tcp.base_rtt,
            Token { kind: TIMER_RC3_TOPUP, generation: 0, flow: flow.id.0 }.encode(),
        );
    }

    fn on_packet(&mut self, mut pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        match &pkt.payload {
            Proto::Data(_) => self.rx.on_data(&mut pkt, ctx),
            Proto::Ack(ack) if ack.lcp => {
                let Some(f) = self.tx.get_mut(pkt.flow) else { return };
                let sacked: u64 = ack.sacks.iter().map(|&(s, e)| e - s).sum();
                f.lp_inflight = f.lp_inflight.saturating_sub(sacked);
                f.hcp.on_lcp_ack(ack, ctx.now());
                if f.hcp.is_done() {
                    return self.retire(pkt.flow, ctx);
                }
                // An ACK frees low-priority window: immediately refill it
                // (this is what "fills the entire BDP every RTT" means).
                Self::top_up(&self.tcp, &self.cfg, f, ctx);
            }
            Proto::Ack(ack) => {
                let Some(f) = self.tx.get_mut(pkt.flow) else { return };
                f.hcp.on_ack(ack, ctx.now());
                if f.hcp.is_done() {
                    return self.retire(pkt.flow, ctx);
                }
                pump::<DctcpHcp>(&mut f.hcp, ctx);
            }
            _ => unreachable!("RC3 endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        let Some(f) = self.tx.get_mut(FlowId(token.flow)) else { return };
        match token.kind {
            TIMER_RTO => {
                let timed_out = service_rto(&mut f.hcp, ctx);
                if timed_out {
                    pump::<DctcpHcp>(&mut f.hcp, ctx);
                }
            }
            TIMER_RC3_TOPUP if f.lp_active => {
                // Periodic refill: lost low-priority packets never get
                // acked, so reclaim their window each RTT.
                f.lp_inflight = 0;
                Self::top_up(&self.tcp, &self.cfg, f, ctx);
                ctx.timer_after(
                    self.tcp.base_rtt,
                    Token { kind: TIMER_RC3_TOPUP, generation: 0, flow: token.flow }.encode(),
                );
            }
            _ => {}
        }
    }

    fn cc_snapshot(&self) -> netsim::CcSnapshot {
        crate::common::cc_snapshot(self.tx.values().map(|f| (&f.hcp, 0)))
    }
}

/// Install RC3 on every host.
pub fn install_rc3(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &Rc3Cfg) {
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Box::new(Rc3Transport::new(tcp.clone(), cfg.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use netsim::{star, Rate, RunLimits, SimDuration, SwitchConfig};

    #[test]
    fn layer_priorities_follow_recursive_split() {
        let mss = netsim::MSS_BYTES as u64;
        assert_eq!(Rc3Transport::layer_priority(mss, 0), 4);
        assert_eq!(Rc3Transport::layer_priority(mss, 39 * mss), 4);
        assert_eq!(Rc3Transport::layer_priority(mss, 40 * mss), 5);
        assert_eq!(Rc3Transport::layer_priority(mss, 439 * mss), 5);
        assert_eq!(Rc3Transport::layer_priority(mss, 440 * mss), 6);
        assert_eq!(Rc3Transport::layer_priority(mss, 5000 * mss), 7);
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
        let report = topo
            .sim
            .run(RunLimits { max_time: SimTime(30_000_000_000), max_events: 2_000_000_000 });
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
        a.sim.run(RunLimits { max_time: SimTime(60_000_000_000), max_events: 2_000_000_000 });
        let rc3_fct = a.sim.completion(f).expect("rc3 done");

        let mut b = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        crate::dctcp::install_dctcp(&mut b, &tcp);
        let g = b.sim.add_flow(b.hosts[0], b.hosts[1], size, SimTime::ZERO, size);
        b.sim.run(RunLimits::default());
        let dctcp_fct = b.sim.completion(g).expect("dctcp done");

        assert!(rc3_fct < dctcp_fct, "rc3={rc3_fct} dctcp={dctcp_fct}");
    }
}
