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

use std::collections::BTreeMap;

use netsim::{Ctx, Ecn, FlowDesc, FlowId, Packet, Transport};

use crate::common::{service_rto, Token, TIMER_RTO};
use crate::hcp::pump;
use crate::ppt::DctcpHcp;
use crate::proto::{DataHdr, Proto};
use crate::rx::TcpRx;
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
    tx: BTreeMap<FlowId, Rc3FlowTx>,
    rx: BTreeMap<FlowId, TcpRx>,
}

impl Rc3Transport {
    /// New endpoint.
    pub fn new(tcp: TcpCfg, cfg: Rc3Cfg) -> Self {
        Rc3Transport { tcp, cfg, tx: BTreeMap::new(), rx: BTreeMap::new() }
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
    fn top_up(&mut self, id: FlowId, ctx: &mut Ctx<'_, Proto>) {
        let mss = self.tcp.mss as u64;
        let bdp = self.cfg.bdp_bytes;
        let send_buffer = self.cfg.send_buffer_bytes;
        let now = ctx.now();
        let Some(f) = self.tx.get_mut(&id) else { return };
        if !f.lp_active || f.hcp.is_done() {
            return;
        }
        let (src, dst, size) = (f.hcp.src, f.hcp.dst, f.hcp.size);
        while f.lp_inflight + mss <= bdp {
            let buffer_end = size.min(f.hcp.cum_acked().saturating_add(send_buffer));
            let Some((start, len)) = f.hcp.claim_tail(buffer_end, self.tcp.mss) else {
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
                int: None,
            };
            let mut pkt = Packet::data(id, src, dst, len, Proto::Data(hdr)).with_priority(prio);
            // RC3's low loop ignores congestion signals entirely.
            pkt.ecn = Ecn::not_capable();
            ctx.send(pkt);
        }
    }
}

impl Transport<Proto> for Rc3Transport {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let mut hcp =
            DctcpFlowTx::new(flow.id, flow.src, flow.dst, flow.size_bytes, self.tcp.clone());
        pump::<DctcpHcp>(&mut hcp, ctx);
        self.tx.insert(flow.id, Rc3FlowTx { hcp, lp_inflight: 0, lp_active: true });
        self.top_up(flow.id, ctx);
        ctx.timer_after(
            self.tcp.base_rtt,
            Token { kind: TIMER_RC3_TOPUP, generation: 0, flow: flow.id.0 }.encode(),
        );
    }

    fn on_packet(&mut self, pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        match &pkt.payload {
            Proto::Data(hdr) => {
                let rx = self
                    .rx
                    .entry(pkt.flow)
                    // RC3 ACKs every low-priority packet (no EWD clock).
                    .or_insert_with(|| TcpRx::new(pkt.flow, pkt.src, hdr.msg_size, 1));
                rx.on_data(&pkt, hdr, ctx);
            }
            Proto::Ack(ack) if ack.lcp => {
                let now = ctx.now();
                {
                    let Some(f) = self.tx.get_mut(&pkt.flow) else { return };
                    let sacked: u64 = ack.sacks.iter().map(|&(s, e)| e - s).sum();
                    f.lp_inflight = f.lp_inflight.saturating_sub(sacked);
                    f.hcp.on_lcp_ack(ack, now);
                }
                // An ACK frees low-priority window: immediately refill it
                // (this is what "fills the entire BDP every RTT" means).
                self.top_up(pkt.flow, ctx);
            }
            Proto::Ack(ack) => {
                let Some(f) = self.tx.get_mut(&pkt.flow) else { return };
                f.hcp.on_ack(ack, ctx.now());
                if !f.hcp.is_done() {
                    pump::<DctcpHcp>(&mut f.hcp, ctx);
                }
            }
            _ => unreachable!("RC3 endpoint received a non-TCP packet"),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(token);
        let id = FlowId(token.flow);
        match token.kind {
            TIMER_RTO => {
                let Some(f) = self.tx.get_mut(&id) else { return };
                if service_rto(&mut f.hcp, ctx) {
                    pump::<DctcpHcp>(&mut f.hcp, ctx);
                }
            }
            TIMER_RC3_TOPUP => {
                let active = {
                    let Some(f) = self.tx.get_mut(&id) else { return };
                    // Periodic refill: lost low-priority packets never get
                    // acked, so reclaim their window each RTT.
                    if f.lp_active && !f.hcp.is_done() {
                        f.lp_inflight = 0;
                        true
                    } else {
                        false
                    }
                };
                if active {
                    self.top_up(id, ctx);
                    ctx.timer_after(
                        self.tcp.base_rtt,
                        Token { kind: TIMER_RC3_TOPUP, generation: 0, flow: id.0 }.encode(),
                    );
                }
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
