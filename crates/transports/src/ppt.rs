//! **PPT** — the paper's pragmatic transport: the [`Lcp`] layer over
//! DCTCP. This file holds only what is DCTCP-specific about it; the
//! dual-loop machinery and flow scheduling live in [`crate::lcp`].

use netsim::FlowDesc;
use ppt_core::{initial_window_case2, MinTracker, PptConfig};

use crate::dctcp::{dctcp_flow, DctcpLaw};
use crate::hcp::{Case1, Hcp, Stamp};
use crate::lcp::Lcp;
use crate::tcp_base::{DctcpFlowTx, TcpCfg};

/// DCTCP as the high-priority loop: ECN-marked, IW from [`TcpCfg`], and
/// "α closed a round at its windowed minimum" as the spare-capacity
/// signal (§3.1 case 2).
#[derive(Clone, Debug)]
pub struct DctcpHcp {
    min_tracker: MinTracker,
}

/// α minima are detected over the paper's [`ppt_core::DEFAULT_MIN_WINDOW`]
/// rounds; DCTCP with no LCP over it never consults them.
impl Default for DctcpHcp {
    fn default() -> Self {
        DctcpHcp { min_tracker: MinTracker::new(ppt_core::DEFAULT_MIN_WINDOW) }
    }
}

impl Hcp for DctcpHcp {
    const STAMP: Stamp = Stamp::Ecn;
    type Law = DctcpLaw;

    fn flow_tx(&self, flow: &FlowDesc, tcp: &TcpCfg) -> (DctcpFlowTx, DctcpLaw) {
        dctcp_flow(flow, tcp.clone())
    }

    /// 1st RTT for normal flows, 2nd RTT for identified-large ones (§3.1).
    fn case1(&self, identified_large: bool) -> Case1 {
        if identified_large {
            Case1::SecondRtt
        } else {
            Case1::FirstRtt
        }
    }

    fn spare_capacity(
        &mut self,
        tx: &DctcpFlowTx,
        _: &DctcpLaw,
        round_alpha: Option<f64>,
        cfg: &PptConfig,
    ) -> Option<u64> {
        let alpha = round_alpha?;
        if !self.min_tracker.push(alpha) || !tx.wmax.past_slow_start() {
            return None;
        }
        // Eq. 2 against the (scaled) MW; §3: LCP + HCP must not exceed it.
        let target = (tx.wmax.w_max_bytes()? as f64 * cfg.knobs.fill) as u64;
        Some(initial_window_case2(alpha, target).min(target.saturating_sub(tx.cwnd_bytes())))
    }
}

/// The PPT endpoint.
pub type PptTransport = Lcp<DctcpHcp>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::run_done;
    use crate::proto::Proto;
    use netsim::{star, Rate, RunLimits, SimDuration, SimTime, SwitchConfig};

    fn install_ppt(topo: &mut netsim::Topology<Proto>, tcp: &TcpCfg, cfg: &PptConfig) {
        crate::install(topo, || PptTransport::new(tcp.clone(), *cfg, DctcpHcp::default()));
    }

    fn ppt_testbed(n: usize) -> (netsim::Topology<Proto>, TcpCfg, PptConfig) {
        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let base_rtt = delay * 4;
        let cfg = PptConfig::new(rate, base_rtt);
        let (k_hi, k_lo) = cfg.ecn_thresholds();
        let topo = star::<Proto>(n, rate, delay, SwitchConfig::ppt(200_000, k_hi, k_lo));
        let tcp = TcpCfg::new(base_rtt);
        (topo, tcp, cfg)
    }

    fn run_flows(topo: &mut netsim::Topology<Proto>, max_time_ms: u64) -> netsim::RunReport {
        topo.sim.run(RunLimits {
            max_time: SimTime(max_time_ms * 1_000_000),
            max_events: 2_000_000_000,
        })
    }

    #[test]
    fn single_small_flow_completes_in_one_rtt_ish() {
        let (mut topo, tcp, cfg) = ppt_testbed(2);
        install_ppt(&mut topo, &tcp, &cfg);
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 5_000, SimTime::ZERO, 5_000);
        let report = run_flows(&mut topo, 100);
        assert_eq!(report.flows_completed, 1);
        let fct = topo.sim.completion(f).unwrap();
        assert!(fct.as_nanos() < 200_000, "small flow fct={fct}");
    }

    #[test]
    fn large_flow_completes_faster_than_dctcp() {
        // One 4MB flow on an idle network: PPT's LCP fills the pipe during
        // slow start, so it must beat plain DCTCP.
        let size = 4 << 20;

        let (mut ppt_topo, tcp, cfg) = ppt_testbed(2);
        install_ppt(&mut ppt_topo, &tcp, &cfg);
        let f =
            ppt_topo.sim.add_flow(ppt_topo.hosts[0], ppt_topo.hosts[1], size, SimTime::ZERO, size);
        run_flows(&mut ppt_topo, 1000);
        let ppt_fct = ppt_topo.sim.completion(f).expect("ppt flow done");

        let rate = Rate::gbps(10);
        let delay = SimDuration::from_micros(20);
        let mut dctcp_topo = star::<Proto>(2, rate, delay, SwitchConfig::dctcp(200_000, 17_000));
        crate::install(&mut dctcp_topo, || {
            crate::DctcpTransport::new(tcp.clone(), DctcpHcp::default(), ())
        });
        let g = dctcp_topo.sim.add_flow(
            dctcp_topo.hosts[0],
            dctcp_topo.hosts[1],
            size,
            SimTime::ZERO,
            size,
        );
        run_done(&mut dctcp_topo.sim, SimDuration::from_millis(100), 1_000_000);
        let dctcp_fct = dctcp_topo.sim.completion(g).expect("dctcp flow done");

        assert!(
            ppt_fct < dctcp_fct,
            "PPT ({ppt_fct}) must beat DCTCP ({dctcp_fct}) on an idle pipe"
        );
    }

    #[test]
    fn lcp_packets_use_low_priority_band() {
        // Two senders onto one downlink so the egress queue actually
        // builds (on an idle path nothing ever sits in a queue and the
        // sampler would see zeros).
        let (mut topo, tcp, cfg) = ppt_testbed(3);
        install_ppt(&mut topo, &tcp, &cfg);
        let size = 2 << 20;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        // Watch the switch egress port toward the receiver.
        let port = topo
            .sim
            .switch_port_towards(topo.leaves[0], netsim::NodeId::Host(topo.hosts[2]))
            .unwrap();
        topo.sim.enable_telemetry(netsim::TelemetryConfig::new(SimDuration::from_micros(5)));
        run_flows(&mut topo, 1000);
        let low_band = topo.sim.telemetry().unwrap().port_queue_lp_bytes(topo.leaves[0], port);
        let low_band_bytes: f64 = low_band.points().map(|p| p.value).sum();
        assert!(low_band_bytes > 0.0, "LCP traffic must appear in P4-P7");
    }

    #[test]
    fn many_to_one_all_complete_without_collapse() {
        let (mut topo, tcp, cfg) = ppt_testbed(8);
        install_ppt(&mut topo, &tcp, &cfg);
        for i in 0..7 {
            topo.sim.add_flow(
                topo.hosts[i],
                topo.hosts[7],
                500_000,
                SimTime(i as u64 * 1000),
                500_000,
            );
        }
        let report = run_flows(&mut topo, 5_000);
        assert_eq!(report.flows_completed, 7, "incast flows must all finish");
    }

    #[test]
    fn small_flows_beat_large_flows_under_contention() {
        let (mut topo, tcp, cfg) = ppt_testbed(4);
        install_ppt(&mut topo, &tcp, &cfg);
        // Two large identified flows hog the path to h3...
        topo.sim.add_flow(topo.hosts[0], topo.hosts[3], 8 << 20, SimTime::ZERO, 8 << 20);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[3], 8 << 20, SimTime::ZERO, 8 << 20);
        // ...then a burst of small flows arrives mid-transfer.
        let mut smalls = Vec::new();
        for i in 0..10u64 {
            smalls.push(topo.sim.add_flow(
                topo.hosts[2],
                topo.hosts[3],
                4_000,
                SimTime(2_000_000 + i * 10_000),
                4_000,
            ));
        }
        let report = run_flows(&mut topo, 60_000);
        assert_eq!(report.flows_completed, 12);
        for s in smalls {
            let start = topo.sim.flows()[s.0 as usize].start;
            let fct = topo.sim.completion(s).unwrap() - start;
            assert!(
                fct.as_nanos() < 1_000_000,
                "small flow should cut the line, fct={}us",
                fct.as_micros_f64()
            );
        }
    }

    #[test]
    fn ablations_run_to_completion() {
        // The switches belong to the layer, so every HCP under it must
        // honour them — not only DCTCP.
        use crate::{HpccHcp, Lcp, SwiftHcp};
        type Install = fn(&mut netsim::Topology<Proto>, &TcpCfg, &PptConfig);
        let layered: [(&str, Install); 3] = [
            ("ppt", install_ppt),
            ("swift-ppt", |topo, tcp, cfg| {
                crate::install(topo, || Lcp::new(tcp.clone(), *cfg, SwiftHcp))
            }),
            ("hpcc-ppt", |topo, tcp, cfg| {
                let hcp = HpccHcp::new(topo.edge_rate, topo.base_rtt).with_high_band_only();
                crate::install(topo, || Lcp::new(tcp.clone(), *cfg, hcp))
            }),
        ];
        for (name, install) in layered {
            for (ecn, ewd, sched, ident) in [
                (false, true, true, true),
                (true, false, true, true),
                (true, true, false, true),
                (true, true, true, false),
            ] {
                let (mut topo, tcp, mut cfg) = ppt_testbed(3);
                cfg.knobs.lcp_ecn = ecn;
                cfg.knobs.ewd = ewd;
                cfg.knobs.scheduling = sched;
                cfg.knobs.identification = ident;
                install(&mut topo, &tcp, &cfg);
                topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 1 << 20, SimTime::ZERO, 1 << 20);
                topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 50_000, SimTime(100_000), 50_000);
                let report = run_flows(&mut topo, 10_000);
                assert_eq!(
                    report.flows_completed, 2,
                    "{name} ablation (ecn={ecn},ewd={ewd},sched={sched},ident={ident}) must still complete"
                );
            }
        }
    }

    #[test]
    fn fill_fraction_sweep_runs() {
        for frac in [0.5, 1.0, 1.5] {
            let (mut topo, tcp, mut cfg) = ppt_testbed(3);
            cfg.knobs.fill = frac;
            install_ppt(&mut topo, &tcp, &cfg);
            topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 2 << 20, SimTime::ZERO, 2 << 20);
            topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 2 << 20, SimTime::ZERO, 2 << 20);
            let report = run_flows(&mut topo, 30_000);
            assert_eq!(report.flows_completed, 2, "fill fraction {frac}");
        }
    }
}
