#![forbid(unsafe_code)]
//! # netsim — a deterministic packet-level datacenter network simulator
//!
//! This crate is the substrate for the PPT reproduction: a discrete-event,
//! packet-level simulator in the spirit of the simulators the paper
//! evaluates on (ns-3 / htsim / the Aeolus simulator), rebuilt from scratch
//! in safe Rust.
//!
//! Design choices (following the smoltcp school of networking Rust):
//! - **Synchronous, single-threaded, event-driven.** The workload is
//!   CPU-bound; an async runtime would add nondeterminism for no benefit.
//! - **Deterministic.** One totally-ordered event queue with FIFO
//!   tie-break (a calendar queue, see [`sched`]); no wall-clock or hash-map
//!   iteration order leaks into behaviour.
//! - **Arena + ids, not pointers.** Nodes and links live in `Vec`s and are
//!   addressed by small copyable ids.
//! - **Effects, not re-entrancy.** Transport handlers write packets/timers
//!   into a sink that the engine applies afterwards.
//!
//! ## Feature inventory
//!
//! - Calendar-queue event scheduler with O(1) near-horizon insert, whose
//!   every pop simsan checks against a shadow of the pushed keys (see
//!   [`sched`]); only events that do work are scheduled (`TxDone` is
//!   pushed when it has a successor).
//! - Hosts with 8-level strict-priority NIC egress queues.
//! - Switches with per-port shared buffers, 8 strict-priority queues,
//!   instantaneous-queue ECN marking with configurable scopes (per-queue /
//!   priority-group / whole-port), NDP-style payload trimming, and
//!   priority-range byte caps.
//! - Destination-based shortest-path routing with per-flow ECMP.
//! - Star and leaf-spine topology builders matching the paper's setups.
//! - Continuous telemetry, the one periodic observer: a deterministic
//!   whole-fabric sampler filling ring-buffered series (link utilization,
//!   per-port queue occupancy, ...) and log-bucket histograms, plus an
//!   opt-in wall-clock dispatch profiler (see [`telemetry`]).
//! - Per-host transport CPU accounting (the kernel-overhead substitute).
//!
//! Protocols live in the `transports` crate; they implement
//! [`host::Transport`] and define their own [`packet::Payload`] header type.

pub mod engine;
pub mod faults;
mod hop;
pub mod host;
pub mod ids;
pub mod link;
pub mod packet;
pub mod pfc;
pub mod pool;
pub mod queue;
pub mod report;
pub mod rng;
pub mod sanitizer;
pub mod sched;
pub mod switch;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod units;

pub use dcn_trace as trace;
pub use dcn_trace::{TraceEvent, TraceSink};
pub use engine::Simulator;
pub use faults::{FaultOp, FaultReport, FaultSchedule, TimedFault};
pub use host::{Ctx, FlowDesc, Transport};
pub use ids::{FlowId, HostId, LinkId, NodeId, SwitchId};
pub use packet::{
    Ecn, HopTelemetry, NoPayload, Packet, Payload, CTRL_BYTES, HEADER_BYTES, MSS_BYTES, MTU_BYTES,
    NUM_PRIORITIES, TRIMMED_BYTES,
};
pub use pool::PoolStats;
pub use report::{RunLimits, RunReport, StopReason};
pub use rng::Pcg32;
pub use sanitizer::{SanLevel, SanNote, SanViolation};
pub use switch::{
    EcnRule, EnqueueOutcome, MarkScope, PfcConfig, PortCounters, RangeCap, SwitchConfig,
};
pub use telemetry::{CcSnapshot, Telemetry, TelemetryConfig};
pub use time::{SimDuration, SimTime};
pub use topology::{fat_tree, leaf_spine, star, FatTreeParams, LeafSpineParams, Shape, Topology};
pub use units::{bdp_bytes, Rate};

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::host::Ctx;
    use crate::packet::segment;

    /// Run `sim` until its queue drains, under a bound of about twice what
    /// the run needs: a run that cannot stop fails here instead of hanging.
    fn run_done<P: Payload>(
        sim: &mut Simulator<P>,
        max_time_ns: u64,
        max_events: u64,
    ) -> RunReport {
        let report = sim.run(RunLimits { max_time: SimTime(max_time_ns), max_events });
        assert_eq!(report.stop, StopReason::AllFlowsDone, "{report:?}");
        report
    }

    /// A toy go-back-nothing transport: the sender blasts every segment
    /// immediately; the receiver counts bytes and completes the flow.
    /// Exercises NIC serialization, switch forwarding and completion
    /// plumbing without any congestion control.
    struct Blast {
        // receiver state: flow -> bytes received & expected size
        rx: std::collections::HashMap<FlowId, (u64, u64)>,
    }

    #[derive(Clone, Debug)]
    struct BlastHdr {
        is_data: bool,
        size: u64,
    }
    impl Payload for BlastHdr {}

    impl Transport<BlastHdr> for Blast {
        fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, BlastHdr>) {
            for (_, len) in segment(flow.size_bytes) {
                ctx.send(Packet::data(
                    flow.id,
                    flow.src,
                    flow.dst,
                    len,
                    BlastHdr { is_data: true, size: flow.size_bytes },
                ));
            }
        }
        fn on_packet(&mut self, pkt: Packet<BlastHdr>, ctx: &mut Ctx<'_, BlastHdr>) {
            assert!(pkt.payload.is_data);
            let entry = self.rx.entry(pkt.flow).or_insert((0, pkt.payload.size));
            entry.0 += pkt.payload_bytes() as u64;
            if entry.0 >= entry.1 {
                ctx.flow_completed(pkt.flow);
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, BlastHdr>) {}
    }

    fn blast() -> Box<dyn Transport<BlastHdr>> {
        Box::new(Blast { rx: std::collections::HashMap::new() })
    }

    #[test]
    fn single_packet_end_to_end_latency_is_exact() {
        // 2 hosts on one switch, 10Gbps, 20us per-link delay.
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1000, SimTime::ZERO, 1000);
        let report = run_done(&mut topo.sim, 100_000, 10);
        assert_eq!(report.flows_completed, 1);
        // 1000B payload + 40B header = 1040B wire = 832ns at 10G, twice
        // (host link + switch link), plus 2 × 20us propagation.
        let expect = 2 * 832 + 2 * 20_000;
        assert_eq!(topo.sim.completion(f).unwrap().as_nanos(), expect);
    }

    #[test]
    fn multi_segment_flow_completes_with_pipelining() {
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(10 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        let size = 100 * MSS_BYTES as u64;
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        run_done(&mut topo.sim, 250_000, 800);
        let fct = topo.sim.completion(f).unwrap();
        // Store-and-forward pipeline: ~100 packets × 1.2us serialization on
        // the bottleneck + one extra serialization + 2us propagation.
        let wire = 100 * Rate::gbps(10).serialization_time(MTU_BYTES as u64).as_nanos();
        assert!(fct.as_nanos() >= wire);
        assert!(fct.as_nanos() < wire + 10_000, "fct={fct}");
    }

    #[test]
    fn two_senders_share_bottleneck_fairly_in_time() {
        // Both flows arrive at t=0 towards the same receiver; total service
        // time is the sum of both transfers on the shared downlink.
        let mut topo = topology::star::<BlastHdr>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(64 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        let size = 50 * MSS_BYTES as u64;
        let f1 = topo.sim.add_flow(topo.hosts[0], topo.hosts[2], size, SimTime::ZERO, size);
        let f2 = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], size, SimTime::ZERO, size);
        let report = run_done(&mut topo.sim, 250_000, 800);
        assert_eq!(report.flows_completed, 2);
        let last = topo.sim.completion(f1).unwrap().max(topo.sim.completion(f2).unwrap());
        let wire = 100 * Rate::gbps(10).serialization_time(MTU_BYTES as u64).as_nanos();
        assert!(last.as_nanos() >= wire, "bottleneck must serialize all 100 packets");
    }

    #[test]
    fn leaf_spine_routes_cross_rack_traffic() {
        let params = LeafSpineParams {
            n_leaves: 3,
            n_spines: 2,
            hosts_per_leaf: 2,
            edge_rate: Rate::gbps(10),
            core_rate: Rate::gbps(40),
            link_delay: SimDuration::from_micros(1),
        };
        let mut topo = leaf_spine::<BlastHdr>(&params, SwitchConfig::basic(1 << 20));
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        // Cross-rack flow: host 0 (leaf 0) -> host 5 (leaf 2).
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[5], 5000, SimTime::ZERO, 5000);
        // Same-rack flow: host 2 -> host 3 (both leaf 1).
        let g = topo.sim.add_flow(topo.hosts[2], topo.hosts[3], 5000, SimTime::ZERO, 5000);
        let report = run_done(&mut topo.sim, 20_000, 80);
        assert_eq!(report.flows_completed, 2);
        // Cross-rack traverses 4 links (2 more hops) so takes longer.
        assert!(topo.sim.completion(f).unwrap() > topo.sim.completion(g).unwrap());
    }

    #[test]
    fn priority_queue_lets_high_priority_overtake() {
        // Fill the switch egress with low-priority packets from h0, then
        // inject one high-priority flow from h1; it must complete before
        // the low-priority backlog drains even though it started later.
        struct Prio {
            rx: std::collections::HashMap<FlowId, (u64, u64)>,
        }
        impl Transport<BlastHdr> for Prio {
            fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, BlastHdr>) {
                let prio = if flow.size_bytes > 10_000 { 7 } else { 0 };
                for (_, len) in segment(flow.size_bytes) {
                    ctx.send(
                        Packet::data(
                            flow.id,
                            flow.src,
                            flow.dst,
                            len,
                            BlastHdr { is_data: true, size: flow.size_bytes },
                        )
                        .with_priority(prio),
                    );
                }
            }
            fn on_packet(&mut self, pkt: Packet<BlastHdr>, ctx: &mut Ctx<'_, BlastHdr>) {
                let entry = self.rx.entry(pkt.flow).or_insert((0, pkt.payload.size));
                entry.0 += pkt.payload_bytes() as u64;
                if entry.0 >= entry.1 {
                    ctx.flow_completed(pkt.flow);
                }
            }
            fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, BlastHdr>) {}
        }
        let mut topo = topology::star::<BlastHdr>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(64 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, Box::new(Prio { rx: std::collections::HashMap::new() }));
        }
        let big = topo.sim.add_flow(
            topo.hosts[0],
            topo.hosts[2],
            50 * MSS_BYTES as u64,
            SimTime::ZERO,
            1,
        );
        // The small flow starts later, once the big flow's backlog is
        // already queued at the switch.
        let small = topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 1000, SimTime(10_000), 1);
        run_done(&mut topo.sim, 130_000, 400);
        assert!(
            topo.sim.completion(small).unwrap() < topo.sim.completion(big).unwrap(),
            "high-priority flow must bypass the low-priority backlog"
        );
    }

    /// A switch hands the payload a hop record at every egress of a packet
    /// sent `with_hop_telemetry`, and never touches any other packet's.
    #[test]
    fn only_hop_telemetry_packets_are_stamped_at_each_switch() {
        #[derive(Clone, Debug)]
        struct Hops(u32);
        impl Payload for Hops {
            fn on_switch_hop(&mut self, _hop: HopTelemetry) {
                self.0 += 1;
            }
        }
        /// Sends one stamped and one plain packet across leaf, spine and
        /// leaf; completes the flow once both arrived as they should.
        struct Probe(u32);
        impl Transport<Hops> for Probe {
            fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hops>) {
                let pkt = || Packet::data(flow.id, flow.src, flow.dst, 100, Hops(0));
                ctx.send(pkt().with_hop_telemetry());
                ctx.send(pkt());
            }
            fn on_packet(&mut self, pkt: Packet<Hops>, ctx: &mut Ctx<'_, Hops>) {
                let stamped = if pkt.hop_telemetry { 3 } else { 0 };
                assert_eq!(pkt.payload.0, stamped, "hop_telemetry: {}", pkt.hop_telemetry);
                self.0 += 1 << pkt.hop_telemetry as u32;
                if self.0 == 3 {
                    ctx.flow_completed(pkt.flow);
                }
            }
            fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Hops>) {}
        }
        let params = LeafSpineParams {
            n_leaves: 2,
            n_spines: 2,
            hosts_per_leaf: 1,
            edge_rate: Rate::gbps(10),
            core_rate: Rate::gbps(40),
            link_delay: SimDuration::from_micros(1),
        };
        let mut topo = leaf_spine::<Hops>(&params, SwitchConfig::basic(1 << 20));
        for &h in &topo.hosts {
            topo.sim.set_transport(h, Box::new(Probe(0)));
        }
        topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 200, SimTime::ZERO, 200);
        assert_eq!(run_done(&mut topo.sim, 10_000, 25).flows_completed, 1, "both arrived");
    }

    #[test]
    fn ecmp_spreads_flows_across_spines() {
        let params = LeafSpineParams {
            n_leaves: 2,
            n_spines: 4,
            hosts_per_leaf: 1,
            edge_rate: Rate::gbps(10),
            core_rate: Rate::gbps(10),
            link_delay: SimDuration::from_micros(1),
        };
        let mut topo = leaf_spine::<BlastHdr>(&params, SwitchConfig::basic(1 << 20));
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        for i in 0..64 {
            topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1000, SimTime(i * 1_000_000), 1000);
        }
        run_done(&mut topo.sim, 130_000_000, 640);
        // Each leaf->spine link must have carried some traffic.
        let leaf0 = topo.leaves[0];
        let mut used = 0;
        for &spine in &topo.spines {
            let port = topo.sim.switch_port_towards(leaf0, NodeId::Switch(spine)).unwrap();
            let link = topo.sim.switch_port_link(leaf0, port);
            if topo.sim.link(link).tx_packets > 0 {
                used += 1;
            }
        }
        assert_eq!(used, 4, "ECMP should use all spines for 64 flows");
    }

    #[test]
    fn telemetry_records_link_utilization() {
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        let size = 1000 * MSS_BYTES as u64;
        topo.sim.add_flow(topo.hosts[0], topo.hosts[1], size, SimTime::ZERO, size);
        let uplink = topo.sim.host_uplink(topo.hosts[0]);
        topo.sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_micros(100)));
        run_done(&mut topo.sim, 2_600_000, 8000);
        let util = topo.sim.telemetry().unwrap().link_util(uplink);
        // 1000 MTU packets at 10G serialize for ~1.2 ms: a dozen windows.
        assert!(util.len() >= 10);
        // The blast keeps the NIC saturated until the last window, and
        // the windows together account for every byte the link carried
        // (to within the packet straddling each window boundary).
        let points: Vec<f64> = util.points().map(|p| p.value).collect();
        assert!(points[..points.len() - 1].iter().all(|&u| u > 0.98), "{points:?}");
        let window_bytes = Rate::gbps(10).bytes_in(SimDuration::from_micros(100)) as f64;
        let carried = points.iter().sum::<f64>() * window_bytes;
        let slack = (points.len() * MTU_BYTES as usize) as f64;
        assert!((carried - topo.sim.link(uplink).tx_bytes as f64).abs() <= slack, "{points:?}");
    }

    #[test]
    fn run_limits_stop_the_clock() {
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 100 * MSS_BYTES as u64, SimTime::ZERO, 1);
        let report = topo.sim.run(RunLimits { max_time: SimTime(10_000), max_events: u64::MAX });
        assert_eq!(report.flows_completed, 0);
        assert_eq!(report.end_time, SimTime(10_000));
        // Resuming finishes the flow.
        let report = run_done(&mut topo.sim, 250_000, 800);
        assert_eq!(report.flows_completed, 1);
    }

    #[test]
    fn downed_link_destroys_packets_until_restored() {
        // Outage covers the whole (instantaneous) burst: nothing arrives,
        // every packet is charged to the fault layer.
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        // Starts strictly inside the outage window (a flow starting at the
        // same instant as LinkDown would serialize its first packet first).
        topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 10 * MSS_BYTES as u64, SimTime(1_000), 1);
        // A second flow starts after the link is back and must complete.
        let late = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1000, SimTime(30_000_000), 1000);
        topo.sim.set_fault_schedule(FaultSchedule::new(1).host_outage(
            topo.hosts[0],
            SimTime::ZERO,
            SimTime(20_000_000),
        ));
        let report = run_done(&mut topo.sim, 60_000_000, 30);
        assert_eq!(report.faults.fault_drops, 10, "all 10 MSS packets die on the downed link");
        assert_eq!(report.flows_completed, 1);
        assert!(topo.sim.completion(late).is_some());
        assert_eq!(report.faults.max_stall, SimDuration::from_millis(20));
    }

    #[test]
    fn switch_stall_freezes_forwarding_and_resumes() {
        // One packet in flight; the switch stalls before the packet reaches
        // it and resumes later, delaying delivery by exactly the remaining
        // stall time.
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(20),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        let f = topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1000, SimTime::ZERO, 1000);
        let stall = SimDuration::from_millis(1);
        topo.sim.set_fault_schedule(FaultSchedule::new(1).stall_switch(
            topo.leaves[0],
            SimTime::ZERO,
            stall,
        ));
        let report = run_done(&mut topo.sim, 2_000_000, 10);
        assert_eq!(report.flows_completed, 1);
        // No-fault latency is 2×832ns serialization + 2×20us propagation
        // (see single_packet_end_to_end_latency_is_exact); the switch holds
        // its copy until the stall ends at 1ms, then serializes + delivers.
        let expect = stall.as_nanos() + 832 + 20_000;
        assert_eq!(topo.sim.completion(f).unwrap().as_nanos(), expect);
        assert_eq!(report.faults.max_stall, stall);
    }

    #[test]
    fn total_data_loss_starves_the_receiver() {
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 10 * MSS_BYTES as u64, SimTime::ZERO, 1);
        topo.sim.set_fault_schedule(FaultSchedule::new(3).with_data_loss(1.0));
        let report = run_done(&mut topo.sim, 25_000, 20);
        assert_eq!(report.flows_completed, 0);
        assert_eq!(report.faults.fault_drops, 10, "every packet dies at the host NIC");
    }

    #[test]
    fn random_loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut topo = topology::star::<BlastHdr>(
                3,
                Rate::gbps(10),
                SimDuration::from_micros(1),
                SwitchConfig::basic(1 << 20),
            );
            for &h in &topo.hosts {
                topo.sim.set_transport(h, blast());
            }
            for i in 0..2 {
                topo.sim.add_flow(
                    topo.hosts[i],
                    topo.hosts[2],
                    200 * MSS_BYTES as u64,
                    SimTime::ZERO,
                    1,
                );
            }
            topo.sim.set_fault_schedule(FaultSchedule::new(seed).with_data_loss(0.05));
            let report = run_done(&mut topo.sim, 1_000_000, 3000);
            (report.faults.fault_drops, report.events, topo.sim.link(LinkId(0)).tx_packets)
        };
        let a = run(7);
        assert!(a.0 > 0, "5% loss over 400+ packets should drop something");
        assert_eq!(a, run(7), "same fault seed must reproduce exactly");
        assert_ne!(run(7).0, run(8).0, "different fault seeds should differ");
    }

    #[test]
    fn ack_loss_respects_the_priority_floor() {
        // A transport that sends one control packet at P0 and one at P4;
        // with ack_loss=1.0 floored at P4, only the P4 control dies.
        struct CtrlPair;
        impl Transport<BlastHdr> for CtrlPair {
            fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, BlastHdr>) {
                let hdr = BlastHdr { is_data: false, size: 0 };
                ctx.send(Packet::ctrl(flow.id, flow.src, flow.dst, hdr.clone()).with_priority(0));
                ctx.send(Packet::ctrl(flow.id, flow.src, flow.dst, hdr).with_priority(4));
            }
            fn on_packet(&mut self, pkt: Packet<BlastHdr>, ctx: &mut Ctx<'_, BlastHdr>) {
                assert_eq!(pkt.priority, 0, "the P4 control packet must have been dropped");
                ctx.flow_completed(pkt.flow);
            }
            fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, BlastHdr>) {}
        }
        let mut topo = topology::star::<BlastHdr>(
            2,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(1 << 20),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, Box::new(CtrlPair));
        }
        topo.sim.add_flow(topo.hosts[0], topo.hosts[1], 1000, SimTime::ZERO, 1000);
        topo.sim.set_fault_schedule(FaultSchedule::new(5).with_ack_loss(1.0).lp_acks_only());
        let report = run_done(&mut topo.sim, 5000, 10);
        assert_eq!(report.flows_completed, 1, "the P0 control packet must survive");
        // The P4 control is dropped independently at the NIC and would be
        // dropped again at the switch; it dies at the first hop.
        assert_eq!(report.faults.fault_drops, 1);
    }

    #[test]
    fn drops_are_counted_at_the_switch() {
        // Tiny 5KB port buffer and two simultaneous 100-packet bursts into
        // one receiver: the 2:1 bottleneck must shed packets.
        let mut topo = topology::star::<BlastHdr>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(5_000),
        );
        for &h in &topo.hosts {
            topo.sim.set_transport(h, blast());
        }
        topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 100 * MSS_BYTES as u64, SimTime::ZERO, 1);
        topo.sim.add_flow(topo.hosts[1], topo.hosts[2], 100 * MSS_BYTES as u64, SimTime::ZERO, 1);
        run_done(&mut topo.sim, 250_000, 1200);
        let c = topo.sim.total_counters();
        assert!(c.dropped > 50, "expected heavy drops, got {c:?}");
    }

    #[test]
    fn the_switch_total_sums_every_port_counter() {
        let mut topo = topology::star::<BlastHdr>(
            3,
            Rate::gbps(10),
            SimDuration::from_micros(1),
            SwitchConfig::basic(5_000),
        );
        // Named field by field: a seventh counter does not compile here
        // until someone decides what its total is.
        let each = PortCounters {
            enqueued: 1,
            dropped: 20,
            trimmed: 300,
            marked: 4_000,
            evicted: 50_000,
            dropped_bytes: 600_000,
        };
        let ports = topo.sim.switches[0].ports.len() as u64;
        for port in &mut topo.sim.switches[0].ports {
            port.counters = each;
        }
        let PortCounters { enqueued, dropped, trimmed, marked, evicted, dropped_bytes } =
            topo.sim.total_counters();
        assert_eq!(
            [enqueued, dropped, trimmed, marked, evicted, dropped_bytes],
            [1, 20, 300, 4_000, 50_000, 600_000].map(|one| one * ports),
            "over {ports} ports"
        );
    }
}
