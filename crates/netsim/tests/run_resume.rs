//! `Simulator::run` called more than once: what is registered is scheduled
//! exactly once, whenever it was registered. The engine used to take
//! "no event dispatched yet" for "first call", so a run that stopped at
//! `max_time` before its first event scheduled every flow start and fault
//! op a second time, and a flow added after an event had dispatched was
//! never started. Every test runs on both event-queue kinds.

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::trace::MemorySink;
use netsim::{
    FaultSchedule, HostId, NodeId, Packet, Payload, QueueKind, Rate, RunLimits, SimDuration,
    SimTime, Simulator, StopReason, TraceEvent, MSS_BYTES,
};

#[derive(Clone, Debug)]
struct Hdr;
impl Payload for Hdr {}

/// Sends a flow's one packet when it starts; completes a flow on arrival.
struct OneShot;

impl Transport<Hdr> for OneShot {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hdr>) {
        ctx.send(Packet::data(flow.id, flow.src, flow.dst, MSS_BYTES, Hdr));
    }
    fn on_packet(&mut self, pkt: Packet<Hdr>, ctx: &mut Ctx<'_, Hdr>) {
        ctx.flow_completed(pkt.flow);
    }
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, Hdr>) {}
}

/// A traced two-host line.
fn line(queue: QueueKind) -> (Simulator<Hdr>, HostId, HostId) {
    let mut sim = Simulator::<Hdr>::new();
    sim.set_queue_kind(queue);
    let (a, b) = (sim.add_host(), sim.add_host());
    sim.connect(NodeId::Host(a), NodeId::Host(b), Rate::gbps(10), SimDuration::from_micros(1));
    sim.set_transport(a, Box::new(OneShot));
    sim.set_transport(b, Box::new(OneShot));
    sim.set_trace_sink(Box::new(MemorySink::new()));
    (sim, a, b)
}

fn until(us: u64) -> RunLimits {
    RunLimits { max_time: SimTime(us * 1_000), ..RunLimits::default() }
}

/// How many `flow_start` and `link_down` events the run traced.
fn starts_and_outages(sim: &mut Simulator<Hdr>) -> (usize, usize) {
    let sink = sim.take_trace_sink().expect("line() installs a sink");
    let events = sink.as_any().downcast_ref::<MemorySink>().expect("a MemorySink").events();
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|(_, ev)| pred(ev)).count();
    (
        count(|ev| matches!(ev, TraceEvent::FlowStart { .. })),
        count(|ev| matches!(ev, TraceEvent::LinkDown { .. })),
    )
}

#[test]
fn a_run_that_stops_before_its_first_event_schedules_nothing_twice() {
    for queue in [QueueKind::Heap, QueueKind::Calendar] {
        let (mut sim, a, b) = line(queue);
        let uplink = sim.host_uplink(b);
        sim.add_flow(a, b, MSS_BYTES as u64, SimTime(50_000), MSS_BYTES as u64);
        sim.set_fault_schedule(FaultSchedule::new(1).link_outage(
            uplink,
            SimTime(60_000),
            SimTime(70_000),
        ));
        let first = sim.run(until(10));
        assert_eq!((first.stop, first.events), (StopReason::MaxTime, 0));
        let second = sim.run(RunLimits::default());
        assert_eq!((second.stop, second.flows_completed), (StopReason::AllFlowsDone, 1));
        // FlowStart, Deliver, LinkDown, LinkUp.
        assert_eq!(second.events, 4, "{queue:?}");
        assert_eq!(starts_and_outages(&mut sim), (1, 1), "{queue:?}");
    }
}

#[test]
fn a_flow_added_between_two_runs_starts() {
    for queue in [QueueKind::Heap, QueueKind::Calendar] {
        let (mut sim, a, b) = line(queue);
        sim.add_flow(a, b, MSS_BYTES as u64, SimTime::ZERO, MSS_BYTES as u64);
        sim.add_flow(a, b, MSS_BYTES as u64, SimTime(150_000), MSS_BYTES as u64);
        let first = sim.run(until(100));
        assert_eq!((first.stop, first.flows_completed), (StopReason::MaxTime, 1));
        assert!(first.events > 0);
        // One start time ahead of the clock, one already behind it: that
        // one starts now, at the 100 us the first run stopped at.
        let ahead = sim.add_flow(b, a, MSS_BYTES as u64, SimTime(200_000), MSS_BYTES as u64);
        let behind = sim.add_flow(a, b, MSS_BYTES as u64, SimTime(5_000), MSS_BYTES as u64);
        let second = sim.run(RunLimits::default());
        assert_eq!((second.flows_completed, second.flows_total), (4, 4), "{queue:?}");
        let (ahead, behind) = (sim.completion(ahead), sim.completion(behind));
        assert!(Some(until(100).max_time) < behind && behind < ahead, "{behind:?} {ahead:?}");
        assert_eq!(starts_and_outages(&mut sim).0, 4, "{queue:?}");
    }
}
