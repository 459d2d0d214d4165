//! `Simulator::run` called more than once: what is registered is scheduled
//! exactly once, whenever it was registered. The engine used to take
//! "no event dispatched yet" for "first call", so a run that stopped at
//! `max_time` before its first event scheduled every flow start and fault
//! op a second time, and a flow added after an event had dispatched was
//! never started. Every run is sanitized per event; the last test installs
//! simsan between two runs.

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::trace::MemorySink;
use netsim::{
    FaultSchedule, HostId, NodeId, Packet, Payload, Rate, RunLimits, SanLevel, SimDuration,
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

/// A traced two-host line, unsanitized.
fn line() -> (Simulator<Hdr>, HostId, HostId) {
    let mut sim = Simulator::<Hdr>::new();
    let (a, b) = (sim.add_host(), sim.add_host());
    sim.connect(NodeId::Host(a), NodeId::Host(b), Rate::gbps(10), SimDuration::from_micros(1));
    sim.set_transport(a, Box::new(OneShot));
    sim.set_transport(b, Box::new(OneShot));
    sim.set_trace_sink(Box::new(MemorySink::new()));
    (sim, a, b)
}

/// A traced, per-event sanitized two-host line.
fn sanitized_line() -> (Simulator<Hdr>, HostId, HostId) {
    let (mut sim, a, b) = line();
    sim.set_sanitizer(SanLevel::PerEvent);
    (sim, a, b)
}

fn assert_clean(sim: &Simulator<Hdr>) {
    assert!(sim.san_violations().is_empty(), "{:?}", sim.san_violations());
}

fn until(us: u64) -> RunLimits {
    RunLimits { max_time: SimTime(us * 1_000), max_events: 20 }
}

/// How many `flow_start` and `link_down` events the run traced.
fn starts_and_outages(sim: &mut Simulator<Hdr>) -> (usize, usize) {
    let sink: Box<dyn std::any::Any> = sim.take_trace_sink().expect("line() installs a sink");
    let events = sink.downcast::<MemorySink>().expect("a MemorySink").events;
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|(_, ev)| pred(ev)).count();
    (
        count(|ev| matches!(ev, TraceEvent::FlowStart { .. })),
        count(|ev| matches!(ev, TraceEvent::LinkDown { .. })),
    )
}

#[test]
fn a_run_that_stops_before_its_first_event_schedules_nothing_twice() {
    let (mut sim, a, b) = sanitized_line();
    sim.add_flow(a, b, MSS_BYTES as u64, SimTime(50_000), MSS_BYTES as u64);
    sim.set_fault_schedule(FaultSchedule::new(1).host_outage(b, SimTime(60_000), SimTime(70_000)));
    let first = sim.run(until(10));
    assert_eq!((first.stop, first.events), (StopReason::MaxTime, 0));
    let second = sim.run(RunLimits { max_time: SimTime(150_000), max_events: 10 });
    assert_eq!((second.stop, second.flows_completed), (StopReason::AllFlowsDone, 1));
    // FlowStart, Deliver, LinkDown, LinkUp.
    assert_eq!(second.events, 4);
    assert_eq!(starts_and_outages(&mut sim), (1, 1));
    assert_clean(&sim);
}

#[test]
fn a_flow_added_between_two_runs_starts() {
    let (mut sim, a, b) = sanitized_line();
    sim.add_flow(a, b, MSS_BYTES as u64, SimTime::ZERO, MSS_BYTES as u64);
    sim.add_flow(a, b, MSS_BYTES as u64, SimTime(150_000), MSS_BYTES as u64);
    let first = sim.run(until(100));
    assert_eq!((first.stop, first.flows_completed), (StopReason::MaxTime, 1));
    assert!(first.events > 0);
    // One start time ahead of the clock, one already behind it: that
    // one starts now, at the 100 us the first run stopped at.
    let ahead = sim.add_flow(b, a, MSS_BYTES as u64, SimTime(200_000), MSS_BYTES as u64);
    let behind = sim.add_flow(a, b, MSS_BYTES as u64, SimTime(5_000), MSS_BYTES as u64);
    let second = sim.run(RunLimits { max_time: SimTime(400_000), max_events: 20 });
    assert_eq!(
        (second.stop, second.flows_completed, second.flows_total),
        (StopReason::AllFlowsDone, 4, 4)
    );
    let (ahead, behind) = (sim.completion(ahead), sim.completion(behind));
    assert!(Some(until(100).max_time) < behind && behind < ahead, "{behind:?} {ahead:?}");
    assert_eq!(starts_and_outages(&mut sim).0, 4);
    assert_clean(&sim);
}

/// simsan installed between two runs seeds its shadow of the event queue
/// from what the first run left queued — a packet on the wire, flow starts
/// (two at one instant), the fault ops — so the resumed run's pops are not
/// taken for entries nobody pushed, and its audits count them.
#[test]
fn a_sanitizer_installed_mid_run_knows_the_queued_events() {
    let (mut sim, a, b) = line();
    for start in [0, 150_000, 150_000, 170_000] {
        sim.add_flow(a, b, MSS_BYTES as u64, SimTime(start), MSS_BYTES as u64);
    }
    sim.set_fault_schedule(FaultSchedule::new(1).host_outage(
        b,
        SimTime(160_000),
        SimTime(165_000),
    ));
    // The first packet is still on the wire at 1 us.
    let first = sim.run(until(1));
    assert_eq!((first.stop, first.events, first.flows_completed), (StopReason::MaxTime, 1, 0));
    sim.set_sanitizer(SanLevel::PerEvent);
    let second = sim.run(RunLimits { max_time: SimTime(350_000), max_events: 25 });
    assert_eq!((second.stop, second.flows_completed), (StopReason::AllFlowsDone, 4));
    assert_clean(&sim);
}
