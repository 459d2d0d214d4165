//! `TxDone` on demand (DESIGN.md §10.1): the event is pushed only when it
//! has a successor to start, under the `(time, seq)` key reserved for it at
//! transmit time — so how many dispatch changes, and nothing else does.
//! Every run is sanitized per event, so simsan checks each pop against
//! the keys pushed, reserved `TxDone` keys included.

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::trace::ProfKind;
use netsim::{
    FlowId, HostId, NodeId, Packet, Payload, Rate, RunLimits, SanLevel, SimDuration, SimTime,
    Simulator, StopReason, TelemetryConfig, MSS_BYTES,
};

#[derive(Clone, Debug)]
struct Hdr;
impl Payload for Hdr {}

/// One scripted single-packet send from host 0: flow `i` of the run.
#[derive(Clone, Copy)]
struct Send {
    at: SimTime,
    prio: u8,
    /// Arm this send's timer from a second timer at `t = 0` instead of
    /// from the flow-start handler — that is, *after* flow 0's packet was
    /// handed to the NIC, so the timer's `seq` is above that `TxDone`'s.
    armed_late: bool,
}

/// Token of the chain timer that arms the `armed_late` sends.
const CHAIN: u64 = u64::MAX;

/// Host 0 sends flow `i`'s one MSS packet when timer `i` fires (flow 0's
/// straight from its flow-start handler); host 1 completes a flow on
/// arrival.
struct Scripted(Vec<Send>);

impl Scripted {
    fn send(&self, i: usize, ctx: &mut Ctx<'_, Hdr>) {
        let (src, dst) = (HostId(0), HostId(1));
        let pkt = Packet::data(FlowId(i as u64), src, dst, MSS_BYTES, Hdr);
        ctx.send(pkt.with_priority(self.0[i].prio));
    }

    fn arm(&self, late: bool, ctx: &mut Ctx<'_, Hdr>) {
        for (i, s) in self.0.iter().enumerate().skip(1) {
            if s.armed_late == late {
                ctx.timer_at(s.at, i as u64);
            }
        }
    }
}

impl Transport<Hdr> for Scripted {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hdr>) {
        if flow.id.0 == 0 {
            self.arm(false, ctx);
            ctx.timer_at(ctx.now(), CHAIN);
            self.send(0, ctx);
        }
    }
    fn on_packet(&mut self, pkt: Packet<Hdr>, ctx: &mut Ctx<'_, Hdr>) {
        ctx.flow_completed(pkt.flow);
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Hdr>) {
        match token {
            CHAIN => self.arm(true, ctx),
            i => self.send(i as usize, ctx),
        }
    }
}

/// One MSS packet on the wire at 10 Gbps, and the line's propagation delay.
const SER: u64 = 1_200;
const DELAY: u64 = 1_000;

/// Run `script` over a two-host line; the completion time of each flow in
/// nanoseconds and the number of `TxDone` events dispatched.
fn run_line(script: &[Send]) -> (Vec<u64>, u64) {
    let mut sim = Simulator::<Hdr>::new();
    sim.set_sanitizer(SanLevel::PerEvent);
    let (a, b) = (sim.add_host(), sim.add_host());
    sim.connect(NodeId::Host(a), NodeId::Host(b), Rate::gbps(10), SimDuration::from_nanos(DELAY));
    sim.set_transport(a, Box::new(Scripted(script.to_vec())));
    sim.set_transport(b, Box::new(Scripted(Vec::new())));
    for _ in script {
        sim.add_flow(a, b, MSS_BYTES as u64, SimTime::ZERO, MSS_BYTES as u64);
    }
    sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_micros(100)).with_prof());
    let report = sim.run(RunLimits { max_time: SimTime(200_000), max_events: 80 });
    assert_eq!((report.stop, report.flows_completed), (StopReason::AllFlowsDone, script.len()));
    assert!(sim.san_violations().is_empty(), "{:?}", sim.san_violations());
    let done =
        (0..script.len()).map(|i| sim.completion(FlowId(i as u64)).expect("done").0).collect();
    let prof = sim.telemetry().and_then(|t| t.prof_breakdown()).expect("profiler on");
    let tx_done = prof.iter().find(|r| r.0 == ProfKind::TxDone).expect("row").1;
    (done, tx_done)
}

#[test]
fn paced_packets_dispatch_no_tx_done() {
    // Ten packets 5 µs apart: each finds the NIC idle again.
    let script: Vec<Send> =
        (0..10).map(|i| Send { at: SimTime(5_000 * i), prio: 0, armed_late: false }).collect();
    let (done, tx_done) = run_line(&script);
    let want: Vec<u64> = (0..10).map(|i| 5_000 * i + SER + DELAY).collect();
    assert_eq!(done, want);
    assert_eq!(tx_done, 0, "an idle port needs no TxDone");
}

#[test]
fn back_to_back_burst_dispatches_one_tx_done_per_successor() {
    // Ten packets at t = 0: nine of them wait for a predecessor.
    let script = [Send { at: SimTime::ZERO, prio: 0, armed_late: false }; 10];
    let (done, tx_done) = run_line(&script);
    let want: Vec<u64> = (1..=10).map(|k| k * SER + DELAY).collect();
    assert_eq!(done, want);
    assert_eq!(tx_done, 9);
}

/// Flow 0's packet leaves the NIC at exactly `SER`; flow 1 (low priority)
/// and flow 2 (high priority) are handed to the NIC at that same
/// nanosecond, in that order. Which of them goes first depends only on
/// where the `TxDone`'s sequence number falls among the two timers' — the
/// tie-break the on-demand push has to reproduce.
#[test]
fn arrivals_at_exactly_tx_end_start_in_eager_order() {
    let at = SimTime(SER);
    let (first, second) = (SER + SER + DELAY, SER + 2 * SER + DELAY);
    // (low-priority send armed late, high-priority send armed late) →
    // completion times of (low, high).
    let cases = [
        // Both timers sort before the TxDone: both packets are queued when
        // it runs, and it picks the high-priority one.
        ((false, false), (second, first)),
        // TxDone between them: pushed by the first enqueue, it must run
        // before the second timer of the same tick, and starts the low one.
        ((false, true), (first, second)),
        // TxDone before both: the port has settled idle, so the first
        // arrival starts at once.
        ((true, true), (first, second)),
    ];
    for ((low_late, high_late), (low_done, high_done)) in cases {
        let script = [
            Send { at: SimTime::ZERO, prio: 0, armed_late: false },
            Send { at, prio: 7, armed_late: low_late },
            Send { at, prio: 0, armed_late: high_late },
        ];
        let (done, _) = run_line(&script);
        assert_eq!(
            done,
            vec![SER + DELAY, low_done, high_done],
            "low armed late: {low_late}, high armed late: {high_late}"
        );
    }
}
