//! An idle port stores nothing (DESIGN.md §10.1, "Packet lifetime"): the
//! boundary between the pass-through and the stored path, and the five
//! ways a packet gives its pool slot back. Every run here is audited after every event, so "no
//! violation" also means the pass-through made the push / pop observations
//! the stored path makes and the pool conservation law held throughout —
//! at a drained end, with no slot left occupied.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::host::{Ctx, FlowDesc, Transport};
use netsim::trace::MemorySink;
use netsim::{
    FaultSchedule, HostId, NodeId, Packet, Payload, PfcConfig, Rate, RunLimits, SanLevel,
    SimDuration, SimTime, Simulator, StopReason, SwitchConfig, SwitchId, TraceEvent, MSS_BYTES,
};

#[derive(Clone, Debug)]
struct Hdr;
impl Payload for Hdr {}

/// What a flow's source sends, all at once, when the flow starts.
#[derive(Clone, Copy)]
struct Burst {
    prio: u8,
    trimmable: bool,
    count: u32,
    payload: u32,
}

const ONE: Burst = Burst { prio: 0, trimmable: false, count: 1, payload: MSS_BYTES };

/// A packet as its destination saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Arrival {
    at: u64,
    flow: u64,
    wire_bytes: u32,
    trimmed: bool,
}

struct Scripted {
    /// Indexed by flow id.
    bursts: Vec<Burst>,
    arrivals: Rc<RefCell<Vec<Arrival>>>,
}

impl Transport<Hdr> for Scripted {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Hdr>) {
        let b = self.bursts[flow.id.0 as usize];
        for _ in 0..b.count {
            let pkt = Packet::data(flow.id, flow.src, flow.dst, b.payload, Hdr);
            ctx.send(pkt.with_priority(b.prio).with_trimmable(b.trimmable));
        }
    }
    fn on_packet(&mut self, pkt: Packet<Hdr>, ctx: &mut Ctx<'_, Hdr>) {
        self.arrivals.borrow_mut().push(Arrival {
            at: ctx.now().0,
            flow: pkt.flow.0,
            wire_bytes: pkt.wire_bytes,
            trimmed: pkt.trimmed,
        });
    }
    fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Hdr>) {}
}

/// One MSS packet on a 10 Gbps wire, and every link's propagation delay:
/// a packet sent at `t` reaches the switch at `t + HOP`.
const SER: u64 = 1_200;
const DELAY: u64 = 1_000;
const HOP: u64 = SER + DELAY;

/// One scripted flow: `(source host, destination host, start, burst)`.
type Flow = (usize, usize, u64, Burst);

struct Run {
    events: Vec<(u64, TraceEvent)>,
    arrivals: Vec<Arrival>,
    /// `TxDone` events dispatched, over every port: what is left of the
    /// event count after flow starts and deliveries (each delivery shows
    /// as a host arrival or one switch `Enqueue` / `Trim` / `Drop`).
    /// Meaningless when fault ops or PFC frames dispatch too.
    tx_done: u64,
    sim: Simulator<Hdr>,
}

impl Run {
    /// `(time, qlen)` of every `Enqueue` of `flow` at the switch.
    fn enqueues(&self, flow: u64) -> Vec<(u64, u64)> {
        let hit = |(at, ev): &(u64, TraceEvent)| match *ev {
            TraceEvent::Enqueue { flow: f, qlen, .. } if f == flow => Some((*at, qlen)),
            _ => None,
        };
        self.events.iter().filter_map(hit).collect()
    }

    /// Time of every `Dequeue` of `flow` at the switch.
    fn dequeues(&self, flow: u64) -> Vec<u64> {
        let hit = |(at, ev): &(u64, TraceEvent)| match *ev {
            TraceEvent::Dequeue { flow: f, .. } if f == flow => Some(*at),
            _ => None,
        };
        self.events.iter().filter_map(hit).collect()
    }

    fn drops(&self, flow: u64) -> usize {
        let hit = |(_, ev): &&(u64, TraceEvent)| matches!(*ev, TraceEvent::Drop { flow: f, .. } if f == flow);
        self.events.iter().filter(hit).count()
    }
}

/// Four hosts around one switch; run `flows` to the end under a memory
/// sink and the per-event sanitizer. (No telemetry: the scripted receiver
/// completes no flow, and the sampler re-arms while one is outstanding.)
fn run(cfg: SwitchConfig, faults: Option<FaultSchedule>, flows: &[Flow]) -> Run {
    let mut sim = Simulator::<Hdr>::new();
    let sw = sim.add_switch(cfg);
    let hosts: Vec<HostId> = (0..4).map(|_| sim.add_host()).collect();
    for &h in &hosts {
        sim.connect(
            NodeId::Host(h),
            NodeId::Switch(sw),
            Rate::gbps(10),
            SimDuration::from_nanos(DELAY),
        );
    }
    sim.build_routes();
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    let bursts: Vec<Burst> = flows.iter().map(|f| f.3).collect();
    for &h in &hosts {
        let t = Scripted { bursts: bursts.clone(), arrivals: arrivals.clone() };
        sim.set_transport(h, Box::new(t));
    }
    for &(src, dst, start, b) in flows {
        let size = b.count as u64 * b.payload as u64;
        sim.add_flow(hosts[src], hosts[dst], size, SimTime(start), size);
    }
    if let Some(faults) = faults {
        sim.set_fault_schedule(faults);
    }
    sim.set_trace_sink(Box::new(MemorySink::new()));
    sim.set_sanitizer(SanLevel::PerEvent);
    let report = sim.run(RunLimits::default());
    assert_eq!(report.stop, StopReason::AllFlowsDone, "{:?}", sim.san_violations());
    assert!(sim.san_violations().is_empty(), "{:?}", sim.san_violations());
    let mut sink = sim.take_trace_sink().expect("sink installed");
    let events = sink.as_any_mut().downcast_mut::<MemorySink>().expect("memory sink").take_events();
    let arrivals = arrivals.borrow().clone();
    let admissions = events.iter().filter(|(_, ev)| {
        use TraceEvent::{Drop, Enqueue, Trim};
        matches!(ev, Enqueue { .. } | Trim { .. } | Drop { .. })
    });
    let deliveries = (admissions.count() + arrivals.len()) as u64;
    let tx_done = report.events - flows.len() as u64 - deliveries;
    Run { events, arrivals, tx_done, sim }
}

fn deep() -> SwitchConfig {
    SwitchConfig::basic(1 << 20)
}

#[test]
fn an_idle_empty_port_enqueues_and_dequeues_in_one_instant() {
    let r = run(deep(), None, &[(0, 1, 0, ONE)]);
    // The bank never held the packet, yet the stream says what it always
    // said: a backlog of the packet's own wire bytes, gone at once.
    assert_eq!(r.enqueues(0), vec![(HOP, 1500)]);
    assert_eq!(r.dequeues(0), vec![HOP]);
    assert_eq!(r.tx_done, 0, "neither the NIC nor the switch port had a successor to start");
    let want = Arrival { at: 2 * HOP, flow: 0, wire_bytes: 1500, trimmed: false };
    assert_eq!(r.arrivals, vec![want]);
    let pool = r.sim.pool_stats();
    assert_eq!((pool.fresh, pool.recycled, pool.live), (1, 0, 0), "one slot for the whole path");
}

#[test]
fn a_busy_port_stores() {
    // Two sources, one destination, the same instant: the second arrival
    // finds the port serializing the first.
    let r = run(deep(), None, &[(0, 1, 0, ONE), (2, 1, 0, ONE)]);
    assert_eq!(r.enqueues(0), vec![(HOP, 1500)]);
    assert_eq!(r.dequeues(0), vec![HOP]);
    assert_eq!(r.enqueues(1), vec![(HOP, 1500)], "the packet on the wire is not backlog");
    assert_eq!(r.dequeues(1), vec![HOP + SER], "stored until the first finishes serializing");
    assert_eq!(r.tx_done, 1, "the stored packet needs the port's TxDone to start it");
}

#[test]
fn an_arrival_in_the_tick_the_port_settles_idle_passes_through() {
    // Flow 0 occupies the switch port over [HOP, HOP + SER). Flow 1's
    // small packet (140 B: 112 ns on the wire) is sent after that
    // serialization began and arrives at exactly HOP + SER — behind the
    // port's never-pushed TxDone in (time, seq) order, so the port settles
    // idle under it.
    let small = Burst { payload: 100, ..ONE };
    let sent = HOP + SER - (112 + DELAY);
    assert!(sent > HOP, "flow 1 must hit the wire after flow 0 left the switch");
    let r = run(deep(), None, &[(0, 1, 0, ONE), (2, 1, sent, small)]);
    assert_eq!(r.enqueues(1), vec![(HOP + SER, 140)]);
    assert_eq!(r.dequeues(1), vec![HOP + SER]);
    assert_eq!(r.tx_done, 0, "the port was idle again: no TxDone was ever needed");
}

#[test]
fn a_stalled_switch_stores() {
    let stall = FaultSchedule::new(1).stall_switch(
        SwitchId(0),
        SimTime::ZERO,
        SimDuration::from_nanos(10_000),
    );
    let r = run(deep(), Some(stall), &[(0, 1, 0, ONE)]);
    assert_eq!(r.enqueues(0), vec![(HOP, 1500)], "a stalled switch still admits");
    assert_eq!(r.dequeues(0), vec![10_000], "and serves the backlog when the stall ends");
}

#[test]
fn a_pfc_switch_stores_and_its_thresholds_see_a_lone_packet() {
    // XOFF below one MTU: a single packet crosses it going in and XON
    // coming out. Only the stored path moves the backlog PFC reads.
    let pfc = PfcConfig { xoff_bytes: 1_000, xon_bytes: 500 };
    let r = run(deep().with_pfc(pfc), None, &[(0, 1, 0, ONE)]);
    let xoffs: Vec<(u64, bool, u64)> = r
        .events
        .iter()
        .filter_map(|(at, ev)| match *ev {
            TraceEvent::PfcXoff { on, qlen, .. } => Some((*at, on, qlen)),
            _ => None,
        })
        .collect();
    assert_eq!(xoffs, vec![(HOP, true, 1500), (HOP, false, 0)]);
    assert_eq!(r.dequeues(0), vec![HOP]);
}

/// Pause times of host 2's NIC at priority 0: `(paused at, resumed at)`.
fn pause_window(r: &Run) -> (u64, u64) {
    let at = |want: bool| {
        r.events.iter().find_map(|(at, ev)| match *ev {
            TraceEvent::PfcPause { host: 2, prio: 0, on } if on == want => Some(*at),
            _ => None,
        })
    };
    (at(true).expect("host 2 paused"), at(false).expect("host 2 resumed"))
}

#[test]
fn a_paused_priority_stores_while_the_others_pass() {
    // Hosts 0 and 2 overload the port towards host 1; host 2's bytes back
    // up past XOFF, so the switch pauses priority 0 at host 2 — the one
    // neighbour whose bytes fill it. What host 2 hands its NIC inside that
    // window, once its burst has left, waits at priority 0 and leaves at
    // once at priority 3.
    let pfc = PfcConfig { xoff_bytes: 2_000, xon_bytes: 1_000 };
    let cfg = deep().with_pfc(pfc);
    let burst = Burst { count: 4, ..ONE };
    let load = [(0, 1, 0, burst), (2, 1, 0, burst)];
    let (paused, resumed) = pause_window(&run(cfg.clone(), None, &load));
    let inside = (paused + resumed) / 2;
    assert!(paused < inside && inside < resumed, "window {paused}..{resumed}");
    assert!(inside > 4 * SER, "host 2's NIC is idle and empty by then");

    let mut flows = load.to_vec();
    flows.push((2, 3, inside, ONE));
    flows.push((2, 3, inside, Burst { prio: 3, ..ONE }));
    let r = run(cfg, None, &flows);
    assert_eq!(pause_window(&r), (paused, resumed), "the new traffic joins no paused account");
    // Flow 3 (P3) is not paused: it passes through the NIC when handed
    // over, although flow 2 (P0) was handed over first and is waiting.
    assert_eq!(r.enqueues(3)[0].0, inside + HOP);
    assert_eq!(r.enqueues(2)[0].0, resumed.max(inside + SER) + HOP);
}

#[test]
fn a_lone_packet_larger_than_the_buffer_is_dropped_and_its_slot_released() {
    let r = run(SwitchConfig::basic(1_000), None, &[(0, 1, 0, ONE)]);
    assert_eq!((r.drops(0), r.enqueues(0).len(), r.arrivals.len()), (1, 0, 0));
    let c = r.sim.total_counters();
    assert_eq!((c.dropped, c.dropped_bytes, c.enqueued), (1, MSS_BYTES as u64, 0));
    // `run` ended quiescent under the sanitizer: no slot is still occupied.
    assert_eq!(r.sim.pool_stats().live, 0);
}

#[test]
fn a_zero_trim_threshold_trims_on_an_empty_port_and_forwards_the_header() {
    let cfg = SwitchConfig::ndp(1 << 20, 0);
    let r = run(cfg, None, &[(0, 1, 0, Burst { trimmable: true, prio: 3, ..ONE })]);
    let trims: Vec<u64> = r
        .events
        .iter()
        .filter_map(|(at, ev)| matches!(ev, TraceEvent::Trim { flow: 0, .. }).then_some(*at))
        .collect();
    assert_eq!(trims, vec![HOP], "a trim, not an enqueue");
    assert!(r.enqueues(0).is_empty());
    assert_eq!(r.dequeues(0), vec![HOP], "the header leaves in the instant it was cut");
    // 64 B at 10 Gbps: 51.2 ns, rounded up.
    let want = Arrival { at: HOP + 52 + DELAY, flow: 0, wire_bytes: 64, trimmed: true };
    assert_eq!(r.arrivals, vec![want]);
    let c = r.sim.total_counters();
    assert_eq!((c.trimmed, c.enqueued, c.dropped), (1, 1, 0));
}

/// Every way out of the pool in one run: tail drop, range-cap drop,
/// trimmed-header drop at a full port, push-out eviction and fault loss —
/// beside delivery. The per-event audit checks `occupied == on the wire +
/// queued` after each of them, and the drained end checks that nothing is
/// left.
#[test]
fn every_exit_gives_its_slot_back() {
    let cfg = SwitchConfig::ndp(6_000, 3_000).with_push_out(true).with_range_cap(7, 8, 3_000);
    let burst = |prio, trimmable| Burst { prio, trimmable, count: 12, payload: MSS_BYTES };
    let flows = [
        // Phase 1: P7 alone, capped at 3 000 B of a 6 000 B port — a drop
        // here can only be the cap's.
        (0, 1, 0, burst(7, false)),
        (2, 1, 0, burst(7, false)),
        // Phase 2: untrimmable P0 from two sources fills the port to the
        // byte (4 x 1 500 B) while trimmable P2 keeps arriving: tail drops
        // for the first, cut headers that no longer fit for the second.
        (0, 1, 100_000, burst(0, false)),
        (2, 1, 100_000, burst(0, false)),
        (3, 1, 100_000, burst(2, true)),
        // Phase 3: trimmable P2 alone, past the trim threshold but never
        // near the buffer: headers that are admitted and delivered.
        (0, 1, 200_000, burst(2, true)),
        (2, 1, 200_000, burst(2, true)),
        // Phase 4: P5 backlog, then P0 arrivals that push it out.
        (0, 1, 300_000, burst(5, false)),
        (3, 1, 300_000, burst(5, false)),
        (2, 1, 300_000 + 4 * SER, burst(0, false)),
    ];
    let lossy = FaultSchedule::new(5).with_data_loss(0.05);
    let r = run(cfg, Some(lossy), &flows);
    assert!(r.drops(0) + r.drops(1) > 0, "range cap");
    assert!(r.drops(2) + r.drops(3) > 0, "tail drop");
    assert!(r.drops(4) > 0, "trimmed header dropped at a full port");
    let c = r.sim.total_counters();
    assert!(c.evicted > 0 && c.trimmed > 0, "push-out and trim: {c:?}");
    assert!(r.sim.fault_report().fault_drops > 0, "fault loss");
    assert!(!r.arrivals.is_empty() && r.arrivals.iter().any(|a| a.trimmed), "delivery");
    let sent: u64 = flows.iter().map(|f| f.3.count as u64).sum();
    let pool = r.sim.pool_stats();
    assert_eq!(pool.fresh + pool.recycled, sent, "one slot per packet life");
    assert!(pool.fresh < sent / 2, "and the slots are reused: {pool:?}");
    assert_eq!(pool.live, 0);
}
