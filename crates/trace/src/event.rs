//! The typed trace-event stream.
//!
//! Every variant is `Copy` and built from plain integers/bools, so
//! constructing an event never allocates: with no sink attached, tracing
//! costs exactly one branch per emission site.
//!
//! Two layers feed the stream. The *engine* emits flow lifecycle, queue
//! and timer events from inside `Simulator`; *transports* publish
//! protocol-level events (PPT's LCP loop lifecycle, EWD ACK decisions,
//! DCTCP alpha/cwnd updates, PIAS demotions) through `Ctx::emit`.
//!
//! The JSONL wire format is one object per line, `at` (sim-time ns) and
//! `ev` (the [`TraceEvent::kind`] tag) first, then variant fields. The
//! encoder in [`encode_line`] must have one arm per variant — simlint's
//! `trace_schema` rule enforces that.

use crate::json::{push_f64, push_u64};

/// Why an LCP (low-priority control loop) was opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LcpTrigger {
    /// Case 1: opened at flow start to fill the first-RTT gap (§3.1).
    FlowStart,
    /// Case 2: opened when DCTCP's alpha pinned at its minimum, i.e. the
    /// flow observed persistent queue headroom (§3.1).
    QueueBuildup,
}

impl LcpTrigger {
    pub fn as_str(&self) -> &'static str {
        match self {
            LcpTrigger::FlowStart => "flow_start",
            LcpTrigger::QueueBuildup => "queue_buildup",
        }
    }
}

/// Why an LCP was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LcpCloseReason {
    /// Every byte the loop could usefully send is covered by the HCP.
    FlowDone,
    /// The loop's expiry timer lapsed without useful work left.
    Expired,
    /// The loop expired without ever receiving a low-priority ACK: the
    /// network is dropping LP traffic outright, so the loop terminates
    /// after 2 silent RTTs (§3.2, "Remarks").
    NoLpAcks,
}

impl LcpCloseReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            LcpCloseReason::FlowDone => "flow_done",
            LcpCloseReason::Expired => "expired",
            LcpCloseReason::NoLpAcks => "no_lp_acks",
        }
    }
}

/// Which runtime invariant a sanitizer violation report refers to.
///
/// The tags mirror the invariant families of DESIGN.md §13; the engine's
/// simsan auditor (`netsim::sanitizer`) emits one
/// [`TraceEvent::SanViolation`] per detected breach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SanCheck {
    /// Packet-pool conservation: every in-flight slot allocated exactly
    /// once, freed exactly once, none live at a quiescent run end.
    PoolConservation,
    /// Event-clock discipline: dispatch times never decrease.
    ClockMonotonic,
    /// FIFO tie-break: heap sequence numbers must be assigned in strictly
    /// increasing order so same-time events dispatch in insertion order.
    TieBreak,
    /// Event order: every pop is the least `(time, seq)` key pushed and not
    /// yet popped, and the queue holds exactly the keys pushed onto it.
    EventOrder,
    /// A handler scheduled an event before the current simulated time.
    SchedulePast,
    /// Queue accounting: byte counters recomputed from queue contents (or
    /// the shadow ledger) disagree with `PrioQueues` internals.
    QueueAccounting,
    /// An ECN mark was applied inconsistently with the instantaneous
    /// backlog / configured rule.
    EcnMark,
    /// Link occupancy: at most one serialization in flight per port, and
    /// every TxDone must match a prior transmit.
    LinkOccupancy,
    /// Transport conservation: cwnd > 0, monotone cumulative ACKs,
    /// armed RTO implies outstanding data.
    TransportConservation,
    /// Fault-injected drops not fully attributed in the `FaultReport`.
    FaultAttribution,
    /// PFC transmit state out of step with the backlog it summarises: a
    /// governed priority's XOFF bit clear at or above XOFF, or set at or
    /// below XON, or a switch's assertion count not the number of its
    /// ports asserting.
    PfcState,
}

impl SanCheck {
    pub fn as_str(&self) -> &'static str {
        match self {
            SanCheck::PoolConservation => "pool_conservation",
            SanCheck::ClockMonotonic => "clock_monotonic",
            SanCheck::TieBreak => "tie_break",
            SanCheck::EventOrder => "event_order",
            SanCheck::SchedulePast => "schedule_past",
            SanCheck::QueueAccounting => "queue_accounting",
            SanCheck::EcnMark => "ecn_mark",
            SanCheck::LinkOccupancy => "link_occupancy",
            SanCheck::TransportConservation => "transport_conservation",
            SanCheck::FaultAttribution => "fault_attribution",
            SanCheck::PfcState => "pfc_state",
        }
    }
}

/// The engine event kinds the dispatch-loop self-profiler attributes
/// wall-clock time to (DESIGN.md §14). Mirrors the engine's internal
/// event enum one-to-one; `ALL` fixes the reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfKind {
    /// Flow-start dispatches (application handoff to the transport).
    FlowStart,
    /// Packet deliveries (host receive + switch forwarding).
    Deliver,
    /// Egress serialization completions.
    TxDone,
    /// Transport timer fires.
    Timer,
    /// Telemetry/legacy sampler ticks.
    Sample,
    /// Timed fault operations.
    Fault,
}

impl ProfKind {
    /// Every kind, in the order profile breakdowns are reported.
    pub const ALL: [ProfKind; 6] = [
        ProfKind::FlowStart,
        ProfKind::Deliver,
        ProfKind::TxDone,
        ProfKind::Timer,
        ProfKind::Sample,
        ProfKind::Fault,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            ProfKind::FlowStart => "flow_start",
            ProfKind::Deliver => "deliver",
            ProfKind::TxDone => "tx_done",
            ProfKind::Timer => "timer",
            ProfKind::Sample => "sample",
            ProfKind::Fault => "fault",
        }
    }
}

/// One trace event. Time is carried next to the event by the sink
/// (`TraceSink::emit(at, ev)`), not inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// The application handed `flow` to the transport at its source host.
    FlowStart { flow: u64, src: u32, dst: u32, size: u64 },
    /// The receiver reported every byte of `flow` delivered.
    FlowComplete { flow: u64 },
    /// A packet was admitted to a switch egress queue.
    Enqueue { sw: u32, port: u16, flow: u64, prio: u8, qlen: u64 },
    /// A packet left a switch egress queue for serialization.
    Dequeue { sw: u32, port: u16, flow: u64, prio: u8 },
    /// A packet was dropped at admission (buffer exhausted).
    Drop { sw: u32, port: u16, flow: u64, prio: u8, bytes: u64 },
    /// A packet was ECN-marked at admission (instantaneous queue > K).
    EcnMark { sw: u32, port: u16, flow: u64, prio: u8, qlen: u64 },
    /// A packet's payload was trimmed to a header at admission (NDP-style).
    Trim { sw: u32, port: u16, flow: u64, prio: u8 },
    /// A transport timer fired.
    Timer { host: u32, token: u64 },
    /// A sender retransmitted the segment at `offset`.
    Retransmit { flow: u64, offset: u64, len: u64 },
    /// PPT opened a low-priority control loop.
    LcpOpened { flow: u64, trigger: LcpTrigger, init_bytes: u64 },
    /// PPT closed a low-priority control loop.
    LcpClosed { flow: u64, reason: LcpCloseReason },
    /// An LCP ACK arrived; `sent_new` records whether it clocked out new
    /// packets (EWD: ECE-marked LCP ACKs must not, §3.2).
    LcpAck { flow: u64, ece: bool, sent_new: bool },
    /// The LCP sent the segment at `offset` (tail side).
    LcpSend { flow: u64, offset: u64, len: u64 },
    /// DCTCP's per-round congestion estimate was updated.
    AlphaUpdate { flow: u64, alpha: f64 },
    /// The HCP congestion window changed (post-ACK value, bytes).
    CwndUpdate { flow: u64, cwnd: u64 },
    /// PIAS demoted `flow` between priority levels.
    PiasDemote { flow: u64, from: u8, to: u8 },
    /// The bytes switch `sw` holds of priority `prio` that came in through
    /// `port` crossed a PFC threshold, and the switch sent a pause
    /// (`on == true`, ≥ XOFF) or resume (`on == false`, ≤ XON) frame back
    /// through that port to the one neighbour behind it. `qlen` is that
    /// ingress account at the crossing.
    PfcXoff { sw: u32, port: u16, prio: u8, qlen: u64, on: bool },
    /// A host NIC applied a received pause (`on == true`) or resume
    /// (`on == false`) frame for priority `prio`.
    PfcPause { host: u32, prio: u8, on: bool },
    /// A switch egress port applied a received pause/resume frame for
    /// priority `prio` (the port feeds the downstream switch whose
    /// ingress account it filled).
    PfcSwPause { sw: u32, port: u16, prio: u8, on: bool },
    /// A scheduled fault took `link` down: everything serialized onto it
    /// until the matching [`TraceEvent::LinkUp`] is lost on the wire.
    LinkDown { link: u32 },
    /// A scheduled fault restored `link`.
    LinkUp { link: u32 },
    /// The fault layer dropped a packet in flight (random loss or a down
    /// link); `bytes` is the wire size of the lost packet.
    FaultDrop { link: u32, flow: u64, prio: u8, bytes: u64 },
    /// The runtime sanitizer (simsan) detected an invariant breach.
    /// `subject` identifies the entity (port key, pool slot, flow or link
    /// id — which one depends on `check`); `expected`/`actual` carry the
    /// disagreeing quantities.
    SanViolation { check: SanCheck, subject: u64, expected: u64, actual: u64 },
    /// One telemetry sampler reading: `series` indexes the run's series
    /// table (written alongside the stream). Only post-run telemetry
    /// export writes these — the live golden trace path never sees them,
    /// which is what keeps telemetry-on runs byte-identical (DESIGN.md §14).
    Sample { series: u32, value: f64 },
    /// Engine self-profiler totals for one event kind: wall-clock
    /// nanoseconds, so only written behind the explicit `prof` knob and
    /// always excluded from determinism goldens (DESIGN.md §14).
    Profile { kind: ProfKind, count: u64, total_ns: u64 },
}

impl TraceEvent {
    /// The `ev` tag used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowComplete { .. } => "flow_complete",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::EcnMark { .. } => "ecn_mark",
            TraceEvent::Trim { .. } => "trim",
            TraceEvent::Timer { .. } => "timer",
            TraceEvent::Retransmit { .. } => "retransmit",
            TraceEvent::LcpOpened { .. } => "lcp_opened",
            TraceEvent::LcpClosed { .. } => "lcp_closed",
            TraceEvent::LcpAck { .. } => "lcp_ack",
            TraceEvent::LcpSend { .. } => "lcp_send",
            TraceEvent::AlphaUpdate { .. } => "alpha_update",
            TraceEvent::CwndUpdate { .. } => "cwnd_update",
            TraceEvent::PiasDemote { .. } => "pias_demote",
            TraceEvent::PfcXoff { .. } => "pfc_xoff",
            TraceEvent::PfcPause { .. } => "pfc_pause",
            TraceEvent::PfcSwPause { .. } => "pfc_sw_pause",
            TraceEvent::LinkDown { .. } => "link_down",
            TraceEvent::LinkUp { .. } => "link_up",
            TraceEvent::FaultDrop { .. } => "fault_drop",
            TraceEvent::SanViolation { .. } => "san_violation",
            TraceEvent::Sample { .. } => "sample",
            TraceEvent::Profile { .. } => "profile",
        }
    }
}

/// `,"<name>":` as one literal, so a field's key is a single `push_str`.
macro_rules! key {
    ($name:literal) => {
        concat!(",\"", $name, "\":")
    };
}

// The three field writers are inlined so that each call site copies a key
// of known length: a fixed-size store where a call would be a `memcpy`.

#[inline(always)]
fn num(out: &mut String, key: &str, v: u64) {
    out.push_str(key);
    push_u64(out, v);
}

#[inline(always)]
fn text(out: &mut String, key: &str, v: &str) {
    out.push_str(key);
    out.push('"');
    out.push_str(v);
    out.push('"');
}

#[inline(always)]
fn flag(out: &mut String, key: &str, v: bool) {
    out.push_str(key);
    out.push_str(if v { "true" } else { "false" });
}

/// Room for the longest all-integer line (`san_violation` with four
/// 20-digit values is 174 bytes); a float that prints longer than that
/// grows the buffer the usual way.
const LINE_RESERVE: usize = 192;

/// Append the JSONL encoding of `(at, ev)` to `out` (no trailing newline).
///
/// Integers go through [`push_u64`] and everything else is a literal: no
/// `fmt::Arguments` is built, which was over half of a line's cost. The
/// bytes are pinned per variant by the tests below.
///
/// simlint's `trace_schema` rule checks that every `TraceEvent` variant
/// appears as an arm inside this function's body.
pub fn encode_line(out: &mut String, at: u64, ev: &TraceEvent) {
    out.reserve(LINE_RESERVE);
    out.push_str("{\"at\":");
    push_u64(out, at);
    text(out, key!("ev"), ev.kind());
    match *ev {
        TraceEvent::FlowStart { flow, src, dst, size } => {
            num(out, key!("flow"), flow);
            num(out, key!("src"), src.into());
            num(out, key!("dst"), dst.into());
            num(out, key!("size"), size);
        }
        TraceEvent::FlowComplete { flow } => num(out, key!("flow"), flow),
        TraceEvent::Enqueue { sw, port, flow, prio, qlen }
        | TraceEvent::EcnMark { sw, port, flow, prio, qlen } => {
            port_flow(out, sw, port, flow, prio);
            num(out, key!("qlen"), qlen);
        }
        TraceEvent::Dequeue { sw, port, flow, prio }
        | TraceEvent::Trim { sw, port, flow, prio } => {
            port_flow(out, sw, port, flow, prio);
        }
        TraceEvent::Drop { sw, port, flow, prio, bytes } => {
            port_flow(out, sw, port, flow, prio);
            num(out, key!("bytes"), bytes);
        }
        TraceEvent::Timer { host, token } => {
            num(out, key!("host"), host.into());
            num(out, key!("token"), token);
        }
        TraceEvent::Retransmit { flow, offset, len }
        | TraceEvent::LcpSend { flow, offset, len } => {
            num(out, key!("flow"), flow);
            num(out, key!("offset"), offset);
            num(out, key!("len"), len);
        }
        TraceEvent::LcpOpened { flow, trigger, init_bytes } => {
            num(out, key!("flow"), flow);
            text(out, key!("trigger"), trigger.as_str());
            num(out, key!("init_bytes"), init_bytes);
        }
        TraceEvent::LcpClosed { flow, reason } => {
            num(out, key!("flow"), flow);
            text(out, key!("reason"), reason.as_str());
        }
        TraceEvent::LcpAck { flow, ece, sent_new } => {
            num(out, key!("flow"), flow);
            flag(out, key!("ece"), ece);
            flag(out, key!("sent_new"), sent_new);
        }
        TraceEvent::AlphaUpdate { flow, alpha } => {
            num(out, key!("flow"), flow);
            out.push_str(key!("alpha"));
            push_f64(out, alpha);
        }
        TraceEvent::CwndUpdate { flow, cwnd } => {
            num(out, key!("flow"), flow);
            num(out, key!("cwnd"), cwnd);
        }
        TraceEvent::PiasDemote { flow, from, to } => {
            num(out, key!("flow"), flow);
            num(out, key!("from"), from.into());
            num(out, key!("to"), to.into());
        }
        TraceEvent::PfcXoff { sw, port, prio, qlen, on } => {
            num(out, key!("sw"), sw.into());
            num(out, key!("port"), port.into());
            num(out, key!("prio"), prio.into());
            num(out, key!("qlen"), qlen);
            flag(out, key!("on"), on);
        }
        TraceEvent::PfcPause { host, prio, on } => {
            num(out, key!("host"), host.into());
            num(out, key!("prio"), prio.into());
            flag(out, key!("on"), on);
        }
        TraceEvent::PfcSwPause { sw, port, prio, on } => {
            num(out, key!("sw"), sw.into());
            num(out, key!("port"), port.into());
            num(out, key!("prio"), prio.into());
            flag(out, key!("on"), on);
        }
        TraceEvent::LinkDown { link } | TraceEvent::LinkUp { link } => {
            num(out, key!("link"), link.into());
        }
        TraceEvent::FaultDrop { link, flow, prio, bytes } => {
            num(out, key!("link"), link.into());
            num(out, key!("flow"), flow);
            num(out, key!("prio"), prio.into());
            num(out, key!("bytes"), bytes);
        }
        TraceEvent::SanViolation { check, subject, expected, actual } => {
            text(out, key!("check"), check.as_str());
            num(out, key!("subject"), subject);
            num(out, key!("expected"), expected);
            num(out, key!("actual"), actual);
        }
        TraceEvent::Sample { series, value } => {
            num(out, key!("series"), series.into());
            out.push_str(key!("value"));
            push_f64(out, value);
        }
        TraceEvent::Profile { kind, count, total_ns } => {
            text(out, key!("kind"), kind.as_str());
            num(out, key!("count"), count);
            num(out, key!("total_ns"), total_ns);
        }
    }
    out.push('}');
}

/// The four fields every switch-queue event starts with.
fn port_flow(out: &mut String, sw: u32, port: u16, flow: u64, prio: u8) {
    num(out, key!("sw"), sw.into());
    num(out, key!("port"), port.into());
    num(out, key!("flow"), flow);
    num(out, key!("prio"), prio.into());
}

/// What a line of a captured stream runs to: the PPT and DCTCP streams of
/// the pinned scenarios average 69 to 72 bytes.
const LINE_ESTIMATE: usize = 80;

/// The workspace's one JSONL loop: append each event's line, newline
/// included, to `buf`, then let `after_line` drain it or leave it to grow.
fn encode_lines<'a>(
    events: impl IntoIterator<Item = &'a (u64, TraceEvent)>,
    buf: &mut String,
    mut after_line: impl FnMut(&mut String) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for (at, ev) in events {
        encode_line(buf, *at, ev);
        buf.push('\n');
        after_line(buf)?;
    }
    Ok(())
}

/// Encode `events` as JSON Lines text, one trailing newline per event.
pub fn encode_jsonl<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a (u64, TraceEvent)>,
    I::IntoIter: ExactSizeIterator,
{
    let events = events.into_iter();
    let mut out = String::with_capacity(events.len() * LINE_ESTIMATE);
    // Nothing drains the buffer, so nothing can fail.
    let _ = encode_lines(events, &mut out, |_| Ok(()));
    out
}

/// Write `events` as JSON Lines to `w`, the same bytes as [`encode_jsonl`],
/// through one reused line buffer: the text never exists whole in memory.
/// Hand it a buffered writer; every line is its own `write_all`.
pub fn write_jsonl<'a>(
    w: &mut impl std::io::Write,
    events: impl IntoIterator<Item = &'a (u64, TraceEvent)>,
) -> std::io::Result<()> {
    encode_lines(events, &mut String::with_capacity(LINE_RESERVE), |line| {
        w.write_all(line.as_bytes())?;
        line.clear();
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    const SAMPLES: &[TraceEvent] = &[
        TraceEvent::FlowStart { flow: 1, src: 0, dst: 3, size: 1_000_000 },
        TraceEvent::FlowComplete { flow: 1 },
        TraceEvent::Enqueue { sw: 0, port: 2, flow: 1, prio: 0, qlen: 2920 },
        TraceEvent::Dequeue { sw: 0, port: 2, flow: 1, prio: 0 },
        TraceEvent::Drop { sw: 0, port: 2, flow: 1, prio: 7, bytes: 1460 },
        TraceEvent::EcnMark { sw: 0, port: 2, flow: 1, prio: 0, qlen: 95_000 },
        TraceEvent::Trim { sw: 0, port: 2, flow: 1, prio: 0 },
        TraceEvent::Timer { host: 4, token: 77 },
        TraceEvent::Retransmit { flow: 1, offset: 1460, len: 1460 },
        TraceEvent::LcpOpened { flow: 1, trigger: LcpTrigger::FlowStart, init_bytes: 85_000 },
        TraceEvent::LcpClosed { flow: 1, reason: LcpCloseReason::FlowDone },
        TraceEvent::LcpAck { flow: 1, ece: true, sent_new: false },
        TraceEvent::LcpSend { flow: 1, offset: 900_000, len: 1460 },
        TraceEvent::AlphaUpdate { flow: 1, alpha: 0.0625 },
        TraceEvent::CwndUpdate { flow: 1, cwnd: 14_600 },
        TraceEvent::PiasDemote { flow: 1, from: 0, to: 1 },
        TraceEvent::PfcXoff { sw: 0, port: 2, prio: 3, qlen: 260_000, on: true },
        TraceEvent::PfcPause { host: 4, prio: 3, on: true },
        TraceEvent::PfcSwPause { sw: 1, port: 0, prio: 3, on: false },
        TraceEvent::LinkDown { link: 3 },
        TraceEvent::LinkUp { link: 3 },
        TraceEvent::FaultDrop { link: 3, flow: 1, prio: 4, bytes: 1500 },
        TraceEvent::SanViolation {
            check: SanCheck::QueueAccounting,
            subject: 5,
            expected: 2920,
            actual: 4380,
        },
        TraceEvent::Sample { series: 12, value: 46_720.0 },
        TraceEvent::Profile { kind: ProfKind::Deliver, count: 420_000, total_ns: 180_000_000 },
    ];

    /// [`SAMPLES`] at `at = 123`, byte for byte: what is on disk in every
    /// `events.jsonl` written so far.
    const PINNED: &[&str] = &[
        r#"{"at":123,"ev":"flow_start","flow":1,"src":0,"dst":3,"size":1000000}"#,
        r#"{"at":123,"ev":"flow_complete","flow":1}"#,
        r#"{"at":123,"ev":"enqueue","sw":0,"port":2,"flow":1,"prio":0,"qlen":2920}"#,
        r#"{"at":123,"ev":"dequeue","sw":0,"port":2,"flow":1,"prio":0}"#,
        r#"{"at":123,"ev":"drop","sw":0,"port":2,"flow":1,"prio":7,"bytes":1460}"#,
        r#"{"at":123,"ev":"ecn_mark","sw":0,"port":2,"flow":1,"prio":0,"qlen":95000}"#,
        r#"{"at":123,"ev":"trim","sw":0,"port":2,"flow":1,"prio":0}"#,
        r#"{"at":123,"ev":"timer","host":4,"token":77}"#,
        r#"{"at":123,"ev":"retransmit","flow":1,"offset":1460,"len":1460}"#,
        r#"{"at":123,"ev":"lcp_opened","flow":1,"trigger":"flow_start","init_bytes":85000}"#,
        r#"{"at":123,"ev":"lcp_closed","flow":1,"reason":"flow_done"}"#,
        r#"{"at":123,"ev":"lcp_ack","flow":1,"ece":true,"sent_new":false}"#,
        r#"{"at":123,"ev":"lcp_send","flow":1,"offset":900000,"len":1460}"#,
        r#"{"at":123,"ev":"alpha_update","flow":1,"alpha":0.0625}"#,
        r#"{"at":123,"ev":"cwnd_update","flow":1,"cwnd":14600}"#,
        r#"{"at":123,"ev":"pias_demote","flow":1,"from":0,"to":1}"#,
        r#"{"at":123,"ev":"pfc_xoff","sw":0,"port":2,"prio":3,"qlen":260000,"on":true}"#,
        r#"{"at":123,"ev":"pfc_pause","host":4,"prio":3,"on":true}"#,
        r#"{"at":123,"ev":"pfc_sw_pause","sw":1,"port":0,"prio":3,"on":false}"#,
        r#"{"at":123,"ev":"link_down","link":3}"#,
        r#"{"at":123,"ev":"link_up","link":3}"#,
        r#"{"at":123,"ev":"fault_drop","link":3,"flow":1,"prio":4,"bytes":1500}"#,
        r#"{"at":123,"ev":"san_violation","check":"queue_accounting","subject":5,"expected":2920,"actual":4380}"#,
        r#"{"at":123,"ev":"sample","series":12,"value":46720}"#,
        r#"{"at":123,"ev":"profile","kind":"deliver","count":420000,"total_ns":180000000}"#,
    ];

    /// The `write!`-based encoder `encode_line` replaced, kept as the
    /// reference the differential test compares against.
    fn reference_line(out: &mut String, at: u64, ev: &TraceEvent) {
        let _ = write!(out, "{{\"at\":{at},\"ev\":\"{}\"", ev.kind());
        match *ev {
            TraceEvent::FlowStart { flow, src, dst, size } => {
                let _ = write!(out, ",\"flow\":{flow},\"src\":{src},\"dst\":{dst},\"size\":{size}");
            }
            TraceEvent::FlowComplete { flow } => {
                let _ = write!(out, ",\"flow\":{flow}");
            }
            TraceEvent::Enqueue { sw, port, flow, prio, qlen } => {
                let _ = write!(
                    out,
                    ",\"sw\":{sw},\"port\":{port},\"flow\":{flow},\"prio\":{prio},\"qlen\":{qlen}"
                );
            }
            TraceEvent::Dequeue { sw, port, flow, prio } => {
                let _ = write!(out, ",\"sw\":{sw},\"port\":{port},\"flow\":{flow},\"prio\":{prio}");
            }
            TraceEvent::Drop { sw, port, flow, prio, bytes } => {
                let _ = write!(
                    out,
                    ",\"sw\":{sw},\"port\":{port},\"flow\":{flow},\"prio\":{prio},\"bytes\":{bytes}"
                );
            }
            TraceEvent::EcnMark { sw, port, flow, prio, qlen } => {
                let _ = write!(
                    out,
                    ",\"sw\":{sw},\"port\":{port},\"flow\":{flow},\"prio\":{prio},\"qlen\":{qlen}"
                );
            }
            TraceEvent::Trim { sw, port, flow, prio } => {
                let _ = write!(out, ",\"sw\":{sw},\"port\":{port},\"flow\":{flow},\"prio\":{prio}");
            }
            TraceEvent::Timer { host, token } => {
                let _ = write!(out, ",\"host\":{host},\"token\":{token}");
            }
            TraceEvent::Retransmit { flow, offset, len } => {
                let _ = write!(out, ",\"flow\":{flow},\"offset\":{offset},\"len\":{len}");
            }
            TraceEvent::LcpOpened { flow, trigger, init_bytes } => {
                let _ = write!(
                    out,
                    ",\"flow\":{flow},\"trigger\":\"{}\",\"init_bytes\":{init_bytes}",
                    trigger.as_str()
                );
            }
            TraceEvent::LcpClosed { flow, reason } => {
                let _ = write!(out, ",\"flow\":{flow},\"reason\":\"{}\"", reason.as_str());
            }
            TraceEvent::LcpAck { flow, ece, sent_new } => {
                let _ = write!(out, ",\"flow\":{flow},\"ece\":{ece},\"sent_new\":{sent_new}");
            }
            TraceEvent::LcpSend { flow, offset, len } => {
                let _ = write!(out, ",\"flow\":{flow},\"offset\":{offset},\"len\":{len}");
            }
            TraceEvent::AlphaUpdate { flow, alpha } => {
                let _ = write!(out, ",\"flow\":{flow},\"alpha\":");
                push_f64(out, alpha);
            }
            TraceEvent::CwndUpdate { flow, cwnd } => {
                let _ = write!(out, ",\"flow\":{flow},\"cwnd\":{cwnd}");
            }
            TraceEvent::PiasDemote { flow, from, to } => {
                let _ = write!(out, ",\"flow\":{flow},\"from\":{from},\"to\":{to}");
            }
            TraceEvent::PfcXoff { sw, port, prio, qlen, on } => {
                let _ = write!(
                    out,
                    ",\"sw\":{sw},\"port\":{port},\"prio\":{prio},\"qlen\":{qlen},\"on\":{on}"
                );
            }
            TraceEvent::PfcPause { host, prio, on } => {
                let _ = write!(out, ",\"host\":{host},\"prio\":{prio},\"on\":{on}");
            }
            TraceEvent::PfcSwPause { sw, port, prio, on } => {
                let _ = write!(out, ",\"sw\":{sw},\"port\":{port},\"prio\":{prio},\"on\":{on}");
            }
            TraceEvent::LinkDown { link } => {
                let _ = write!(out, ",\"link\":{link}");
            }
            TraceEvent::LinkUp { link } => {
                let _ = write!(out, ",\"link\":{link}");
            }
            TraceEvent::FaultDrop { link, flow, prio, bytes } => {
                let _ = write!(
                    out,
                    ",\"link\":{link},\"flow\":{flow},\"prio\":{prio},\"bytes\":{bytes}"
                );
            }
            TraceEvent::SanViolation { check, subject, expected, actual } => {
                let _ = write!(
                    out,
                    ",\"check\":\"{}\",\"subject\":{subject},\"expected\":{expected},\"actual\":{actual}",
                    check.as_str()
                );
            }
            TraceEvent::Sample { series, value } => {
                let _ = write!(out, ",\"series\":{series},\"value\":");
                push_f64(out, value);
            }
            TraceEvent::Profile { kind, count, total_ns } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{}\",\"count\":{count},\"total_ns\":{total_ns}",
                    kind.as_str()
                );
            }
        }
        out.push('}');
    }

    /// `ev` with every integer field set to `v` (truncated to the field's
    /// width), every float to `f` and every bool to `v`'s low bit.
    fn with_values(ev: &TraceEvent, v: u64, f: f64) -> TraceEvent {
        let (w, h, b, on) = (v as u32, v as u16, v as u8, v & 1 == 1);
        match *ev {
            TraceEvent::FlowStart { .. } => {
                TraceEvent::FlowStart { flow: v, src: w, dst: w, size: v }
            }
            TraceEvent::FlowComplete { .. } => TraceEvent::FlowComplete { flow: v },
            TraceEvent::Enqueue { .. } => {
                TraceEvent::Enqueue { sw: w, port: h, flow: v, prio: b, qlen: v }
            }
            TraceEvent::Dequeue { .. } => TraceEvent::Dequeue { sw: w, port: h, flow: v, prio: b },
            TraceEvent::Drop { .. } => {
                TraceEvent::Drop { sw: w, port: h, flow: v, prio: b, bytes: v }
            }
            TraceEvent::EcnMark { .. } => {
                TraceEvent::EcnMark { sw: w, port: h, flow: v, prio: b, qlen: v }
            }
            TraceEvent::Trim { .. } => TraceEvent::Trim { sw: w, port: h, flow: v, prio: b },
            TraceEvent::Timer { .. } => TraceEvent::Timer { host: w, token: v },
            TraceEvent::Retransmit { .. } => TraceEvent::Retransmit { flow: v, offset: v, len: v },
            TraceEvent::LcpOpened { trigger, .. } => {
                TraceEvent::LcpOpened { flow: v, trigger, init_bytes: v }
            }
            TraceEvent::LcpClosed { reason, .. } => TraceEvent::LcpClosed { flow: v, reason },
            TraceEvent::LcpAck { .. } => TraceEvent::LcpAck { flow: v, ece: on, sent_new: !on },
            TraceEvent::LcpSend { .. } => TraceEvent::LcpSend { flow: v, offset: v, len: v },
            TraceEvent::AlphaUpdate { .. } => TraceEvent::AlphaUpdate { flow: v, alpha: f },
            TraceEvent::CwndUpdate { .. } => TraceEvent::CwndUpdate { flow: v, cwnd: v },
            TraceEvent::PiasDemote { .. } => TraceEvent::PiasDemote { flow: v, from: b, to: b },
            TraceEvent::PfcXoff { .. } => {
                TraceEvent::PfcXoff { sw: w, port: h, prio: b, qlen: v, on }
            }
            TraceEvent::PfcPause { .. } => TraceEvent::PfcPause { host: w, prio: b, on },
            TraceEvent::PfcSwPause { .. } => TraceEvent::PfcSwPause { sw: w, port: h, prio: b, on },
            TraceEvent::LinkDown { .. } => TraceEvent::LinkDown { link: w },
            TraceEvent::LinkUp { .. } => TraceEvent::LinkUp { link: w },
            TraceEvent::FaultDrop { .. } => {
                TraceEvent::FaultDrop { link: w, flow: v, prio: b, bytes: v }
            }
            TraceEvent::SanViolation { check, .. } => {
                TraceEvent::SanViolation { check, subject: v, expected: v, actual: v }
            }
            TraceEvent::Sample { .. } => TraceEvent::Sample { series: w, value: f },
            TraceEvent::Profile { kind, .. } => TraceEvent::Profile { kind, count: v, total_ns: v },
        }
    }

    #[test]
    fn encoder_matches_the_write_based_reference_on_every_edge() {
        let ints = [0, 9, 10, 99, 100, u16::MAX as u64, u32::MAX as u64, u64::MAX];
        let floats = [0.0625, 1e21, -0.0, f64::NAN];
        let (mut got, mut want) = (String::new(), String::new());
        for sample in SAMPLES {
            for v in ints {
                for f in floats {
                    let ev = with_values(sample, v, f);
                    got.clear();
                    want.clear();
                    encode_line(&mut got, v, &ev);
                    reference_line(&mut want, v, &ev);
                    assert_eq!(got, want, "{ev:?} at {v}");
                }
            }
        }
        // The f64 cases print what JSON can carry.
        got.clear();
        encode_line(&mut got, 1, &TraceEvent::Sample { series: 0, value: f64::NAN });
        assert_eq!(got, r#"{"at":1,"ev":"sample","series":0,"value":null}"#);
        got.clear();
        encode_line(&mut got, 1, &TraceEvent::AlphaUpdate { flow: 0, alpha: 1e21 });
        assert_eq!(got, r#"{"at":1,"ev":"alpha_update","flow":0,"alpha":1000000000000000000000}"#);
        got.clear();
        encode_line(&mut got, 1, &TraceEvent::AlphaUpdate { flow: 0, alpha: -0.0 });
        assert_eq!(got, r#"{"at":1,"ev":"alpha_update","flow":0,"alpha":-0}"#);
    }

    #[test]
    fn every_variant_is_pinned_to_a_literal_line() {
        assert_eq!(SAMPLES.len(), PINNED.len(), "one pinned line per sample");
        let mut line = String::new();
        for (ev, want) in SAMPLES.iter().zip(PINNED) {
            line.clear();
            encode_line(&mut line, 123, ev);
            assert_eq!(line, *want, "{}: the wire format moved", ev.kind());
        }
        // SAMPLES covers the enum: a new variant must add its pinned line.
        let mut kinds: Vec<&str> = SAMPLES.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 25, "SAMPLES must hold each variant once");
    }

    #[test]
    fn jsonl_text_and_writer_produce_the_same_bytes() {
        let events: Vec<(u64, TraceEvent)> =
            SAMPLES.iter().enumerate().map(|(i, ev)| (i as u64 * 1_000, *ev)).collect();
        let text = encode_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.ends_with("}\n"));
        let mut written = Vec::new();
        write_jsonl(&mut written, &events).expect("writing to a Vec cannot fail");
        assert_eq!(written, text.as_bytes());
        assert_eq!(encode_jsonl(&Vec::new()), "");
    }

    #[test]
    fn every_variant_encodes_to_one_json_object_line() {
        for ev in SAMPLES {
            let mut line = String::new();
            encode_line(&mut line, 123, ev);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "{line}");
            assert!(line.starts_with("{\"at\":123,\"ev\":\""), "{line}");
            assert!(line.contains(ev.kind()), "{line} missing kind {}", ev.kind());
        }
    }

    #[test]
    fn encoding_is_stable() {
        let mut line = String::new();
        encode_line(
            &mut line,
            42,
            &TraceEvent::LcpOpened { flow: 9, trigger: LcpTrigger::QueueBuildup, init_bytes: 10 },
        );
        assert_eq!(
            line,
            r#"{"at":42,"ev":"lcp_opened","flow":9,"trigger":"queue_buildup","init_bytes":10}"#
        );
        line.clear();
        encode_line(&mut line, 7, &TraceEvent::LcpAck { flow: 2, ece: true, sent_new: false });
        assert_eq!(line, r#"{"at":7,"ev":"lcp_ack","flow":2,"ece":true,"sent_new":false}"#);
    }
}
