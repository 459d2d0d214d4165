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
//! `ev` (the [`TraceEvent::kind`] tag) first, then variant fields. One
//! encoder, `encode_into`, holds an arm per variant — simlint's
//! `trace_schema` rule enforces that — and [`encode_line`],
//! [`encode_jsonl`], [`JsonlWriter`] and [`encode_telemetry`] all go
//! through it.

use std::io::Write;

use crate::json::{decimal_len, push_f64, push_u64, write_decimal};
use crate::sink::TraceSink;
use crate::telemetry::Series;

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
    /// A queued lower-priority packet was pushed out to admit an arrival;
    /// `bytes` is its payload. With `Drop`, every packet a switch lost.
    Evict { sw: u32, port: u16, flow: u64, prio: u8, bytes: u64 },
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
            TraceEvent::Evict { .. } => "evict",
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

/// `,"<name>":` as one literal, so a field's key is a single copy.
macro_rules! key {
    ($name:literal) => {
        concat!(",\"", $name, "\":")
    };
}

/// `,"ev":"<tag>","<first field>":`: a variant's tag and the key of its
/// first field as one literal.
macro_rules! head {
    ($tag:literal, $first:literal) => {
        concat!(",\"ev\":\"", $tag, "\",\"", $first, "\":")
    };
}

/// The longest line an event encodes to, newline included: an
/// `alpha_update` with a 20-digit `at` and `flow` and the longest number
/// `Display` prints for an `f64`, a negative subnormal (`-0.` and 324 more
/// digits), is 412 bytes.
const LINE_MAX: usize = 412;

/// What [`encode_into`] writes to: a [`Line`] for the byte streams, or a
/// `String` for [`encode_line`]. Every byte it writes is ASCII.
///
/// The writers are inlined so that each call site copies a key of known
/// length: a fixed-size store where a call would be a `memcpy`.
trait Out {
    /// Append a literal.
    fn put(&mut self, s: &str);
    /// Append `v` in decimal.
    fn put_u64(&mut self, v: u64);
    /// Append `v` as [`push_f64`] does: `Display`, the shortest decimal
    /// that round-trips, or `null` where JSON has no number.
    fn put_f64(&mut self, v: f64);

    #[inline(always)]
    fn num(&mut self, key: &str, v: u64) {
        self.put(key);
        self.put_u64(v);
    }

    #[inline(always)]
    fn text(&mut self, key: &str, v: &str) {
        self.put(key);
        self.put("\"");
        self.put(v);
        self.put("\"");
    }

    #[inline(always)]
    fn flag(&mut self, key: &str, v: bool) {
        self.put(key);
        self.put(if v { "true" } else { "false" });
    }

    #[inline(always)]
    fn float(&mut self, key: &str, v: f64) {
        self.put(key);
        self.put_f64(v);
    }

    /// The four fields every switch-queue event starts with, `sw` keyed by
    /// the variant's `head`.
    #[inline(always)]
    fn port_flow(&mut self, head: &str, sw: u32, port: u16, flow: u64, prio: u8) {
        self.num(head, sw.into());
        self.num(key!("port"), port.into());
        self.num(key!("flow"), flow);
        self.num(key!("prio"), prio.into());
    }
}

/// One line being encoded, on the stack: keys and digits are stored at an
/// index with no capacity to check, and the finished line goes to its
/// stream in one copy.
struct Line {
    bytes: [u8; LINE_MAX],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Line { bytes: [0; LINE_MAX], len: 0 }
    }

    /// Encode `(at, ev)` over what the line held: its bytes, newline
    /// included.
    fn encode(&mut self, at: u64, ev: &TraceEvent) -> &[u8] {
        self.len = 0;
        encode_into(self, at, ev);
        self.put("\n");
        &self.bytes[..self.len]
    }
}

impl Out for Line {
    #[inline(always)]
    fn put(&mut self, s: &str) {
        let end = self.len + s.len();
        self.bytes[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
    }

    #[inline(always)]
    fn put_u64(&mut self, v: u64) {
        let end = self.len + decimal_len(v);
        write_decimal(v, &mut self.bytes[self.len..end]);
        self.len = end;
    }

    fn put_f64(&mut self, v: f64) {
        let mut rest = &mut self.bytes[self.len..];
        let room = rest.len();
        // [`LINE_MAX`] leaves room for the longest `Display`, so only a
        // non-finite value takes the `null`.
        if v.is_finite() && write!(rest, "{v}").is_ok() {
            self.len += room - rest.len();
        } else {
            self.put("null");
        }
    }
}

impl Out for String {
    #[inline(always)]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    #[inline(always)]
    fn put_u64(&mut self, v: u64) {
        push_u64(self, v);
    }

    fn put_f64(&mut self, v: f64) {
        push_f64(self, v);
    }
}

/// Encode `(at, ev)` into `out`, after what it holds (no newline): the
/// workspace's one event encoder, which every stream goes through.
///
/// Each arm starts with one literal holding the `ev` tag and the first
/// key, integers are written from a two-digit table and everything else is
/// a literal, so no `fmt::Arguments` is built but for a float. Every byte
/// is ASCII. The bytes are pinned per variant by the tests below.
///
/// simlint's `trace_schema` rule checks that every `TraceEvent` variant
/// appears as an arm inside this function's body.
fn encode_into(out: &mut impl Out, at: u64, ev: &TraceEvent) {
    out.num("{\"at\":", at);
    match *ev {
        TraceEvent::FlowStart { flow, src, dst, size } => {
            out.num(head!("flow_start", "flow"), flow);
            out.num(key!("src"), src.into());
            out.num(key!("dst"), dst.into());
            out.num(key!("size"), size);
        }
        TraceEvent::FlowComplete { flow } => out.num(head!("flow_complete", "flow"), flow),
        TraceEvent::Enqueue { sw, port, flow, prio, qlen } => {
            out.port_flow(head!("enqueue", "sw"), sw, port, flow, prio);
            out.num(key!("qlen"), qlen);
        }
        TraceEvent::Dequeue { sw, port, flow, prio } => {
            out.port_flow(head!("dequeue", "sw"), sw, port, flow, prio);
        }
        TraceEvent::Drop { sw, port, flow, prio, bytes } => {
            out.port_flow(head!("drop", "sw"), sw, port, flow, prio);
            out.num(key!("bytes"), bytes);
        }
        TraceEvent::Evict { sw, port, flow, prio, bytes } => {
            out.port_flow(head!("evict", "sw"), sw, port, flow, prio);
            out.num(key!("bytes"), bytes);
        }
        TraceEvent::EcnMark { sw, port, flow, prio, qlen } => {
            out.port_flow(head!("ecn_mark", "sw"), sw, port, flow, prio);
            out.num(key!("qlen"), qlen);
        }
        TraceEvent::Trim { sw, port, flow, prio } => {
            out.port_flow(head!("trim", "sw"), sw, port, flow, prio);
        }
        TraceEvent::Timer { host, token } => {
            out.num(head!("timer", "host"), host.into());
            out.num(key!("token"), token);
        }
        TraceEvent::Retransmit { flow, offset, len } => {
            out.num(head!("retransmit", "flow"), flow);
            out.num(key!("offset"), offset);
            out.num(key!("len"), len);
        }
        TraceEvent::LcpOpened { flow, trigger, init_bytes } => {
            out.num(head!("lcp_opened", "flow"), flow);
            out.text(key!("trigger"), trigger.as_str());
            out.num(key!("init_bytes"), init_bytes);
        }
        TraceEvent::LcpClosed { flow, reason } => {
            out.num(head!("lcp_closed", "flow"), flow);
            out.text(key!("reason"), reason.as_str());
        }
        TraceEvent::LcpAck { flow, ece, sent_new } => {
            out.num(head!("lcp_ack", "flow"), flow);
            out.flag(key!("ece"), ece);
            out.flag(key!("sent_new"), sent_new);
        }
        TraceEvent::LcpSend { flow, offset, len } => {
            out.num(head!("lcp_send", "flow"), flow);
            out.num(key!("offset"), offset);
            out.num(key!("len"), len);
        }
        TraceEvent::AlphaUpdate { flow, alpha } => {
            out.num(head!("alpha_update", "flow"), flow);
            out.float(key!("alpha"), alpha);
        }
        TraceEvent::CwndUpdate { flow, cwnd } => {
            out.num(head!("cwnd_update", "flow"), flow);
            out.num(key!("cwnd"), cwnd);
        }
        TraceEvent::PiasDemote { flow, from, to } => {
            out.num(head!("pias_demote", "flow"), flow);
            out.num(key!("from"), from.into());
            out.num(key!("to"), to.into());
        }
        TraceEvent::PfcXoff { sw, port, prio, qlen, on } => {
            out.num(head!("pfc_xoff", "sw"), sw.into());
            out.num(key!("port"), port.into());
            out.num(key!("prio"), prio.into());
            out.num(key!("qlen"), qlen);
            out.flag(key!("on"), on);
        }
        TraceEvent::PfcPause { host, prio, on } => {
            out.num(head!("pfc_pause", "host"), host.into());
            out.num(key!("prio"), prio.into());
            out.flag(key!("on"), on);
        }
        TraceEvent::PfcSwPause { sw, port, prio, on } => {
            out.num(head!("pfc_sw_pause", "sw"), sw.into());
            out.num(key!("port"), port.into());
            out.num(key!("prio"), prio.into());
            out.flag(key!("on"), on);
        }
        TraceEvent::LinkDown { link } => out.num(head!("link_down", "link"), link.into()),
        TraceEvent::LinkUp { link } => out.num(head!("link_up", "link"), link.into()),
        TraceEvent::FaultDrop { link, flow, prio, bytes } => {
            out.num(head!("fault_drop", "link"), link.into());
            out.num(key!("flow"), flow);
            out.num(key!("prio"), prio.into());
            out.num(key!("bytes"), bytes);
        }
        TraceEvent::SanViolation { check, subject, expected, actual } => {
            out.text(head!("san_violation", "check"), check.as_str());
            out.num(key!("subject"), subject);
            out.num(key!("expected"), expected);
            out.num(key!("actual"), actual);
        }
        TraceEvent::Sample { series, value } => {
            out.num(head!("sample", "series"), series.into());
            out.float(key!("value"), value);
        }
        TraceEvent::Profile { kind, count, total_ns } => {
            out.text(head!("profile", "kind"), kind.as_str());
            out.num(key!("count"), count);
            out.num(key!("total_ns"), total_ns);
        }
    }
    out.put("}");
}

/// Append the JSONL encoding of `(at, ev)` to `out` (no trailing newline):
/// the one encoder writing straight into text, for a caller that builds a
/// `String` line by line.
pub fn encode_line(out: &mut String, at: u64, ev: &TraceEvent) {
    encode_into(out, at, ev);
}

/// Append each event's line, newline included, to `out`, every line
/// encoded in one reused [`Line`].
fn push_lines(out: &mut Vec<u8>, events: impl IntoIterator<Item = (u64, TraceEvent)>) {
    let mut line = Line::new();
    for (at, ev) in events {
        out.extend_from_slice(line.encode(at, &ev));
    }
}

/// What a line of a captured stream runs to: the PPT and DCTCP streams of
/// the pinned scenarios average 69 to 72 bytes.
const LINE_ESTIMATE: usize = 80;

/// Encode `events` as JSON Lines text, one trailing newline per event:
/// every line into one byte buffer, checked as UTF-8 once at the end.
pub fn encode_jsonl<'a, I>(events: I) -> String
where
    I: IntoIterator<Item = &'a (u64, TraceEvent)>,
    I::IntoIter: ExactSizeIterator,
{
    let events = events.into_iter();
    let mut out = Vec::with_capacity(events.len() * LINE_ESTIMATE);
    push_lines(&mut out, events.copied());
    // The bytes are ASCII, so the check passes and the vector becomes the
    // string as it is; the lossy fallback only keeps a panic out of the
    // library.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// How much encoded text a [`JsonlWriter`] gathers before it writes.
const WRITE_CHUNK: usize = 64 * 1024;

/// A sink that writes the stream to `W` as JSON Lines while the run goes:
/// the same bytes as [`encode_jsonl`] of the whole stream, in writes of
/// about 64 KiB from one reused buffer, so neither the events nor their
/// text ever exist whole in memory and `W` needs no buffering of its own.
/// After the first failed write it writes nothing more. [`Self::finish`]
/// writes the rest, or returns that error; a dropped writer writes nothing.
pub struct JsonlWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    line: Line,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlWriter<W> {
    pub fn new(out: W) -> Self {
        let buf = Vec::with_capacity(WRITE_CHUNK + LINE_MAX);
        JsonlWriter { out, buf, line: Line::new(), lines: 0, error: None }
    }

    /// Write what is still gathered and flush: `W` and the number of lines
    /// the stream had, or the first error a write met.
    pub fn finish(mut self) -> std::io::Result<(W, u64)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.write_all(&self.buf)?;
        self.out.flush()?;
        Ok((self.out, self.lines))
    }
}

impl<W: Write + 'static> TraceSink for JsonlWriter<W> {
    fn emit(&mut self, at: u64, ev: &TraceEvent) {
        self.lines += 1;
        if self.error.is_some() {
            return;
        }
        self.buf.extend_from_slice(self.line.encode(at, ev));
        if self.buf.len() >= WRITE_CHUNK {
            self.error = self.out.write_all(&self.buf).err();
            self.buf.clear();
        }
    }
}

/// Append a run's sampled telemetry to `out` as JSON Lines: one
/// [`TraceEvent::Sample`] line per retained point of every series (series
/// id = index in `series`), then, given `profile = Some((at, rows))`, one
/// [`TraceEvent::Profile`] line per `(kind, count, total_ns)` row stamped
/// `at`. `netsim::Telemetry::dump_events` is this over its series table.
pub fn encode_telemetry(
    out: &mut Vec<u8>,
    series: &[Series],
    profile: Option<(u64, &[(ProfKind, u64, u64)])>,
) {
    let samples = series.iter().enumerate().flat_map(|(i, s)| {
        s.points().map(move |p| (p.at, TraceEvent::Sample { series: i as u32, value: p.value }))
    });
    let (at, rows) = profile.unwrap_or((0, &[]));
    let rows = rows
        .iter()
        .map(|&(kind, count, total_ns)| (at, TraceEvent::Profile { kind, count, total_ns }));
    push_lines(out, samples.chain(rows));
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
        TraceEvent::Evict { sw: 0, port: 2, flow: 4, prio: 6, bytes: 1460 },
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
        r#"{"at":123,"ev":"evict","sw":0,"port":2,"flow":4,"prio":6,"bytes":1460}"#,
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
            TraceEvent::Drop { sw, port, flow, prio, bytes }
            | TraceEvent::Evict { sw, port, flow, prio, bytes } => {
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
            TraceEvent::Evict { .. } => {
                TraceEvent::Evict { sw: w, port: h, flow: v, prio: b, bytes: v }
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

    const EDGE_INTS: [u64; 8] = [0, 9, 10, 99, 100, u16::MAX as u64, u32::MAX as u64, u64::MAX];
    /// `-5e-324` prints the longest `Display` an `f64` has: `-0.` and 324
    /// more digits.
    const EDGE_FLOATS: [f64; 8] =
        [0.0625, 1e21, -0.0, f64::NAN, f64::INFINITY, -5e-324, f64::MIN_POSITIVE, f64::MAX];

    /// Every variant at every edge integer (as `at` and as each integer
    /// field) and every edge float, in that order.
    fn edge_events() -> Vec<(u64, TraceEvent)> {
        let mut events = Vec::new();
        for sample in SAMPLES {
            for v in EDGE_INTS {
                for f in EDGE_FLOATS {
                    events.push((v, with_values(sample, v, f)));
                }
            }
        }
        events
    }

    /// The reference's JSONL text of `events`.
    fn reference_jsonl<'a>(events: impl IntoIterator<Item = &'a (u64, TraceEvent)>) -> String {
        let mut text = String::new();
        for (at, ev) in events {
            reference_line(&mut text, *at, ev);
            text.push('\n');
        }
        text
    }

    /// Each door to the one encoder writes what the `write!` reference
    /// writes, line for line: `encode_line`, `encode_jsonl`, `JsonlWriter`
    /// (past one write chunk), the sinks' `to_jsonl` and `encode_telemetry`,
    /// which `Telemetry::dump_events` is.
    #[test]
    fn encoder_matches_the_write_based_reference_on_every_edge() {
        let events = edge_events();
        let want = reference_jsonl(&events);
        assert!(want.len() > WRITE_CHUNK, "the stream must cross a write chunk");
        let longest = want.lines().map(str::len).max().unwrap_or(0);
        assert_eq!(longest + 1, LINE_MAX, "the longest line, newline included, fills a Line");

        let mut lines = String::new();
        for (at, ev) in &events {
            let start = lines.len();
            encode_line(&mut lines, *at, ev);
            let mut one = String::new();
            reference_line(&mut one, *at, ev);
            assert_eq!(lines[start..], one, "{ev:?} at {at}");
            lines.push('\n');
        }
        assert_eq!(lines, want, "encode_line");
        assert_eq!(encode_jsonl(&events), want, "encode_jsonl");

        let mut memory = crate::MemorySink::new();
        let mut recorder = crate::FlightRecorder::new(events.len());
        let mut tail = crate::FlightRecorder::new(100);
        let mut writer = JsonlWriter::new(Vec::new());
        for (at, ev) in &events {
            for sink in [&mut memory as &mut dyn TraceSink, &mut recorder, &mut tail, &mut writer] {
                sink.emit(*at, ev);
            }
        }
        let (written, lines) = writer.finish().expect("writing to a Vec cannot fail");
        assert_eq!(lines, events.len() as u64);
        assert_eq!(String::from_utf8(written).expect("ASCII"), want, "JsonlWriter");
        assert_eq!(memory.to_jsonl(), want, "MemorySink::to_jsonl");
        assert_eq!(recorder.to_jsonl(), want, "FlightRecorder::to_jsonl");
        let last = reference_jsonl(&events[events.len() - 100..]);
        assert_eq!(tail.to_jsonl(), last, "FlightRecorder::to_jsonl of a wrapped ring");

        // The telemetry stream: a series per edge float holding a point at
        // every edge integer, then profile rows of every kind.
        let mut series = Vec::new();
        let mut want_samples = Vec::new();
        for (i, &value) in EDGE_FLOATS.iter().enumerate() {
            let mut s = Series::new(format!("s{i}"), EDGE_INTS.len());
            for at in EDGE_INTS {
                s.push(at, value);
                want_samples.push((at, TraceEvent::Sample { series: i as u32, value }));
            }
            series.push(s);
        }
        for (at, v) in [(0, 0), (9, 99), (u64::MAX, u64::MAX)] {
            let rows: Vec<(ProfKind, u64, u64)> =
                ProfKind::ALL.iter().map(|&kind| (kind, v, at)).collect();
            let mut got = Vec::new();
            encode_telemetry(&mut got, &series, Some((at, &rows)));
            let profile = rows.iter().map(|&(kind, count, total_ns)| {
                (at, TraceEvent::Profile { kind, count, total_ns })
            });
            let all: Vec<(u64, TraceEvent)> = want_samples.iter().copied().chain(profile).collect();
            assert_eq!(String::from_utf8(got).expect("ASCII"), reference_jsonl(&all), "telemetry");
        }
        let mut got = Vec::new();
        encode_telemetry(&mut got, &series, None);
        assert_eq!(String::from_utf8(got).expect("ASCII"), reference_jsonl(&want_samples));

        // The f64 cases print what JSON can carry.
        let mut got = String::new();
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
        assert_eq!(kinds.len(), 26, "SAMPLES must hold each variant once");
    }

    #[test]
    fn jsonl_text_and_writer_produce_the_same_bytes() {
        let events: Vec<(u64, TraceEvent)> =
            SAMPLES.iter().enumerate().map(|(i, ev)| (i as u64 * 1_000, *ev)).collect();
        let text = encode_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.ends_with("}\n"));
        let mut writer = JsonlWriter::new(Vec::new());
        for (at, ev) in &events {
            writer.emit(*at, ev);
        }
        let (written, lines) = writer.finish().expect("writing to a Vec cannot fail");
        assert_eq!((written.as_slice(), lines), (text.as_bytes(), events.len() as u64));
        assert_eq!(encode_jsonl(&Vec::new()), "");
        let empty = JsonlWriter::new(Vec::new()).finish().expect("nothing to write");
        assert_eq!(empty, (Vec::new(), 0));
    }

    /// A writer whose writes fail: the first error is what `finish`
    /// returns, and nothing is written after it.
    #[test]
    fn a_failed_write_is_the_error_finish_returns() {
        /// Takes `room` bytes, then fails every write, counting them.
        #[derive(Debug)]
        struct Full {
            room: usize,
            failed: u32,
        }
        impl std::io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.room == 0 {
                    self.failed += 1;
                    return Err(std::io::Error::other(format!("full, failure {}", self.failed)));
                }
                let n = buf.len().min(self.room);
                self.room -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let ev = TraceEvent::Timer { host: 1, token: 2 };
        // Past the chunk: the failure comes mid-run, from `emit`.
        let mut writer = JsonlWriter::new(Full { room: 100, failed: 0 });
        for at in 0..(3 * WRITE_CHUNK as u64 / 30) {
            writer.emit(at, &ev);
        }
        let err = writer.finish().expect_err("the device is full");
        assert_eq!(err.to_string(), "full, failure 1");
        // Under one chunk: the failure comes from `finish` itself.
        let mut writer = JsonlWriter::new(Full { room: 0, failed: 0 });
        writer.emit(0, &ev);
        assert_eq!(writer.finish().expect_err("the device is full").to_string(), "full, failure 1");
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
