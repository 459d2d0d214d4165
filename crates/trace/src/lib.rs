#![forbid(unsafe_code)]
//! # dcn-trace — flight-recorder tracing and metrics
//!
//! A zero-dependency observability layer for the simulator and the
//! transports. Three pieces:
//!
//! - **[`TraceEvent`]**: a typed, `Copy` event stream covering engine-level
//!   happenings (flow start/complete, enqueue/dequeue/drop, ECN mark,
//!   timer, retransmit) and protocol-level ones (LCP loop lifecycle, EWD
//!   ACKs, alpha/cwnd updates, PIAS demotions). Events are plain integers
//!   and bools — constructing one never allocates, so the disabled path
//!   costs a single branch.
//! - **[`TraceSink`]**: where events go. [`MemorySink`] keeps everything
//!   (tests, analyzers, `pptlab trace`), and [`FlightRecorder`] is a
//!   bounded ring that keeps only the last N events for post-mortem dumps
//!   on abnormal runs. Text is made from the typed events afterwards, by
//!   [`encode_jsonl`] or streamed by [`write_jsonl`].
//! - **[`MetricsRegistry`]**: BTreeMap-keyed counters and gauges with a
//!   hand-rolled, deterministically ordered JSON snapshot. No serde; the
//!   workspace stays offline.
//! - **[`Series`] / [`LogHistogram`]**: continuous-telemetry containers —
//!   a bounded ring time series and an HDR-style log-bucket histogram —
//!   filled by the engine's deterministic interval sampler (DESIGN.md §14).
//!
//! Determinism contract: every event field is derived from simulated state,
//! and every serialization iterates in `BTreeMap`/insertion order, so the
//! same seed produces byte-identical `events.jsonl` and `metrics.json`.

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod telemetry;

pub use event::{
    encode_jsonl, encode_line, encode_telemetry, write_jsonl, LcpCloseReason, LcpTrigger, ProfKind,
    SanCheck, TraceEvent,
};
pub use json::JsonObject;
pub use metrics::MetricsRegistry;
pub use sink::{FlightRecorder, MemorySink, TraceSink};
pub use telemetry::{LogHistogram, Series, SeriesPoint};
