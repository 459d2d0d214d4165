#![forbid(unsafe_code)]
//! # dcn-stats — flow-completion-time and network statistics
//!
//! Small, allocation-light helpers that turn raw simulator output
//! (completions, link samples, port counters) into the numbers the paper
//! reports: overall average FCT, average/99th-percentile FCT of small
//! flows, average FCT of large flows, normalized link utilization, buffer
//! occupancy shares and transfer efficiency.

pub mod fct;
pub mod lcp;
pub mod recovery;
pub mod series;
pub mod telemetry;

pub use fct::{FctRecord, FctStats, FctSummary, SMALL_FLOW_MAX_BYTES};
pub use lcp::{analyze_lcp, LcpCell, LcpLoop, LcpReport};
pub use recovery::{analyze_recovery, OutageWindow, RecoveryReport};
pub use series::{
    jain_index, mean_utilization, occupancy_split, utilization_series, OccupancySplit,
    UtilizationPoint,
};
pub use telemetry::{analyze_all, analyze_series, SeriesAnalysis, OSC_THRESHOLD};
