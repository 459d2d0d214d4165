#![forbid(unsafe_code)]
//! # ppt-core — the PPT paper's algorithms as a pure library
//!
//! This crate implements the primary contribution of *PPT: A Pragmatic
//! Transport for Datacenters* (SIGCOMM '24) as simulator-independent
//! state machines and pure functions:
//!
//! * [`alpha`] — the DCTCP congestion estimator α (Eq. 1) and the
//!   sliding-window minimum detector that triggers LCP loops;
//! * [`lcp`] — intermittent loop initialization (§3.1, Eq. 2) and the
//!   exponential-window-decreasing ACK clock (§3.2);
//! * [`ecn`] — the marking-threshold rule K = λ·C·RTT (Eq. 3) with the
//!   paper's λ values for the high- and low-priority queue groups;
//! * [`scheduling`] — buffer-aware large-flow identification (§4.1) and
//!   mirror-symmetric packet tagging (§4.2);
//! * [`wmax`] — maximum-window tracking restricted to the
//!   congestion-avoidance phase (§2.3, footnote 3);
//! * [`config`] — PPT's environment and the five knobs the paper varies
//!   ([`PptKnobs`]: Fig 3's fill and the ablations of §6.3).
//!
//! The `transports` crate wires these pieces into a full sender/receiver
//! on the `netsim` simulator; everything here is also directly usable by
//! anyone embedding the algorithms elsewhere (e.g. a userspace stack).

pub mod alpha;
pub mod config;
pub mod ecn;
pub mod lcp;
pub mod scheduling;
pub mod wmax;

pub use alpha::{AlphaEstimator, MinTracker, DEFAULT_G, DEFAULT_MIN_WINDOW};
pub use config::{PptConfig, PptKnobs};
pub use ecn::{marking_threshold_bytes, ppt_thresholds, LAMBDA_HIGH, LAMBDA_LOW};
pub use lcp::{
    initial_window_case1, initial_window_case2, LcpAckClock, LcpAction, LcpLoop,
    LCP_PACKETS_PER_ACK, LOOP_EXPIRY_RTTS,
};
pub use scheduling::{
    FlowIdentifier, MirrorTagger, DEFAULT_DEMOTION_THRESHOLDS, DEFAULT_IDENT_THRESHOLD_BYTES,
};
pub use wmax::WmaxTracker;
