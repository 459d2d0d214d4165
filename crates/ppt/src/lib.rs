#![forbid(unsafe_code)]
//! # ppt — PPT: A Pragmatic Transport for Datacenters
//!
//! A from-scratch Rust reproduction of *PPT: A Pragmatic Transport for
//! Datacenters* (SIGCOMM '24): the dual-loop rate control and
//! buffer-aware flow scheduling algorithms, every baseline the paper
//! compares against (DCTCP, RC3, PIAS, Homa, Aeolus, NDP, HPCC, a
//! Swift-like delay CC), a deterministic packet-level datacenter network
//! simulator to run them on, the paper's workloads, and an experiment
//! harness that regenerates every table and figure of the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use ppt::harness::{run_experiment, Experiment, Scheme, TopoKind};
//! use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};
//!
//! let topo = TopoKind::Star { n: 4, rate_gbps: 10, delay_us: 20 };
//! let spec = WorkloadSpec::new(
//!     SizeDistribution::web_search(), 0.5, topo.edge_rate(), 50, 42,
//! );
//! let flows = all_to_all(topo.hosts(), &spec);
//! let outcome = run_experiment(&Experiment::new(topo, Scheme::Ppt, flows));
//! assert!(outcome.completion_ratio > 0.99);
//! println!("overall avg FCT: {:.1}us", outcome.fct.overall_avg_us());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | `core` (re-exported as `ppt_core`) | the paper's algorithms as a pure library |
//! | [`netsim`] | the discrete-event network simulator substrate |
//! | [`transports`] | PPT + every baseline as simulator endpoints |
//! | [`workloads`] | flow-size CDFs, Poisson arrivals, traffic patterns |
//! | `stats` (re-exported as `dcn_stats`) | FCT / utilization / occupancy statistics |
//! | [`figures`] | every paper table & figure as one table, run by `pptlab figure` |
//! | [`spec`] | the run grammar: the scheme, topology and workload tables, options → `Experiment`s |

pub mod figures;
pub mod harness;
pub mod spec;
pub mod sweep;
pub mod table1;

pub use dcn_stats as stats;
pub use netsim;
pub use netsim::trace;
pub use ppt_core as core;
pub use transports;
pub use workloads;

pub use harness::{
    collect_metrics, run_experiment, run_experiment_traced, run_experiment_with, Experiment,
    InstallError, Outcome, Scheme, SchemeEnv, TelemetrySpec, TelemetrySummary, TopoKind, TraceData,
};
pub use sweep::{run_points, PointResult, SweepPoint, SweepSpec};
