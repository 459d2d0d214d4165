//! What bounds a run and what it returns: [`RunLimits`] in,
//! [`RunReport`] out of [`crate::Simulator::run`].

use crate::faults::FaultReport;
use crate::time::SimTime;

/// Run limits: the simulation stops at whichever comes first. There is no
/// default: every run states both bounds.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Hard stop time.
    pub max_time: SimTime,
    /// Hard event budget (guards against livelock bugs), in dispatched
    /// events — see [`RunReport::events`].
    pub max_events: u64,
}

/// Why [`crate::Simulator::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained: no further progress is possible. (Flows may
    /// still be incomplete if the transport gave up on them.)
    AllFlowsDone,
    /// The `max_time` limit was reached; pending events were kept.
    MaxTime,
    /// The `max_events` budget was exhausted mid-run.
    MaxEvents,
    /// The sanitizer detected an invariant violation (see
    /// [`crate::Simulator::set_sanitizer`] and
    /// [`crate::Simulator::san_violations`]).
    SanViolation,
    /// The lossless fabric wedged (DESIGN.md §15.1): nothing was on a
    /// wire, no pause frame was in flight, no transmitter was busy, and
    /// backlog remained, all of it behind a PFC pause. No event can move
    /// it again, so the run stopped at the timer dispatch or queue drain
    /// that found it so.
    Deadlock,
}

impl StopReason {
    /// Stable snake_case tag (used in JSON output and warnings).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::AllFlowsDone => "all_flows_done",
            StopReason::MaxTime => "max_time",
            StopReason::MaxEvents => "max_events",
            StopReason::SanViolation => "san_violation",
            StopReason::Deadlock => "deadlock",
        }
    }
}

/// Summary of a completed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Events dispatched. Only events that do work are ever scheduled
    /// (DESIGN.md §10.1): a serialization whose `TxDone` would have found
    /// its egress queue empty, and an RTO deadline that merely moved, add
    /// nothing to this count.
    pub events: u64,
    /// Flows that reported completion.
    pub flows_completed: usize,
    /// Total flows registered.
    pub flows_total: usize,
    /// Which limit (if any) stopped the run.
    pub stop: StopReason,
    /// Fault-layer recovery statistics.
    pub faults: FaultReport,
}

impl RunReport {
    /// A run is abnormal when a limit tripped or flows were left hanging —
    /// the condition that triggers the harness's flight-recorder dump.
    pub fn is_abnormal(&self) -> bool {
        self.stop != StopReason::AllFlowsDone || self.flows_completed < self.flows_total
    }
}
