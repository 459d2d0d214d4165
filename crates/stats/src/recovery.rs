//! Recovery statistics for fault-injection runs.
//!
//! Reconstructs link-outage windows from the engine's `LinkDown` /
//! `LinkUp` trace events, live beside a run or over a captured stream,
//! attributes injected `FaultDrop`s to them, and measures how long each
//! recovery took: the delay from a link coming back up to the first sign
//! of forward progress (a retransmission or a flow completion) afterwards.
//!
//! The engine-side totals a trace cannot carry (goodput delivered while
//! faults were active, the longest switch stall) come straight from the
//! engine's [`FaultReport`] — pass `outcome.report.faults`, or
//! `FaultReport::default()` when analyzing a bare trace.

use std::collections::BTreeMap;

use netsim::trace::{TraceEvent, TraceSink};
use netsim::FaultReport;

/// One `LinkDown` → `LinkUp` window of a single link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutageWindow {
    /// Link id (engine order).
    pub link: u32,
    /// When the link went down, ns.
    pub from_ns: u64,
    /// When it came back up; `None` when the trace ended mid-outage.
    pub until_ns: Option<u64>,
    /// Injected drops charged to this link while it was down.
    pub drops: u64,
}

impl OutageWindow {
    /// Outage duration, ns (0 while still open).
    pub fn duration_ns(&self) -> u64 {
        self.until_ns.map_or(0, |u| u.saturating_sub(self.from_ns))
    }
}

/// Aggregate recovery behaviour over a fault-injection run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Every reconstructed outage, in down order.
    pub outages: Vec<OutageWindow>,
    /// Total injected drops seen in the trace.
    pub fault_drops: u64,
    /// ... total bytes of those packets.
    pub fault_dropped_bytes: u64,
    /// ... of which were control packets (zero payload bytes).
    pub ctrl_drops: u64,
    /// Retransmit events seen in the trace.
    pub retransmits: u64,
    /// Per closed outage, in down order: delay from `LinkUp` to the first
    /// retransmission or flow completion at/after it (outages with no later
    /// activity are skipped).
    pub recovery_times_ns: Vec<u64>,
    /// Engine totals, when the caller supplied them.
    pub engine: FaultReport,
}

impl RecoveryReport {
    /// Sum of all closed outage windows, ns.
    pub fn total_outage_ns(&self) -> u64 {
        self.outages.iter().map(|o| o.duration_ns()).sum()
    }

    /// Slowest measured recovery, µs (0 with no samples).
    pub fn max_recovery_us(&self) -> f64 {
        self.recovery_times_ns.iter().copied().max().unwrap_or(0) as f64 / 1_000.0
    }

    /// Mean measured recovery, µs (0 with no samples).
    pub fn mean_recovery_us(&self) -> f64 {
        if self.recovery_times_ns.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.recovery_times_ns.iter().sum();
        sum as f64 / self.recovery_times_ns.len() as f64 / 1_000.0
    }

    /// Goodput sustained while faults were active, Gbps, using the closed
    /// outage windows as the degraded interval (0 when none closed).
    pub fn degraded_goodput_gbps(&self) -> f64 {
        let ns = self.total_outage_ns();
        if ns == 0 {
            return 0.0;
        }
        self.engine.goodput_during_fault_bytes as f64 * 8.0 / ns as f64
    }

    /// Multi-line human-readable summary. Retransmissions are the engine's
    /// count: receiver-driven schemes trace no `retransmit` line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "faults: {} outages ({} ns down), {} injected drops ({} ctrl, {} bytes)\n",
            self.outages.len(),
            self.total_outage_ns(),
            self.fault_drops,
            self.ctrl_drops,
            self.fault_dropped_bytes,
        ));
        out.push_str(&format!(
            "  recovery: {} retransmits, mean {:.1} us, worst {:.1} us over {} samples\n",
            self.engine.retransmits,
            self.mean_recovery_us(),
            self.max_recovery_us(),
            self.recovery_times_ns.len(),
        ));
        out.push_str(&format!(
            "  degraded: {:.3} Gbps goodput during faults, max stall {} ns\n",
            self.degraded_goodput_gbps(),
            self.engine.max_stall.as_nanos(),
        ));
        out
    }
}

/// Reconstructs outage windows and recovery times from the event stream
/// as it arrives, in one pass: a [`TraceSink`] to run beside any other, or
/// to feed a captured stream ([`analyze_recovery`]). The stream is in time
/// order, as the engine emits it. [`RecoveryFold::finish`] gives the
/// report.
#[derive(Clone, Debug, Default)]
pub struct RecoveryFold {
    report: RecoveryReport,
    /// Per outage, the recovery delay once measured.
    recovery: Vec<Option<u64>>,
    /// Link → index of its currently-open outage.
    open: BTreeMap<u32, usize>,
    /// Closed outages, by index and link-up time, still waiting for their
    /// first forward progress.
    waiting: Vec<(usize, u64)>,
    /// When the last forward progress was seen.
    last_progress: Option<u64>,
}

impl RecoveryFold {
    /// The report over every event seen. Pass the engine's [`FaultReport`]
    /// to fill in the goodput/stall numbers a trace cannot carry;
    /// `FaultReport::default()` leaves them zero.
    pub fn finish(self, engine: FaultReport) -> RecoveryReport {
        let recovery_times_ns = self.recovery.into_iter().flatten().collect();
        RecoveryReport { engine, recovery_times_ns, ..self.report }
    }

    /// Forward progress at `at`: every outage waiting for it has recovered.
    fn progress(&mut self, at: u64) {
        self.last_progress = Some(at);
        for (i, up) in self.waiting.drain(..) {
            self.recovery[i] = Some(at.saturating_sub(up));
        }
    }
}

impl TraceSink for RecoveryFold {
    fn emit(&mut self, at: u64, ev: &TraceEvent) {
        let report = &mut self.report;
        match *ev {
            TraceEvent::LinkDown { link } => {
                self.open.insert(link, report.outages.len());
                report.outages.push(OutageWindow { link, from_ns: at, until_ns: None, drops: 0 });
                self.recovery.push(None);
            }
            TraceEvent::LinkUp { link } => {
                if let Some(i) = self.open.remove(&link) {
                    report.outages[i].until_ns = Some(at);
                    self.waiting.push((i, at));
                    // Progress stamped at this very nanosecond may have
                    // been emitted before the link-up: it counts, as 0.
                    if self.last_progress == Some(at) {
                        self.progress(at);
                    }
                }
            }
            TraceEvent::FaultDrop { link, bytes, .. } => {
                report.fault_drops += 1;
                report.fault_dropped_bytes += bytes;
                if bytes == 0 {
                    report.ctrl_drops += 1;
                }
                if let Some(&i) = self.open.get(&link) {
                    report.outages[i].drops += 1;
                }
            }
            TraceEvent::Retransmit { .. } => {
                report.retransmits += 1;
                self.progress(at);
            }
            TraceEvent::FlowComplete { .. } => self.progress(at),
            _ => {}
        }
    }
}

/// [`RecoveryFold`] over a captured `(time_ns, event)` stream.
pub fn analyze_recovery(events: &[(u64, TraceEvent)], engine: FaultReport) -> RecoveryReport {
    let mut fold = RecoveryFold::default();
    events.iter().for_each(|(at, ev)| fold.emit(*at, ev));
    fold.finish(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn down(at: u64, link: u32) -> (u64, TraceEvent) {
        (at, TraceEvent::LinkDown { link })
    }
    fn up(at: u64, link: u32) -> (u64, TraceEvent) {
        (at, TraceEvent::LinkUp { link })
    }
    fn fault_drop(at: u64, link: u32, bytes: u64) -> (u64, TraceEvent) {
        (at, TraceEvent::FaultDrop { link, flow: 0, prio: 0, bytes })
    }

    #[test]
    fn outage_windows_pair_and_attribute_drops() {
        let events = vec![
            down(1_000, 3),
            fault_drop(1_500, 3, 1460),
            fault_drop(2_000, 3, 0),
            up(5_000, 3),
            fault_drop(6_000, 7, 1460), // random loss on a healthy link
            (7_000, TraceEvent::Retransmit { flow: 1, offset: 0, len: 1460 }),
        ];
        let r = analyze_recovery(&events, FaultReport::default());
        assert_eq!(r.outages.len(), 1);
        let o = r.outages[0];
        assert_eq!((o.link, o.from_ns, o.until_ns, o.drops), (3, 1_000, Some(5_000), 2));
        assert_eq!(o.duration_ns(), 4_000);
        assert_eq!((r.fault_drops, r.ctrl_drops, r.fault_dropped_bytes), (3, 1, 2_920));
        assert_eq!(r.retransmits, 1);
        assert_eq!(r.recovery_times_ns, vec![2_000], "retransmit at 7000 - up at 5000");
    }

    /// Progress stamped at the link-up's own nanosecond counts as a
    /// recovery of 0 even when its line comes before the `link_up` line,
    /// as the whole-stream scan this fold replaced counted it.
    #[test]
    fn progress_at_the_link_up_nanosecond_is_a_recovery_of_zero() {
        let retransmit = TraceEvent::Retransmit { flow: 1, offset: 0, len: 1460 };
        let events = vec![down(1_000, 3), (5_000, retransmit), up(5_000, 3)];
        let r = analyze_recovery(&events, FaultReport::default());
        assert_eq!(r.recovery_times_ns, vec![0]);
        // Progress before that nanosecond is not a recovery.
        let events = vec![down(1_000, 3), (4_999, retransmit), up(5_000, 3)];
        assert!(analyze_recovery(&events, FaultReport::default()).recovery_times_ns.is_empty());
    }

    /// Outages whose links come back out of down order keep down order in
    /// `recovery_times_ns`, each measured from its own link-up to the first
    /// progress at or after it.
    #[test]
    fn recoveries_stay_in_down_order_when_links_come_back_out_of_it() {
        let done = |at: u64, flow: u64| (at, TraceEvent::FlowComplete { flow });
        let events = vec![
            down(100, 1),
            down(200, 2),
            up(300, 2),
            done(350, 0),
            up(400, 1),
            done(450, 1),
            down(500, 3),
            up(600, 3),
        ];
        let r = analyze_recovery(&events, FaultReport::default());
        let links: Vec<u32> = r.outages.iter().map(|o| o.link).collect();
        assert_eq!(links, vec![1, 2, 3]);
        assert_eq!(r.recovery_times_ns, vec![50, 50], "link 1: 450 - 400, link 2: 350 - 300");
    }

    #[test]
    fn open_outages_and_degraded_goodput() {
        let events = vec![down(0, 1), up(1_000_000, 1), down(2_000_000, 1)];
        let engine = FaultReport {
            goodput_during_fault_bytes: 125_000, // 1 Mb over the 1 ms closed window
            max_stall: netsim::SimDuration::from_nanos(42),
            retransmits: 7,
            ..FaultReport::default()
        };
        let r = analyze_recovery(&events, engine);
        assert_eq!(r.outages.len(), 2);
        assert_eq!(r.outages[1].until_ns, None, "trace ended mid-outage");
        assert_eq!(r.total_outage_ns(), 1_000_000);
        assert!((r.degraded_goodput_gbps() - 1.0).abs() < 1e-9);
        assert!(r.recovery_times_ns.is_empty(), "no progress events in the trace");
        let text = r.render();
        assert!(text.contains("2 outages") && text.contains("max stall 42 ns"), "{text}");
        assert!(text.contains("recovery: 7 retransmits"), "the engine's count: {text}");
    }
}
