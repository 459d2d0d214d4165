//! LCP loop lifecycle analysis over trace streams.
//!
//! Reconstructs PPT's tail-loop behaviour from a [`TraceEvent`] stream,
//! live beside a run or over a captured one:
//! when loops opened (case-1 flow start vs case-2 queue buildup), how
//! long they lived and why they closed, whether ECE-marked LCP ACKs were
//! correctly ignored (the LCP never reacts to its own marks), and whether
//! exponential wave damping roughly halved the per-RTT send volume
//! (the Fig 16 invariant).

use std::collections::BTreeMap;

use netsim::trace::{LcpCloseReason, LcpTrigger, TraceEvent, TraceSink};
use netsim::SimDuration;

/// One reconstructed LCP loop lifecycle.
#[derive(Clone, Debug)]
pub struct LcpLoop {
    /// Flow the loop belongs to.
    pub flow: u64,
    /// Why the loop opened.
    pub trigger: LcpTrigger,
    /// Open time, ns.
    pub opened_at: u64,
    /// Close time, ns (`None`: still open when the trace ended).
    pub closed_at: Option<u64>,
    /// Why the loop closed.
    pub close_reason: Option<LcpCloseReason>,
    /// Every LCP data send as `(time_ns, bytes)`.
    pub sends: Vec<(u64, u64)>,
}

impl LcpLoop {
    /// Loop lifetime in ns (0 for loops still open at trace end).
    pub fn duration_ns(&self) -> u64 {
        self.closed_at.map_or(0, |c| c.saturating_sub(self.opened_at))
    }

    /// Bytes sent in each RTT-sized window since the loop opened.
    pub fn rtt_windows(&self, rtt_ns: u64) -> Vec<u64> {
        if rtt_ns == 0 || self.sends.is_empty() {
            return Vec::new();
        }
        let last = self.sends.last().map_or(0, |&(at, _)| at);
        let n = (last.saturating_sub(self.opened_at) / rtt_ns) as usize + 1;
        let mut windows = vec![0u64; n];
        for &(at, bytes) in &self.sends {
            let idx = (at.saturating_sub(self.opened_at) / rtt_ns) as usize;
            windows[idx] += bytes;
        }
        windows
    }
}

/// The loops of one (trigger, close reason) pair and their LCP sends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LcpCell {
    /// Loops that opened on this trigger and closed for this reason.
    pub loops: usize,
    /// `lcp_send` packets those loops sent.
    pub sends: usize,
}

impl LcpCell {
    /// Mean `lcp_send` packets per loop; `None` for an empty cell.
    pub fn mean_sends(&self) -> Option<f64> {
        (self.loops > 0).then(|| self.sends as f64 / self.loops as f64)
    }
}

/// Row and column labels of [`LcpReport::by_cause`].
const LCP_TRIGGERS: [&str; 2] = ["flow-start", "queue-buildup"];
const LCP_CLOSES: [&str; 4] = ["flow-done", "expired", "no-lp-acks", "still open"];

/// Aggregate LCP behaviour over a whole trace.
#[derive(Clone, Debug, Default)]
pub struct LcpReport {
    /// Every reconstructed loop, in open order.
    pub loops: Vec<LcpLoop>,
    /// Loops opened at flow start (case 1).
    pub opened_flow_start: usize,
    /// Loops opened on queue buildup / alpha minimum (case 2).
    pub opened_queue_buildup: usize,
    /// Loops closed because the flow finished.
    pub closed_flow_done: usize,
    /// Loops closed by expiry.
    pub closed_expired: usize,
    /// Loops closed by expiry without a single LP ACK arriving (§3.2:
    /// every low-priority packet — or its ACK — was lost or starved).
    pub closed_no_lp_acks: usize,
    /// Loops still open when the trace ended.
    pub still_open: usize,
    /// Trigger × close reason: rows flow start, queue buildup; columns
    /// flow done, expired, no LP ACKs, still open.
    pub by_cause: [[LcpCell; 4]; 2],
    /// Mean lifetime of closed loops, µs.
    pub mean_duration_us: f64,
    /// Total LCP ACKs seen.
    pub lcp_acks: usize,
    /// ... of which ECE-marked.
    pub ece_acks: usize,
    /// ... of which ECE-marked and ignored (no packet sent in response).
    pub ece_ignored: usize,
    /// Number of consecutive RTT-window pairs with traffic in both.
    pub ewd_ratios: usize,
    /// Mean ratio of bytes sent in window *i+1* vs window *i* (≈ 0.5 with
    /// EWD on, ≈ 0 without a second window at all); 0 when no samples.
    pub ewd_halving_ratio: f64,
}

impl LcpReport {
    /// Fraction of ECE-marked LCP ACKs that triggered no new packet.
    pub fn ece_ignored_fraction(&self) -> f64 {
        if self.ece_acks == 0 {
            0.0
        } else {
            self.ece_ignored as f64 / self.ece_acks as f64
        }
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "LCP loops: {} opened ({} flow-start, {} queue-buildup)\n",
            self.loops.len(),
            self.opened_flow_start,
            self.opened_queue_buildup
        ));
        out.push_str(&format!(
            "  closed: {} flow-done, {} expired, {} no-lp-acks, {} still open\n",
            self.closed_flow_done, self.closed_expired, self.closed_no_lp_acks, self.still_open
        ));
        out.push_str("  loops (mean lcp_send per loop) by trigger x close:\n");
        out.push_str(&format!("    {:<14}", ""));
        for close in LCP_CLOSES {
            out.push_str(&format!(" {close:>16}"));
        }
        out.push('\n');
        for (trigger, row) in LCP_TRIGGERS.iter().zip(&self.by_cause) {
            out.push_str(&format!("    {trigger:<14}"));
            for cell in row {
                let mean = cell.mean_sends().map_or("-".to_string(), |m| format!("{m:.1}"));
                out.push_str(&format!(" {:>16}", format!("{} ({mean})", cell.loops)));
            }
            out.push('\n');
        }
        out.push_str(&format!("  mean loop duration: {:.1} us\n", self.mean_duration_us));
        out.push_str(&format!(
            "  LCP acks: {} ({} ECE-marked, {:.0}% of those ignored)\n",
            self.lcp_acks,
            self.ece_acks,
            self.ece_ignored_fraction() * 100.0
        ));
        out.push_str(&format!(
            "  EWD per-RTT send ratio: {:.2} over {} window pairs\n",
            self.ewd_halving_ratio, self.ewd_ratios
        ));
        out
    }
}

/// Reconstructs every LCP loop lifecycle from the event stream as it
/// arrives: a [`TraceSink`] to run beside any other, or to feed a captured
/// stream ([`analyze_lcp`]). [`LcpFold::finish`] gives the report.
#[derive(Clone, Debug, Default)]
pub struct LcpFold {
    /// The loops and the ACK counts so far.
    report: LcpReport,
    /// Flow → index of its most recent loop (events for a flow always
    /// refer to its latest loop: PPT runs at most one LCP per flow).
    latest: BTreeMap<u64, usize>,
}

impl LcpFold {
    /// The report over every event seen. `rtt` sizes the windows for the
    /// EWD halving-ratio estimate; pass the topology's base RTT.
    pub fn finish(self, rtt: SimDuration) -> LcpReport {
        let (rtt_ns, mut report) = (rtt.as_nanos(), self.report);
        let (mut dur_sum, mut dur_n) = (0u64, 0usize);
        let (mut ratio_sum, mut ratio_n) = (0.0f64, 0usize);
        for l in &report.loops {
            // Rows and columns in the enums' order; a loop still open last.
            let col = l.close_reason.map_or(3, |reason| reason as usize);
            let cell = &mut report.by_cause[l.trigger as usize][col];
            cell.loops += 1;
            cell.sends += l.sends.len();
            if l.closed_at.is_some() {
                dur_sum += l.duration_ns();
                dur_n += 1;
            }
            for pair in l.rtt_windows(rtt_ns).windows(2) {
                if pair[0] > 0 && pair[1] > 0 {
                    ratio_sum += pair[1] as f64 / pair[0] as f64;
                    ratio_n += 1;
                }
            }
        }
        let table = report.by_cause;
        let opened = |row: usize| table[row].iter().map(|c| c.loops).sum();
        let closed = |col: usize| table.iter().map(|r| r[col].loops).sum();
        (report.opened_flow_start, report.opened_queue_buildup) = (opened(0), opened(1));
        (report.closed_flow_done, report.closed_expired) = (closed(0), closed(1));
        (report.closed_no_lp_acks, report.still_open) = (closed(2), closed(3));
        report.mean_duration_us =
            if dur_n == 0 { 0.0 } else { dur_sum as f64 / dur_n as f64 / 1000.0 };
        report.ewd_ratios = ratio_n;
        report.ewd_halving_ratio = if ratio_n == 0 { 0.0 } else { ratio_sum / ratio_n as f64 };
        report
    }
}

impl TraceSink for LcpFold {
    fn emit(&mut self, at: u64, ev: &TraceEvent) {
        let (report, latest) = (&mut self.report, &mut self.latest);
        match *ev {
            TraceEvent::LcpOpened { flow, trigger, .. } => {
                latest.insert(flow, report.loops.len());
                report.loops.push(LcpLoop {
                    flow,
                    trigger,
                    opened_at: at,
                    closed_at: None,
                    close_reason: None,
                    sends: Vec::new(),
                });
            }
            TraceEvent::LcpClosed { flow, reason } => {
                if let Some(l) = latest.get(&flow).map(|&i| &mut report.loops[i]) {
                    if l.closed_at.is_none() {
                        (l.closed_at, l.close_reason) = (Some(at), Some(reason));
                    }
                }
            }
            TraceEvent::LcpSend { flow, len, .. } => {
                if let Some(&i) = latest.get(&flow) {
                    report.loops[i].sends.push((at, len));
                }
            }
            TraceEvent::LcpAck { flow, ece, sent_new } if latest.contains_key(&flow) => {
                report.lcp_acks += 1;
                report.ece_acks += ece as usize;
                report.ece_ignored += (ece && !sent_new) as usize;
            }
            _ => {}
        }
    }
}

/// [`LcpFold`] over a captured `(time_ns, event)` stream.
pub fn analyze_lcp(events: &[(u64, TraceEvent)], rtt: SimDuration) -> LcpReport {
    let mut fold = LcpFold::default();
    events.iter().for_each(|(at, ev)| fold.emit(*at, ev));
    fold.finish(rtt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTT: SimDuration = SimDuration(1_000);

    #[test]
    fn reconstructs_loop_lifecycles() {
        let events = vec![
            (0, TraceEvent::LcpOpened { flow: 1, trigger: LcpTrigger::FlowStart, init_bytes: 8 }),
            (100, TraceEvent::LcpSend { flow: 1, offset: 0, len: 4 }),
            (200, TraceEvent::LcpSend { flow: 1, offset: 4, len: 4 }),
            (1_100, TraceEvent::LcpSend { flow: 1, offset: 8, len: 4 }),
            (1_200, TraceEvent::LcpAck { flow: 1, ece: true, sent_new: false }),
            (2_000, TraceEvent::LcpClosed { flow: 1, reason: LcpCloseReason::FlowDone }),
            (
                5_000,
                TraceEvent::LcpOpened { flow: 2, trigger: LcpTrigger::QueueBuildup, init_bytes: 4 },
            ),
        ];
        let r = analyze_lcp(&events, RTT);
        assert_eq!(r.loops.len(), 2);
        assert_eq!(r.opened_flow_start, 1);
        assert_eq!(r.opened_queue_buildup, 1);
        assert_eq!(r.closed_flow_done, 1);
        assert_eq!(r.still_open, 1);
        assert_eq!(r.lcp_acks, 1);
        assert_eq!(r.ece_acks, 1);
        assert_eq!(r.ece_ignored, 1);
        assert!((r.ece_ignored_fraction() - 1.0).abs() < 1e-12);
        assert!((r.mean_duration_us - 2.0).abs() < 1e-12);
        // Windows: [8, 4] → one pair with ratio 0.5.
        assert_eq!(r.ewd_ratios, 1);
        assert!((r.ewd_halving_ratio - 0.5).abs() < 1e-12);
        // Flow 1: flow start → flow done, three sends; flow 2 still open.
        let mut by_cause = [[LcpCell::default(); 4]; 2];
        by_cause[0][0] = LcpCell { loops: 1, sends: 3 };
        by_cause[1][3] = LcpCell { loops: 1, sends: 0 };
        assert_eq!(r.by_cause, by_cause);
        assert_eq!(r.by_cause[0][0].mean_sends(), Some(3.0));
        assert_eq!(r.by_cause[0][1].mean_sends(), None);
    }

    #[test]
    fn reopened_loop_events_go_to_the_latest_loop() {
        let events = vec![
            (0, TraceEvent::LcpOpened { flow: 7, trigger: LcpTrigger::FlowStart, init_bytes: 4 }),
            (500, TraceEvent::LcpClosed { flow: 7, reason: LcpCloseReason::Expired }),
            (
                1_000,
                TraceEvent::LcpOpened { flow: 7, trigger: LcpTrigger::QueueBuildup, init_bytes: 4 },
            ),
            (1_100, TraceEvent::LcpSend { flow: 7, offset: 0, len: 4 }),
        ];
        let r = analyze_lcp(&events, RTT);
        assert_eq!(r.loops.len(), 2);
        assert_eq!(r.closed_expired, 1);
        assert!(r.loops[0].sends.is_empty());
        assert_eq!(r.loops[1].sends, vec![(1_100, 4)]);
    }

    #[test]
    fn rtt_windows_bucket_by_open_time() {
        let l = LcpLoop {
            flow: 1,
            trigger: LcpTrigger::FlowStart,
            opened_at: 10_000,
            closed_at: None,
            close_reason: None,
            sends: vec![(10_100, 16), (10_900, 8), (12_500, 4)],
        };
        assert_eq!(l.rtt_windows(1_000), vec![24, 0, 4]);
        assert!(l.rtt_windows(0).is_empty());
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let events =
            [(0, TraceEvent::LcpOpened { flow: 1, trigger: LcpTrigger::FlowStart, init_bytes: 8 })];
        let text = analyze_lcp(&events, RTT).render();
        assert!(text.contains("1 opened"));
        assert!(text.contains("1 flow-start"));
        assert!(text.contains("still open"));
    }
}
