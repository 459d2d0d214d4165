//! Tests of PPT's low-priority loop (LCP) at the end of a flow, as
//! `Window<_, Ppt>` runs it. The loop's logic is in `ppt.rs`; this module
//! holds no code of its own.

#[cfg(test)]
mod tests {
    use crate::hcp::tests::finish_and_poke;
    use crate::{DctcpHcp, Ppt, TcpCfg, Window};
    use netsim::trace::LcpCloseReason;
    use netsim::{Rate, SimDuration, TraceEvent};
    use ppt_core::PptConfig;

    /// A PPT flow big enough that case 1 opens a loop beside the first
    /// window, finished by one low-priority ACK: the loop closes and the
    /// ACK is traced before the flow is retired, a late low-priority ACK
    /// traces what it traced for a done flow, and nothing else the flow
    /// left behind does anything.
    #[test]
    fn a_finished_dual_loop_sender_is_retired_and_late_events_do_what_they_did() {
        let tcp = TcpCfg::new(SimDuration::from_micros(80));
        let ppt = Ppt { cfg: PptConfig::new(Rate::gbps(10), tcp.base_rtt) };
        let [start, fin, late_lcp] =
            finish_and_poke(Window::new(tcp, DctcpHcp, ppt), 200_000, true);
        assert!(start.trace.iter().any(|e| matches!(e, TraceEvent::LcpOpened { .. })));
        let closed = TraceEvent::LcpClosed { flow: 3, reason: LcpCloseReason::FlowDone };
        let acked = TraceEvent::LcpAck { flow: 3, ece: false, sent_new: false };
        assert_eq!(fin.trace, vec![closed, acked]);
        assert_eq!(late_lcp.trace, vec![acked]);
    }
}
