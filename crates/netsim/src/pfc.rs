//! PFC backpressure: hop-by-hop pause/resume between a congested switch
//! and the one neighbour whose bytes fill it (DESIGN.md §15). The
//! thresholds are [`crate::switch::PfcConfig`]; this is the engine side —
//! what each ingress port has queued, when it crosses them, and what a
//! received frame does.

use dcn_trace::TraceEvent;

use crate::engine::{Ev, Simulator};
use crate::ids::{HostId, NodeId, SwitchId};
use crate::packet::Payload;

impl<P: Payload> Simulator<P> {
    /// Book `bytes` of priority `prio` into (`admitted`) or out of the
    /// account of the port they came in through, `ingress`, and re-evaluate
    /// that one account. On a switch without PFC this is one inlined branch.
    #[inline(always)] // per packet per switch hop, twice
    pub(crate) fn pfc_update(
        &mut self,
        switch: SwitchId,
        ingress: u16,
        prio: u8,
        bytes: u64,
        admitted: bool,
    ) {
        if self.switches[switch.0 as usize].cfg.pfc.is_some() {
            self.pfc_reevaluate(switch, ingress, prio, bytes, admitted);
        }
    }

    /// [`Self::pfc_update`] on a PFC switch. Crossing XOFF upward or XON
    /// downward flips the ingress port's `xoff_sent` bit and sends one
    /// frame back along that port's link, to the neighbour that sent the
    /// bytes; inside the hysteresis band nothing moves. Exact although it
    /// looks at one account: no other account moved.
    fn pfc_reevaluate(
        &mut self,
        switch: SwitchId,
        ingress: u16,
        prio: u8,
        bytes: u64,
        admitted: bool,
    ) {
        let sw = &mut self.switches[switch.0 as usize];
        let Some(pfc) = sw.cfg.pfc else { return };
        let port = &mut sw.ports[ingress as usize];
        let account = &mut port.ingress_bytes[prio as usize];
        if admitted {
            *account += bytes;
        } else {
            *account -= bytes;
        }
        let backlog = *account;
        let bit = 1u8 << prio;
        let on = port.xoff_sent & bit == 0;
        if (on && backlog < pfc.xoff_bytes) || (!on && backlog > pfc.xon_bytes) {
            return;
        }
        port.xoff_sent ^= bit;
        // The frame rides the reverse direction of the ingress cable with
        // pure propagation delay: MAC control frames bypass egress queues
        // and serialization, so a pause still gets through a congested
        // forward path.
        let link = &self.links[port.link.0 as usize];
        let frame = Ev::Pfc { to: link.to, port: link.to_port, prio, xoff: on };
        let at = self.now + link.delay;
        self.emit(TraceEvent::PfcXoff { sw: switch.0, port: ingress, prio, qlen: backlog, on });
        self.pfc_frames_in_flight += 1;
        self.schedule(at, frame);
    }

    /// Apply a received pause/resume frame at egress port `port` of the
    /// neighbour `to`, and on resume kick the transmitter if backlog was
    /// left waiting behind the pause.
    pub(crate) fn apply_pfc(&mut self, to: NodeId, port: u16, prio: u8, xoff: bool) {
        self.pfc_frames_in_flight -= 1;
        let bit = 1u8 << prio;
        let slot = self.port_mut(to, port);
        let was = slot.paused_mask & bit != 0;
        if xoff {
            slot.paused_mask |= bit;
        } else {
            slot.paused_mask &= !bit;
        }
        if was != xoff {
            self.emit(match to {
                NodeId::Host(h) => TraceEvent::PfcPause { host: h.0, prio, on: xoff },
                NodeId::Switch(s) => TraceEvent::PfcSwPause { sw: s.0, port, prio, on: xoff },
            });
        }
        if !xoff {
            self.kick(to, port);
        }
    }

    /// The lossless fabric has wedged: nothing is on a wire, no pause
    /// frame is in flight, no transmitter is busy, and backlog remains,
    /// all of it at priorities its port is paused on. Only a dequeue sends
    /// a resume, and no port can dequeue, so nothing will move that backlog
    /// again: what the hosts send later can only join it or pass it by.
    /// Read-only: a
    /// port whose unpushed `TxDone` lies behind the dispatch point counts
    /// as idle, as [`Self::settle`] would leave it. One branch on a fabric
    /// without PFC.
    #[inline]
    pub(crate) fn pfc_deadlocked(&self) -> bool {
        if !self.pfc_fabric || self.pfc_frames_in_flight != 0 || self.effects.pool.stats().live != 0
        {
            return false;
        }
        let reached = (self.now, self.cur_seq);
        let nics = self.hosts.iter().filter_map(|h| h.nic.as_ref());
        let mut backlog = false;
        for port in nics.chain(self.switches.iter().flat_map(|sw| &sw.ports)) {
            let busy = port.busy && port.unpushed_tx_done.is_none_or(|key| key >= reached);
            if busy || port.queues.occupied() & !port.paused_mask != 0 {
                return false;
            }
            backlog |= !port.queues.is_empty();
        }
        backlog
    }

    /// PFC receive state of a host NIC (bit `p` set = priority `p` paused).
    pub fn host_paused_mask(&self, host: HostId) -> u8 {
        self.hosts[host.0 as usize].nic.as_ref().map_or(0, |nic| nic.paused_mask)
    }

    /// PFC receive state of a switch egress port.
    pub fn switch_port_paused_mask(&self, switch: SwitchId, port: u16) -> u8 {
        self.port(NodeId::Switch(switch), port).paused_mask
    }
}
