//! PFC backpressure: hop-by-hop pause/resume between a congested switch
//! and its upstream neighbours (DESIGN.md §15). The thresholds are
//! [`crate::switch::PfcConfig`]; this is the engine side — when a port's
//! backlog crosses them, who is told, and what a received frame does.

use dcn_trace::TraceEvent;

use crate::engine::{Ev, Simulator};
use crate::ids::{HostId, NodeId, SwitchId};
use crate::packet::{Payload, NUM_PRIORITIES};

impl<P: Payload> Simulator<P> {
    /// Re-evaluate the PFC thresholds of one switch egress port after its
    /// backlog changed (any enqueue, dequeue or eviction). Crossing XOFF
    /// upward or XON downward flips the port's `xoff_sent` bit and moves
    /// the switch-wide assertion count; pause/resume frames broadcast only
    /// on that count's 0↔1 edges, to every upstream neighbour in fixed
    /// port-index order so the frame sequence is deterministic.
    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn pfc_update(&mut self, switch: SwitchId, pi: usize) {
        let si = switch.0 as usize;
        let Some(pfc) = self.switches[si].cfg.pfc else { return };
        for p in 0..NUM_PRIORITIES as u8 {
            let bit = 1u8 << p;
            if pfc.priority_mask & bit == 0 {
                continue;
            }
            let port = &mut self.switches[si].ports[pi];
            let backlog = port.queues.bytes_at(p);
            // Assert on reaching XOFF, release on falling to XON; inside
            // the hysteresis band nothing moves.
            let on = port.xoff_sent & bit == 0;
            if (on && backlog < pfc.xoff_bytes) || (!on && backlog > pfc.xon_bytes) {
                continue;
            }
            port.xoff_sent ^= bit;
            let count = &mut self.switches[si].pfc_xoff_count[p as usize];
            let edge = if on {
                *count += 1;
                *count == 1
            } else {
                *count -= 1;
                *count == 0
            };
            self.emit(TraceEvent::PfcXoff {
                sw: switch.0,
                port: pi as u16,
                prio: p,
                qlen: backlog,
                on,
            });
            if edge {
                self.pfc_broadcast(switch, p, on);
            }
        }
    }

    /// Send a pause (`xoff`) or resume frame for `prio` from `switch` to
    /// every neighbour. The frame rides the reverse direction of each
    /// attached full-duplex link with pure propagation delay: MAC control
    /// frames bypass egress queues and serialization entirely, which also
    /// means a pause still reaches neighbours whose forward path is
    /// congested.
    fn pfc_broadcast(&mut self, switch: SwitchId, prio: u8, xoff: bool) {
        let si = switch.0 as usize;
        for pi in 0..self.switches[si].ports.len() {
            let link = self.switches[si].ports[pi].link;
            let l = &self.links[link.0 as usize];
            let (to, delay) = (l.to, l.delay);
            self.schedule(self.now + delay, Ev::Pfc { to, origin: switch, prio, xoff });
        }
    }

    /// Apply a received pause/resume frame at the neighbour: set or clear
    /// the paused bit on the egress port facing `origin`, and on resume
    /// kick the transmitter if backlog was left waiting behind the pause.
    pub(crate) fn apply_pfc(&mut self, to: NodeId, origin: SwitchId, prio: u8, xoff: bool) {
        let bit = 1u8 << prio;
        // The egress port whose link faces the congested switch is the
        // one that must stop serving the paused priority; a host has
        // only its NIC.
        let pi = match to {
            NodeId::Host(_) => 0,
            NodeId::Switch(s) => match self.switch_port_towards(s, NodeId::Switch(origin)) {
                Some(pi) => pi,
                None => return,
            },
        };
        let port = self.port_mut(to, pi);
        let was = port.paused_mask & bit != 0;
        if xoff {
            port.paused_mask |= bit;
        } else {
            port.paused_mask &= !bit;
        }
        if was != xoff {
            self.emit(match to {
                NodeId::Host(h) => TraceEvent::PfcPause { host: h.0, prio, on: xoff },
                NodeId::Switch(s) => TraceEvent::PfcSwPause { sw: s.0, port: pi, prio, on: xoff },
            });
        }
        if !xoff {
            self.kick(to, pi);
        }
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
