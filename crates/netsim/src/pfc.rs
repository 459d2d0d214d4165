//! PFC backpressure: hop-by-hop pause/resume between a congested switch
//! and its upstream neighbours (DESIGN.md §15). The thresholds are
//! [`crate::switch::PfcConfig`]; this is the engine side — when a port's
//! backlog crosses them, who is told, and what a received frame does.

use dcn_trace::TraceEvent;

use crate::engine::{Ev, Simulator};
use crate::ids::{HostId, NodeId, SwitchId};
use crate::packet::Payload;

impl<P: Payload> Simulator<P> {
    /// Re-evaluate the PFC thresholds of one switch egress port after the
    /// backlog of the priorities in `moved` changed (bit `p` = priority
    /// `p`: the one an enqueue or dequeue touched, or all after a push-out
    /// eviction). On a switch without PFC this is one inlined branch.
    #[inline(always)] // per packet per switch hop, twice
    pub(crate) fn pfc_update(&mut self, switch: SwitchId, pi: usize, moved: u8) {
        if self.switches[switch.0 as usize].cfg.pfc.is_some() {
            self.pfc_reevaluate(switch, pi, moved);
        }
    }

    /// [`Self::pfc_update`] on a PFC switch. Crossing XOFF upward or XON
    /// downward flips the port's `xoff_sent` bit and moves the switch-wide
    /// assertion count; pause/resume frames broadcast only on that count's
    /// 0↔1 edges, to every upstream neighbour in fixed port-index order so
    /// the frame sequence is deterministic. Exact although it skips the
    /// priorities outside `moved` (DESIGN.md §15.1): a priority whose
    /// backlog did not move already satisfies the rule this re-establishes,
    /// bit clear ⇒ backlog < XOFF and bit set ⇒ backlog > XON.
    fn pfc_reevaluate(&mut self, switch: SwitchId, pi: usize, moved: u8) {
        let si = switch.0 as usize;
        let Some(pfc) = self.switches[si].cfg.pfc else { return };
        // Ascending priority, as the full sweep emits.
        let mut todo = moved & pfc.priority_mask;
        while todo != 0 {
            let p = todo.trailing_zeros() as u8;
            todo &= todo - 1;
            let bit = 1u8 << p;
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

#[cfg(test)]
impl<P: Payload> Simulator<P> {
    /// The re-evaluation as it was before it was told which priorities
    /// moved: every governed priority, after every backlog change. The
    /// reference `pfc_update` is held to.
    fn pfc_sweep_reference(&mut self, switch: SwitchId, pi: usize) {
        let si = switch.0 as usize;
        let Some(pfc) = self.switches[si].cfg.pfc else { return };
        for p in 0..crate::packet::NUM_PRIORITIES as u8 {
            let bit = 1u8 << p;
            if pfc.priority_mask & bit == 0 {
                continue;
            }
            let port = &mut self.switches[si].ports[pi];
            let backlog = port.queues.bytes_at(p);
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
}

#[cfg(test)]
mod tests {
    use dcn_trace::{MemorySink, TraceSink};

    use super::*;
    use crate::pool::{Handle, PkRef};
    use crate::{star, NoPayload, Pcg32, PfcConfig, Rate, RunLimits, SimDuration, SwitchConfig};

    const SW: SwitchId = SwitchId(0);

    /// A traced one-switch star whose switch runs PFC at `pfc`.
    fn pfc_star(pfc: PfcConfig) -> Simulator<NoPayload> {
        let cfg = SwitchConfig::basic(1 << 20).with_pfc(pfc);
        let mut sim = star::<NoPayload>(3, Rate::gbps(10), SimDuration::from_micros(1), cfg).sim;
        sim.set_trace_sink(Box::new(MemorySink::new()));
        sim
    }

    fn trace(sim: &mut Simulator<NoPayload>) -> Vec<(u64, TraceEvent)> {
        let sink: Box<dyn TraceSink> = sim.take_trace_sink().expect("installed");
        sink.as_any().downcast_ref::<MemorySink>().expect("a MemorySink").events().to_vec()
    }

    /// One PFC port driven through seeded pushes, pops and push-out
    /// evictions, with thresholds from a tenth of the default 120 KB
    /// buffer to all of it: re-evaluating only the priority that moved
    /// (all eight after an eviction) leaves the XOFF bits and assertion
    /// counts the eight-priority sweep leaves after every step, and emits
    /// the same `PfcXoff` events in the same order, and the same pause
    /// frames.
    #[test]
    fn one_priority_reevaluation_matches_the_eight_priority_sweep_seeded() {
        let mut crossings = 0;
        for (seed, buffer) in [12_000u64, 30_000, 60_000, 120_000].into_iter().enumerate() {
            let mut rng = Pcg32::seed_from_u64(seed as u64);
            let mask = if seed % 2 == 0 { 0xFF } else { 0b1010_0101 };
            let pfc = PfcConfig { priority_mask: mask, ..PfcConfig::for_buffer(buffer) };
            let (mut fast, mut reference) = (pfc_star(pfc), pfc_star(pfc));
            for step in 0..20_000 {
                let prio = rng.gen_index(8) as u8;
                let wire_bytes = 64 + rng.gen_index(1_437) as u32;
                let op = rng.gen_index(10);
                let mut moved = 0;
                for sim in [&mut fast, &mut reference] {
                    let queues = &mut sim.switches[0].ports[0].queues;
                    // Push while the backlog is shallow, drain when deep.
                    let deep = queues.total_bytes() > 3 * buffer / 4;
                    moved = match op {
                        0 => {
                            // Push-out: shed lower priorities, then admit.
                            while queues.evict_lowest_below(prio).is_some() {}
                            queues.push(Handle { pkt: PkRef(0), wire_bytes, priority: prio });
                            u8::MAX
                        }
                        1..=5 if !deep => {
                            queues.push(Handle { pkt: PkRef(0), wire_bytes, priority: prio });
                            1 << prio
                        }
                        _ => queues.pop().map_or(0, |h| 1 << h.priority),
                    };
                }
                fast.pfc_update(SW, 0, moved);
                reference.pfc_sweep_reference(SW, 0);
                let (a, b) = (&fast.switches[0], &reference.switches[0]);
                assert_eq!(a.ports[0].xoff_sent, b.ports[0].xoff_sent, "seed {seed} step {step}");
                assert_eq!(a.pfc_xoff_count, b.pfc_xoff_count, "seed {seed} step {step}");
            }
            // The pause frames: as many, landing in the same order.
            let frames = fast.run(RunLimits::default()).events;
            assert_eq!(frames, reference.run(RunLimits::default()).events, "seed {seed}");
            let events = trace(&mut fast);
            assert_eq!(events, trace(&mut reference), "seed {seed}: PfcXoff order");
            crossings += events.len();
        }
        assert!(crossings > 1_000, "the thresholds must be crossed often: {crossings}");
    }
}
