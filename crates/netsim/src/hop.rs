//! The hop: what one packet does at one egress port (DESIGN.md §10).
//!
//! A packet enters the pool once, when its sender's `Ctx::send` writes it
//! there, and every later step — NIC queue, wire, switch admission, switch
//! queue, wire again — passes its 4-byte [`PkRef`]. A switch reads and
//! writes the pooled [`crate::packet::PacketMeta`] in place and reaches the
//! payload only through `on_switch_hop`, for a packet that asked for hop
//! telemetry. The slot is given back at exactly one of: delivery to a host
//! (`dispatch`), a tail / range-cap / trimmed-header drop or a push-out
//! eviction (`switch_forward`, traced as `drop` / `evict`), a fault loss
//! (`transmit`).
//!
//! An idle port stores nothing: when the port is not busy, its bank is
//! empty and nothing pauses or stalls it, an admitted packet goes from
//! admission straight to `transmit` — with every observation the stored
//! path would have made (push, `Enqueue`, mark, pop, `Dequeue`, a zero
//! queueing-delay sample), in the same order.

use dcn_trace::TraceEvent;

use crate::engine::{Ev, Simulator};
use crate::ids::{HostId, NodeId, SwitchId};
use crate::packet::{HopTelemetry, Payload, TRIMMED_BYTES};
use crate::pool::{Handle, PkRef};
use crate::sanitizer::{host_port_key, switch_port_key};
use crate::switch::{admit, EnqueueOutcome, MarkScope};

// simlint: hot-path
impl<P: Payload> Simulator<P> {
    /// Hand a packet its sender has just written into the pool to the
    /// host's NIC, and kick the transmitter if idle.
    pub(crate) fn host_enqueue(&mut self, host: HostId, pkt: PkRef) {
        let meta = self.effects.pool.meta_mut(pkt);
        meta.enq_at = self.now;
        let (wire_bytes, priority) = (meta.wire_bytes, meta.priority);
        if let Some(s) = self.san.as_mut() {
            s.observe_queue_push(host_port_key(host.0), wire_bytes as u64);
        }
        let node = NodeId::Host(host);
        self.settle(node, 0);
        let nic = self.port_mut(node, 0);
        if nic.idle_for(priority) {
            self.transmit(node, 0, pkt);
        } else {
            nic.queues.push(Handle { pkt, wire_bytes, priority });
            if nic.busy {
                self.push_tx_done(node, 0);
            } else {
                self.start_tx(node, 0);
            }
        }
    }

    /// Route + admission at a switch, kicking the egress transmitter.
    pub(crate) fn switch_forward(&mut self, switch: SwitchId, pkt: PkRef) {
        let si = switch.0 as usize;
        let sw = &self.switches[si];
        assert!(
            sw.route_offsets.len() > 1,
            "switch {switch:?} has no route table (did you call build_routes?)"
        );
        let mut meta = *self.effects.pool.meta(pkt);
        let d = meta.dst.0 as usize;
        let (lo, hi) = (sw.route_offsets[d] as usize, sw.route_offsets[d + 1] as usize);
        let candidates = &sw.route_ports[lo..hi];
        assert!(
            !candidates.is_empty(),
            "switch {switch:?} has no route to {:?} (did you call build_routes?)",
            meta.dst
        );
        // A lone candidate needs no hash and no 64-bit division.
        let pi = match *candidates {
            [only] => only,
            _ => candidates[(meta.flow.path_hash() % candidates.len() as u64) as usize],
        } as usize;
        if meta.hop_telemetry {
            // INT telemetry observes the egress port state before enqueue.
            let port = &sw.ports[pi];
            let link = &self.links[port.link.0 as usize];
            let hop = HopTelemetry {
                qlen_bytes: port.queues.total_bytes(),
                qlen_high_bytes: port.queues.bytes_in_range(0..4),
                tx_bytes: link.tx_bytes,
                tx_high_bytes: link.tx_high_bytes,
                ts: self.now,
                link_rate: link.rate,
            };
            self.effects.pool.payload_mut(pkt).on_switch_hop(hop);
        }
        meta.enq_at = self.now;
        let (tflow, tprio, tbytes) = (meta.flow.0, meta.priority, meta.payload_bytes() as u64);
        let (twire, tecn) = (meta.wire_bytes as u64, meta.ecn.capable && !meta.ecn.ce);
        let node = NodeId::Switch(switch);
        self.settle(node, pi as u16);
        // A stalled switch admits (and drops) but never starts serializing.
        let stalled = self.faults.as_ref().is_some_and(|fs| fs.is_stalled(switch));
        let pool = &mut self.effects.pool;
        let sw = &mut self.switches[si];
        let port = &mut sw.ports[pi];
        let evicted_before = port.counters.evicted;
        let (trace, now, sw_id, port_id) = (&mut self.trace, self.now.0, switch.0, pi as u16);
        let outcome = admit(&sw.cfg, &mut port.queues, &mut port.counters, &mut meta, |h| {
            let gone = pool.meta(h.pkt);
            let payload_bytes = gone.payload_bytes();
            if let Some(sink) = trace.as_mut() {
                let (flow, prio, bytes) = (gone.flow.0, gone.priority, payload_bytes as u64);
                sink.emit(now, &TraceEvent::Evict { sw: sw_id, port: port_id, flow, prio, bytes });
            }
            pool.release(h.pkt);
            payload_bytes
        });
        let admitted = outcome != EnqueueOutcome::Dropped;
        let evicted = port.counters.evicted != evicted_before;
        // The pass-through leaves PFC out rather than emulating it: a lone
        // packet can cross XOFF, and the pause frames that sends are
        // events of their own.
        let pass = admitted && !stalled && sw.cfg.pfc.is_none() && port.idle_for(meta.priority);
        if !admitted {
            pool.release(pkt);
        } else {
            *pool.meta_mut(pkt) = meta;
            if !pass {
                let (wire_bytes, priority) = (meta.wire_bytes, meta.priority);
                port.queues.push(Handle { pkt, wire_bytes, priority });
            }
        }
        // What the bank would hold had a passed-through packet been pushed.
        let (own_bytes, own_pkts) = if pass { (meta.wire_bytes as u64, 1) } else { (0, 0) };
        let backlog = port.queues.total_bytes() + own_bytes;
        let busy = port.busy;
        if self.san.is_some() {
            let key = switch_port_key(switch.0, pi as u16);
            let qpkts = port.queues.len() as u64 + own_pkts;
            // ECN consistency inputs for a marked admission: the rule (if
            // any) at this priority and the scoped backlog the mark
            // decision saw (marking happens pre-push, so subtract the
            // packet's own wire bytes from the post-push scoped backlog).
            let mark_inputs = match outcome {
                EnqueueOutcome::Queued { marked: true } => {
                    let rule = sw.cfg.ecn[tprio as usize];
                    let thr = if tecn { rule.map(|r| r.threshold_bytes) } else { None };
                    let scoped = match rule.map(|r| r.scope) {
                        Some(MarkScope::Queue) => port.queues.bytes_at(tprio),
                        Some(MarkScope::Range(lo, hi)) => port.queues.bytes_in_range(lo..hi),
                        _ => port.queues.total_bytes(),
                    };
                    Some(((scoped + own_bytes).saturating_sub(twire), thr))
                }
                _ => None,
            };
            let wire = match outcome {
                EnqueueOutcome::Queued { .. } => Some(twire),
                EnqueueOutcome::Trimmed => Some(TRIMMED_BYTES as u64),
                EnqueueOutcome::Dropped => None,
            };
            if let Some(s) = self.san.as_mut() {
                if let Some(w) = wire {
                    s.observe_queue_push(key, w);
                }
                if evicted {
                    s.observe_queue_resync(key, backlog, qpkts);
                }
                if let Some((scoped, thr)) = mark_inputs {
                    s.observe_ecn_mark(self.now, key, scoped, thr);
                }
            }
        }
        if self.trace.is_some() {
            let (sw, port) = (switch.0, pi as u16);
            match outcome {
                EnqueueOutcome::Dropped => self.emit(TraceEvent::Drop {
                    sw,
                    port,
                    flow: tflow,
                    prio: tprio,
                    bytes: tbytes,
                }),
                EnqueueOutcome::Trimmed => {
                    self.emit(TraceEvent::Trim { sw, port, flow: tflow, prio: tprio })
                }
                EnqueueOutcome::Queued { marked } => {
                    self.emit(TraceEvent::Enqueue {
                        sw,
                        port,
                        flow: tflow,
                        prio: tprio,
                        qlen: backlog,
                    });
                    if marked {
                        self.emit(TraceEvent::EcnMark {
                            sw,
                            port,
                            flow: tflow,
                            prio: tprio,
                            qlen: backlog,
                        });
                    }
                }
            }
        }
        // The admitted packet joins the account of the port it came in
        // through (a PFC switch evicts nothing, so no other account moved).
        if admitted {
            self.pfc_update(switch, meta.ingress, meta.priority, meta.wire_bytes as u64, true);
        }
        if pass {
            self.transmit(node, pi as u16, pkt);
        } else if admitted {
            if busy {
                self.push_tx_done(node, pi as u16);
            } else {
                self.start_tx(node, pi as u16);
            }
        }
    }

    /// Begin serializing the head-of-line unpaused packet of an egress
    /// port, if there is one.
    pub(crate) fn start_tx(&mut self, node: NodeId, port: u16) {
        // A stalled switch admits (and drops) but never starts serializing;
        // backlogged ports are kicked again when the stall ends.
        if let (NodeId::Switch(s), Some(fs)) = (node, self.faults.as_ref()) {
            if fs.is_stalled(s) {
                return;
            }
        }
        let slot = self.port_mut(node, port);
        if let Some(head) = slot.queues.pop_unpaused(slot.paused_mask) {
            self.transmit(node, port, head.pkt);
        }
    }

    /// Start an egress port's transmitter when it is idle with backlog
    /// waiting (after a stall or a pause lifts).
    pub(crate) fn kick(&mut self, node: NodeId, port: u16) {
        self.settle(node, port);
        let slot = self.port(node, port);
        if !slot.busy && !slot.queues.is_empty() {
            self.start_tx(node, port);
        }
    }

    /// Put `pkt` on the wire of an idle egress port: it has just left the
    /// bank, or (the pass-through) would have been pushed and popped within
    /// this call.
    fn transmit(&mut self, node: NodeId, port: u16, pkt: PkRef) {
        let meta = self.effects.pool.meta(pkt);
        let (flow, priority, wire_bytes) = (meta.flow.0, meta.priority, meta.wire_bytes as u64);
        let (payload_bytes, enq_at, ingress) = (meta.payload_bytes(), meta.enq_at, meta.ingress);
        let slot = self.port_mut(node, port);
        slot.busy = true;
        let link_id = slot.link;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.queue_delay_ns.record(self.now.saturating_since(enq_at).as_nanos());
        }
        if let Some(s) = self.san.as_mut() {
            s.observe_queue_pop(self.now, san_port_key(node, port), wire_bytes);
        }
        if let NodeId::Switch(s) = node {
            self.emit(TraceEvent::Dequeue { sw: s.0, port, flow, prio: priority });
            // The dequeue may have drained its ingress account through XON.
            self.pfc_update(s, ingress, priority, wire_bytes, false);
        }
        if let Some(s) = self.san.as_mut() {
            s.observe_tx_start(self.now, san_port_key(node, port));
        }
        let link = &mut self.links[link_id.0 as usize];
        link.tx_bytes += wire_bytes;
        link.tx_packets += 1;
        if priority < 4 {
            link.tx_high_bytes += wire_bytes;
        }
        let ser = link.rate.serialization_time(wire_bytes);
        let arrive_at = self.now + ser + link.delay;
        let (to, to_port) = (link.to, link.to_port);
        // The fault layer destroys packets *at serialization time*: the
        // sender still pays the full serialization delay (the port stays
        // busy until `tx_end`) but no Deliver is scheduled — the bits die
        // on the wire.
        if self.faults.as_mut().is_some_and(|fs| fs.loses_packet(link_id, payload_bytes, priority))
        {
            if let Some(s) = self.san.as_mut() {
                s.observe_fault_drop();
            }
            self.emit(TraceEvent::FaultDrop {
                link: link_id.0,
                flow,
                prio: priority,
                bytes: wire_bytes,
            });
            self.effects.pool.release(pkt);
        } else {
            self.effects.pool.meta_mut(pkt).ingress = to_port;
            self.effects.pool.depart();
            if let Some(s) = self.san.as_mut() {
                s.observe_alloc(self.now, pkt.0 as usize);
            }
            self.schedule(arrive_at, Ev::Deliver { to, pkt });
        }
        // The TxDone takes its sequence number here, right after the
        // Deliver's, but enters the queue only when it will have a
        // successor to start: now if one is waiting (even a paused one),
        // else when one is enqueued while the port is still busy. An event
        // that would find the queue empty changes nothing but `busy`, and
        // `settle` does that in place.
        let tx_end = self.now + ser;
        let tx_seq = self.mint_seq(tx_end);
        let slot = self.port_mut(node, port);
        slot.unpushed_tx_done = Some((tx_end, tx_seq));
        if !slot.queues.is_empty() {
            self.push_tx_done(node, port);
        }
    }

    /// Bring `port`'s `busy` flag up to date: if its `TxDone` was never
    /// pushed and that event's key lies behind the event being dispatched,
    /// it would have run by now and found the queue empty, so the port is
    /// idle. Every reader of `busy` calls this first.
    pub(crate) fn settle(&mut self, node: NodeId, port: u16) {
        let reached = (self.now, self.cur_seq);
        let slot = self.port_mut(node, port);
        if slot.unpushed_tx_done.is_some_and(|key| key < reached) {
            slot.unpushed_tx_done = None;
            slot.busy = false;
            if let Some(s) = self.san.as_mut() {
                s.observe_tx_done(self.now, san_port_key(node, port));
            }
        }
    }

    pub(crate) fn tx_done(&mut self, node: NodeId, port: u16) {
        if let Some(s) = self.san.as_mut() {
            s.observe_tx_done(self.now, san_port_key(node, port));
        }
        let slot = self.port_mut(node, port);
        slot.busy = false;
        if !slot.queues.is_empty() {
            self.start_tx(node, port);
        }
    }
}
// simlint: hot-path-end

/// Sanitizer ledger key for an egress port (host NICs always use port 0).
fn san_port_key(node: NodeId, port: u16) -> u64 {
    match node {
        NodeId::Host(h) => host_port_key(h.0),
        NodeId::Switch(s) => switch_port_key(s.0, port),
    }
}
