//! The packet slab: where a packet lives from the moment its sender sends
//! it until it is delivered to a host or dropped.

use crate::packet::{Packet, PacketMeta};
use crate::queue::Queued;

/// Index of a packet parked in the [`PacketPool`] slab.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PkRef(pub(crate) u32);

/// What an egress queue bank stores for a pooled packet: the slot, plus
/// the two fields the bank's own accounting reads, so pushing, popping and
/// evicting never touch the slab.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Handle {
    pub(crate) pkt: PkRef,
    pub(crate) wire_bytes: u32,
    pub(crate) priority: u8,
}

const _: () = assert!(std::mem::size_of::<Handle>() <= 12, "a queued packet is a handle");

impl Queued for Handle {
    fn priority(&self) -> u8 {
        self.priority
    }
    fn wire_bytes(&self) -> u32 {
        self.wire_bytes
    }
}

/// Packet-pool counters (see [`crate::Simulator::pool_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Packets that grew the slab because the free list was empty: the
    /// peak number of packets alive at once.
    pub fresh: u64,
    /// Packets served by recycling a previously freed slot.
    pub recycled: u64,
    /// Packets on a wire right now: serialization started, delivery not
    /// yet dispatched. (Queued packets hold a slot too but are not live.)
    pub live: u64,
}

impl PoolStats {
    /// Fraction of packets served without growing the slab.
    pub fn hit_rate(&self) -> f64 {
        let total = self.fresh + self.recycled;
        if total == 0 {
            0.0
        } else {
            self.recycled as f64 / total as f64
        }
    }
}

/// Free-list slab holding every packet in the network, one slot per packet
/// life: a packet enters once, when a transport handler sends it
/// (`Ctx::send` writes it here), and leaves once — delivered to a host
/// transport ([`Self::take`]) or dropped, evicted or lost
/// ([`Self::release`]). Queues, wires and switches pass the 4-byte
/// [`PkRef`] between them. The slab high-water mark is the peak number of
/// packets alive at once, not the total sent.
///
/// Struct-of-arrays layout: the `Copy` metadata every forwarding decision
/// reads and writes sits in one dense array, while the protocol payloads —
/// touched only by `on_switch_hop` of a hop-telemetry packet and at
/// delivery — live in a parallel array whose `Option` doubles as the
/// slot-liveness flag.
#[derive(Debug)]
pub(crate) struct PacketPool<P> {
    meta: Vec<PacketMeta>,
    payload: Vec<Option<P>>,
    free: Vec<u32>,
    fresh: u64,
    recycled: u64,
    on_wire: u64,
}

impl<P> PacketPool<P> {
    pub(crate) fn new() -> Self {
        PacketPool {
            meta: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
            fresh: 0,
            recycled: 0,
            on_wire: 0,
        }
    }

    // simlint: hot-path
    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn insert(&mut self, pkt: Packet<P>) -> PkRef {
        let (meta, payload) = pkt.into_parts();
        match self.free.pop() {
            Some(i) => {
                self.recycled += 1;
                self.meta[i as usize] = meta;
                self.payload[i as usize] = Some(payload);
                PkRef(i)
            }
            None => {
                self.fresh += 1;
                self.meta.push(meta);
                self.payload.push(Some(payload));
                PkRef((self.payload.len() - 1) as u32)
            }
        }
    }

    /// End a packet's life by handing it to its destination.
    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn take(&mut self, r: PkRef) -> Packet<P> {
        match self.payload[r.0 as usize].take() {
            Some(payload) => {
                self.free.push(r.0);
                Packet::from_parts(self.meta[r.0 as usize], payload)
            }
            // A PkRef is minted once by insert() and consumed once; a
            // double-take is an engine bug, not a user error.
            None => unreachable!("packet pool slot {} taken twice", r.0),
        }
    }

    /// End a packet's life without a receiver: dropped, evicted or lost.
    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn release(&mut self, r: PkRef) {
        match self.payload[r.0 as usize].take() {
            Some(_) => self.free.push(r.0),
            None => unreachable!("packet pool slot {} released twice", r.0),
        }
    }

    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn meta(&self, r: PkRef) -> &PacketMeta {
        &self.meta[r.0 as usize]
    }

    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn meta_mut(&mut self, r: PkRef) -> &mut PacketMeta {
        &mut self.meta[r.0 as usize]
    }

    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn payload_mut(&mut self, r: PkRef) -> &mut P {
        match self.payload[r.0 as usize].as_mut() {
            Some(payload) => payload,
            None => unreachable!("packet pool slot {} read after its packet left", r.0),
        }
    }

    /// A packet started serialization toward the next node.
    pub(crate) fn depart(&mut self) {
        self.on_wire += 1;
    }

    /// A packet's delivery dispatched.
    pub(crate) fn arrive(&mut self) {
        self.on_wire -= 1;
    }
    // simlint: hot-path-end

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats { fresh: self.fresh, recycled: self.recycled, live: self.on_wire }
    }

    /// Slots holding a packet, on a wire or in a queue. Conservation
    /// (DESIGN.md §13): this equals [`PoolStats::live`] plus the packets
    /// queued over every port.
    pub(crate) fn occupied(&self) -> u64 {
        (self.payload.len() - self.free.len()) as u64
    }

    /// Slab indices currently holding a packet, ascending (the sanitizer
    /// seeds its ledger from these when installed mid-run).
    pub(crate) fn occupied_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.payload.iter().enumerate().filter(|(_, slot)| slot.is_some()).map(|(i, _)| i)
    }

    /// The free list, oldest entry first (simsan selftest hooks only).
    #[cfg(any(test, feature = "simsan-selftest"))]
    pub(crate) fn free_list_mut(&mut self) -> &mut Vec<u32> {
        &mut self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, HostId};
    use crate::packet::NoPayload;

    fn pkt(flow: u64) -> Packet<NoPayload> {
        Packet::data(FlowId(flow), HostId(0), HostId(1), 100, NoPayload)
    }

    #[test]
    fn slots_recycle_lifo() {
        let mut pool = PacketPool::new();
        let (a, b, c) = (pool.insert(pkt(0)), pool.insert(pkt(1)), pool.insert(pkt(2)));
        assert_eq!((a.0, b.0, c.0), (0, 1, 2), "an empty free list grows the slab");
        pool.take(a);
        pool.release(c);
        // The slot freed last is handed out first.
        assert_eq!(pool.insert(pkt(3)).0, 2);
        assert_eq!(pool.insert(pkt(4)).0, 0);
        assert_eq!(pool.insert(pkt(5)).0, 3, "free list exhausted: the slab grows again");
        let s = pool.stats();
        assert_eq!((s.fresh, s.recycled), (4, 2));
    }

    #[test]
    fn occupied_counts_whole_lives_and_live_counts_wires() {
        let mut pool = PacketPool::new();
        let refs: Vec<PkRef> = (0..10).map(|f| pool.insert(pkt(f))).collect();
        assert_eq!((pool.occupied(), pool.stats().live), (10, 0), "queued, not on a wire");
        for _ in 0..4 {
            pool.depart();
        }
        assert_eq!((pool.occupied(), pool.stats().live), (10, 4));
        for (taken, r) in refs.iter().enumerate().take(3) {
            pool.arrive();
            assert_eq!(pool.take(*r).flow, FlowId(taken as u64));
        }
        pool.release(refs[3]);
        assert_eq!((pool.occupied(), pool.stats().live), (6, 1));
        assert_eq!(pool.occupied_slots().collect::<Vec<_>>(), vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn a_switch_edits_the_meta_in_place() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(7));
        pool.meta_mut(r).ecn.ce = true;
        pool.meta_mut(r).priority = 3;
        let out = pool.take(r);
        assert!(out.ecn.ce && out.priority == 3 && out.flow == FlowId(7));
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn second_take_of_one_ref_panics() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(0));
        pool.take(r);
        pool.take(r);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn release_after_take_panics() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(0));
        pool.take(r);
        pool.release(r);
    }
}
