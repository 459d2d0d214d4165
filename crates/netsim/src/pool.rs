//! The in-flight packet slab: where a packet lives between the start of
//! its serialization and the dispatch of its delivery.

use crate::packet::{Packet, PacketMeta};

/// Index of an in-flight packet parked in the [`PacketPool`] slab.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PkRef(pub(crate) u32);

/// Packet-pool counters (see [`crate::Simulator::pool_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Inserts that grew the slab because the free list was empty.
    pub fresh: u64,
    /// Inserts served by recycling a previously freed slot.
    pub recycled: u64,
    /// Slots currently holding an in-flight packet.
    pub live: u64,
}

impl PoolStats {
    /// Fraction of inserts served without growing the slab.
    pub fn hit_rate(&self) -> f64 {
        let total = self.fresh + self.recycled;
        if total == 0 {
            0.0
        } else {
            self.recycled as f64 / total as f64
        }
    }
}

/// Free-list slab for in-flight packets. A packet enters when it starts
/// serialization toward a node and leaves when the delivery dispatches, so
/// slots cycle on wire-latency timescales and the steady state allocates
/// nothing: the slab high-water mark is the peak number of packets
/// simultaneously in flight, not the total sent.
///
/// Struct-of-arrays layout: the `Copy` metadata every forwarding decision
/// reads sits in one dense array (one cache line per event), while the
/// protocol payloads — variable-sized, only touched at delivery — live in
/// a parallel array whose `Option` doubles as the slot-liveness flag.
pub(crate) struct PacketPool<P> {
    meta: Vec<PacketMeta>,
    payload: Vec<Option<P>>,
    free: Vec<u32>,
    fresh: u64,
    recycled: u64,
}

impl<P> PacketPool<P> {
    pub(crate) fn new() -> Self {
        PacketPool {
            meta: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
            fresh: 0,
            recycled: 0,
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

    #[inline] // per-packet call from another module (codegen unit)
    pub(crate) fn take(&mut self, r: PkRef) -> Packet<P> {
        match self.payload[r.0 as usize].take() {
            Some(payload) => {
                self.free.push(r.0);
                Packet::from_parts(self.meta[r.0 as usize], payload)
            }
            // A PkRef is minted once by insert() and consumed once by
            // dispatch; a double-take is an engine bug, not a user error.
            None => unreachable!("packet pool slot {} taken twice", r.0),
        }
    }
    // simlint: hot-path-end

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh,
            recycled: self.recycled,
            live: (self.payload.len() - self.free.len()) as u64,
        }
    }

    /// Slab indices currently holding a packet, ascending (the sanitizer
    /// seeds its ledger from these when installed mid-run).
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
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
        pool.take(c);
        // The slot freed last is handed out first.
        assert_eq!(pool.insert(pkt(3)).0, 2);
        assert_eq!(pool.insert(pkt(4)).0, 0);
        assert_eq!(pool.insert(pkt(5)).0, 3, "free list exhausted: the slab grows again");
        let s = pool.stats();
        assert_eq!((s.fresh, s.recycled), (4, 2));
    }

    #[test]
    fn live_is_inserted_minus_taken_and_take_returns_the_packet() {
        let mut pool = PacketPool::new();
        let refs: Vec<PkRef> = (0..10).map(|f| pool.insert(pkt(f))).collect();
        assert_eq!(pool.stats().live, 10);
        for (taken, r) in refs.iter().enumerate().take(7) {
            assert_eq!(pool.take(*r).flow, FlowId(taken as u64));
            assert_eq!(pool.stats().live, 10 - (taken as u64 + 1));
        }
        assert_eq!(pool.live_slots().collect::<Vec<_>>(), vec![7, 8, 9]);
        pool.insert(pkt(10));
        assert_eq!(pool.stats().live, 4);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn second_take_of_one_ref_panics() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(0));
        pool.take(r);
        pool.take(r);
    }
}
