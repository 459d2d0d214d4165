//! Topology construction: the [`Simulator`]'s cabling and routing
//! primitives, and builders for the paper's experiment setups.

use std::collections::VecDeque;

use crate::engine::{HostSlot, PortState, Simulator, SwitchSlot};
use crate::ids::{HostId, LinkId, NodeId, SwitchId};
use crate::link::Link;
use crate::packet::Payload;
use crate::switch::SwitchConfig;
use crate::time::SimDuration;
use crate::units::Rate;

impl<P: Payload> Simulator<P> {
    /// Add a host (must be cabled with [`Self::connect`] before use).
    pub fn add_host(&mut self) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(HostSlot { nic: None, transport: None, cpu_ns: 0, cpu_calls: 0 });
        id
    }

    /// Add a switch with the given per-port configuration.
    pub fn add_switch(&mut self, cfg: SwitchConfig) -> SwitchId {
        let id = SwitchId(self.switches.len() as u32);
        self.switches.push(SwitchSlot {
            ports: Vec::new(),
            cfg,
            route_offsets: Vec::new(),
            route_ports: Vec::new(),
            pfc_xoff_count: [0; 8],
        });
        id
    }

    /// Cable `a` and `b` with a full-duplex link (two unidirectional links
    /// of the same rate and delay). Hosts may be cabled exactly once.
    pub fn connect(&mut self, a: NodeId, b: NodeId, rate: Rate, delay: SimDuration) {
        self.attach_port(a, Link::new(rate, delay, b));
        self.attach_port(b, Link::new(rate, delay, a));
    }

    /// Register `link` and give `node` the egress port that feeds it.
    fn attach_port(&mut self, node: NodeId, link: Link) {
        let port = PortState::new(LinkId(self.links.len() as u32));
        self.links.push(link);
        match node {
            NodeId::Host(h) => {
                let slot = &mut self.hosts[h.0 as usize];
                assert!(slot.nic.is_none(), "host {h:?} already cabled");
                slot.nic = Some(port);
            }
            NodeId::Switch(s) => self.switches[s.0 as usize].ports.push(port),
        }
    }

    /// Compute destination-based ECMP routes on every switch via BFS
    /// shortest paths. Call once after all `connect` calls.
    pub fn build_routes(&mut self) {
        let n_hosts = self.hosts.len();
        for sw in &mut self.switches {
            sw.route_offsets.clear();
            sw.route_ports.clear();
            sw.route_offsets.push(0);
        }
        // Distance (in hops) from every node to each destination host,
        // computed by BFS from the host over reverse links. Links are
        // symmetric here so forward BFS over neighbors is equivalent.
        // Destinations are visited in ascending order, so each switch's
        // CSR rows are appended in `dst` order.
        let mut candidates: Vec<u16> = Vec::new();
        for dst in 0..n_hosts {
            let dist = self.bfs_from(NodeId::Host(HostId(dst as u32)));
            for si in 0..self.switches.len() {
                let my = dist[self.node_index(NodeId::Switch(SwitchId(si as u32)))];
                candidates.clear();
                for (pi, port) in self.switches[si].ports.iter().enumerate() {
                    let peer = self.links[port.link.0 as usize].to;
                    if dist[self.node_index(peer)] + 1 == my {
                        candidates.push(pi as u16);
                    }
                }
                let sw = &mut self.switches[si];
                sw.route_ports.extend_from_slice(&candidates);
                sw.route_offsets.push(sw.route_ports.len() as u32);
            }
        }
    }

    fn node_index(&self, n: NodeId) -> usize {
        match n {
            NodeId::Host(h) => h.0 as usize,
            NodeId::Switch(s) => self.hosts.len() + s.0 as usize,
        }
    }

    /// BFS hop distance from `start` to every node (usize::MAX = unreachable).
    fn bfs_from(&self, start: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.hosts.len() + self.switches.len()];
        let mut frontier = VecDeque::new();
        dist[self.node_index(start)] = 0;
        frontier.push_back(start);
        while let Some(node) = frontier.pop_front() {
            let d = dist[self.node_index(node)];
            let ports = match node {
                NodeId::Host(h) => self.hosts[h.0 as usize].nic.as_slice(),
                NodeId::Switch(s) => &self.switches[s.0 as usize].ports,
            };
            for port in ports {
                let peer = self.links[port.link.0 as usize].to;
                let pi = self.node_index(peer);
                if dist[pi] == usize::MAX {
                    dist[pi] = d + 1;
                    frontier.push_back(peer);
                }
            }
        }
        dist
    }
}

/// A built topology: the simulator plus the ids needed to drive it.
pub struct Topology<P: Payload> {
    /// The wired simulator (routes already built).
    pub sim: Simulator<P>,
    /// All hosts, in construction order.
    pub hosts: Vec<HostId>,
    /// Leaf (ToR) switches, if any.
    pub leaves: Vec<SwitchId>,
    /// Spine switches, if any.
    pub spines: Vec<SwitchId>,
    /// One-way host-to-host base RTT components: 2 × (per-link delay × hops).
    pub base_rtt: SimDuration,
    /// Edge (host) link rate.
    pub edge_rate: Rate,
}

/// Parameters for a two-tier leaf-spine topology (§6.2).
#[derive(Clone, Copy, Debug)]
pub struct LeafSpineParams {
    pub n_leaves: usize,
    pub n_spines: usize,
    pub hosts_per_leaf: usize,
    pub edge_rate: Rate,
    pub core_rate: Rate,
    pub link_delay: SimDuration,
}

/// Build a star: `n` hosts on one switch. Used for the testbed experiments
/// (15-to-15, 14-to-1) and the 2-sender microbenchmarks (Figs 1, 28, 29).
pub fn star<P: Payload>(
    n_hosts: usize,
    link_rate: Rate,
    link_delay: SimDuration,
    cfg: SwitchConfig,
) -> Topology<P> {
    let mut sim = Simulator::new();
    let sw = sim.add_switch(cfg);
    let hosts: Vec<HostId> = (0..n_hosts)
        .map(|_| {
            let h = sim.add_host();
            sim.connect(NodeId::Host(h), NodeId::Switch(sw), link_rate, link_delay);
            h
        })
        .collect();
    sim.build_routes();
    Topology {
        sim,
        hosts,
        leaves: vec![sw],
        spines: Vec::new(),
        // host -> switch -> host: 2 links each way.
        base_rtt: link_delay * 4,
        edge_rate: link_rate,
    }
}

/// Build a two-tier leaf-spine fabric.
///
/// The paper's large-scale setup (§6.2): 9 leaves × 16 hosts = 144 servers,
/// 4 spines, 40 Gbps edge and 100 Gbps core links, which is 1.4:1
/// oversubscribed (16×40 / [4×100] ≈ 1.6... the paper calls it 1.4:1 with
/// its exact trunking; the ratio is configurable here).
pub fn leaf_spine<P: Payload>(p: &LeafSpineParams, cfg: SwitchConfig) -> Topology<P> {
    let mut sim = Simulator::new();
    let leaves: Vec<SwitchId> = (0..p.n_leaves).map(|_| sim.add_switch(cfg.clone())).collect();
    let spines: Vec<SwitchId> = (0..p.n_spines).map(|_| sim.add_switch(cfg.clone())).collect();
    let mut hosts = Vec::with_capacity(p.n_leaves * p.hosts_per_leaf);
    for &leaf in &leaves {
        for _ in 0..p.hosts_per_leaf {
            let h = sim.add_host();
            sim.connect(NodeId::Host(h), NodeId::Switch(leaf), p.edge_rate, p.link_delay);
            hosts.push(h);
        }
        for &spine in &spines {
            sim.connect(NodeId::Switch(leaf), NodeId::Switch(spine), p.core_rate, p.link_delay);
        }
    }
    sim.build_routes();
    Topology {
        sim,
        hosts,
        leaves,
        spines,
        // Worst case host->leaf->spine->leaf->host: 3 links each way.
        base_rtt: p.link_delay * 6,
        edge_rate: p.edge_rate,
    }
}

/// The paper's 144-server fabric — 9 leaves × 16 hosts, 4 spines, 2 µs
/// links — at the given edge/core rates.
fn paper_leaf_spine<P: Payload>(edge_gbps: u64, core_gbps: u64, cfg: SwitchConfig) -> Topology<P> {
    leaf_spine(
        &LeafSpineParams {
            n_leaves: 9,
            n_spines: 4,
            hosts_per_leaf: 16,
            edge_rate: Rate::gbps(edge_gbps),
            core_rate: Rate::gbps(core_gbps),
            link_delay: SimDuration::from_micros(2),
        },
        cfg,
    )
}

/// The paper's large-scale oversubscribed topology (§6.2): 144 servers,
/// 9 leaves, 4 spines, 40 G edge / 100 G core.
pub fn paper_oversubscribed<P: Payload>(cfg: SwitchConfig) -> Topology<P> {
    paper_leaf_spine(40, 100, cfg)
}

/// The appendix-E non-oversubscribed topology: 9 leaves × 16 hosts at
/// 10 Gbps edge, 4 spines at 40 Gbps core (16×10 = 4×40, i.e. 1:1).
pub fn paper_nonoversubscribed<P: Payload>(cfg: SwitchConfig) -> Topology<P> {
    paper_leaf_spine(10, 40, cfg)
}

/// The §6.3.2 100/400G topology.
pub fn paper_100_400g<P: Payload>(cfg: SwitchConfig) -> Topology<P> {
    paper_leaf_spine(100, 400, cfg)
}

/// The paper's 15-host, 10 Gbps testbed (§6.1) with ~80 µs base RTT.
pub fn paper_testbed<P: Payload>(cfg: SwitchConfig) -> Topology<P> {
    star(15, Rate::gbps(10), SimDuration::from_micros(20), cfg)
}

/// Parameters for a three-tier k-ary fat-tree (k pods, (k/2)² core
/// switches, k²/4 hosts per pod at full bisection).
#[derive(Clone, Copy, Debug)]
pub struct FatTreeParams {
    /// Pod count k (must be even, ≥ 2).
    pub k: usize,
    pub edge_rate: Rate,
    pub aggregate_rate: Rate,
    pub core_rate: Rate,
    pub link_delay: SimDuration,
}

/// Build a k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches,
/// (k/2)² cores, k³/4 hosts. `leaves` holds the edge switches and
/// `spines` the aggregation plus core switches (aggregation first).
pub fn fat_tree<P: Payload>(p: &FatTreeParams, cfg: SwitchConfig) -> Topology<P> {
    assert!(p.k >= 2 && p.k.is_multiple_of(2), "fat-tree k must be even");
    let half = p.k / 2;
    let mut sim = Simulator::new();

    let mut edges = Vec::new();
    let mut aggs = Vec::new();
    for _pod in 0..p.k {
        for _ in 0..half {
            edges.push(sim.add_switch(cfg.clone()));
        }
        for _ in 0..half {
            aggs.push(sim.add_switch(cfg.clone()));
        }
    }
    let cores: Vec<SwitchId> = (0..half * half).map(|_| sim.add_switch(cfg.clone())).collect();

    let mut hosts = Vec::new();
    for pod in 0..p.k {
        for e in 0..half {
            let edge = edges[pod * half + e];
            // Hosts on this edge switch.
            for _ in 0..half {
                let h = sim.add_host();
                sim.connect(NodeId::Host(h), NodeId::Switch(edge), p.edge_rate, p.link_delay);
                hosts.push(h);
            }
            // Edge <-> every aggregation switch in the pod.
            for a in 0..half {
                let agg = aggs[pod * half + a];
                sim.connect(
                    NodeId::Switch(edge),
                    NodeId::Switch(agg),
                    p.aggregate_rate,
                    p.link_delay,
                );
            }
        }
        // Aggregation <-> cores: agg `a` of each pod connects to cores
        // [a*half, (a+1)*half).
        for a in 0..half {
            let agg = aggs[pod * half + a];
            for c in 0..half {
                let core = cores[a * half + c];
                sim.connect(NodeId::Switch(agg), NodeId::Switch(core), p.core_rate, p.link_delay);
            }
        }
    }
    sim.build_routes();
    let mut spines = aggs;
    spines.extend(cores);
    Topology {
        sim,
        hosts,
        leaves: edges,
        spines,
        // Worst case: host-edge-agg-core-agg-edge-host = 5 links each way.
        base_rtt: p.link_delay * 10,
        edge_rate: p.edge_rate,
    }
}

#[cfg(test)]
mod fat_tree_tests {
    use super::*;
    use crate::packet::NoPayload;

    #[test]
    fn k4_fat_tree_has_canonical_counts() {
        let p = FatTreeParams {
            k: 4,
            edge_rate: Rate::gbps(10),
            aggregate_rate: Rate::gbps(40),
            core_rate: Rate::gbps(40),
            link_delay: SimDuration::from_micros(1),
        };
        let topo = fat_tree::<NoPayload>(&p, SwitchConfig::basic(1 << 20));
        assert_eq!(topo.hosts.len(), 16); // k^3/4
        assert_eq!(topo.leaves.len(), 8); // k*(k/2) edges
        assert_eq!(topo.spines.len(), 8 + 4); // aggs + cores
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_k_is_rejected() {
        let p = FatTreeParams {
            k: 3,
            edge_rate: Rate::gbps(10),
            aggregate_rate: Rate::gbps(10),
            core_rate: Rate::gbps(10),
            link_delay: SimDuration::from_micros(1),
        };
        fat_tree::<NoPayload>(&p, SwitchConfig::basic(1 << 20));
    }
}
