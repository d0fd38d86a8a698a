//! Network topology: hosts, switches, gateways, and links.
//!
//! The topology is an undirected graph. Hosts hang off subnet switches;
//! switches connect to site gateway routers; gateways connect to other
//! sites over wide-area links. Transfer cost between two hosts is computed
//! store-and-forward along the minimum-latency route:
//!
//! ```text
//! transfer(bytes) = Σ over links ( latency + bytes / bandwidth )
//! ```
//!
//! which reproduces the orderings the paper's tests exercised: local
//! Ethernet ≪ same building through multiple gateways ≪ Internet.

use std::collections::HashMap;

/// Index of a node within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node is; only hosts run processes, the rest forward traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A machine that can run Schooner processes.
    Host,
    /// A subnet switch (adds negligible cost itself; its links carry cost).
    Switch,
    /// A gateway router between subnets or sites.
    Gateway,
}

/// An undirected link with fixed latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way propagation + processing latency in seconds.
    pub latency_s: f64,
    /// Usable bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl Link {
    /// Classic 10 Mbit/s Ethernet, sub-millisecond latency.
    pub fn ethernet() -> Self {
        Link { latency_s: 0.8e-3, bandwidth_bps: 10e6 / 8.0 }
    }

    /// A building backbone hop through a gateway: more latency per hop,
    /// similar bandwidth.
    pub fn building_hop() -> Self {
        Link { latency_s: 2.5e-3, bandwidth_bps: 8e6 / 8.0 }
    }

    /// An early-1990s Internet path (T1-era): tens of ms latency, limited
    /// usable bandwidth.
    pub fn internet() -> Self {
        Link { latency_s: 35e-3, bandwidth_bps: 1.5e6 / 8.0 }
    }

    /// Time for `bytes` to cross this one link, store-and-forward.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

#[derive(Debug, Clone)]
struct Node {
    name: String,
    kind: NodeKind,
}

/// The network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    by_name: HashMap<String, NodeId>,
    /// Adjacency: for each node, (neighbor, link). Links are stored once
    /// per direction.
    adj: Vec<Vec<(NodeId, Link)>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; names must be unique.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate node name '{name}'");
        let id = NodeId(self.nodes.len());
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node { name, kind });
        self.adj.push(Vec::new());
        id
    }

    /// Add an undirected link between two nodes.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, link: Link) {
        assert_ne!(a, b, "self-link");
        self.adj[a.0].push((b, link));
        self.adj[b.0].push((a, link));
    }

    /// Remove every link between `a` and `b` (failure injection). Returns
    /// the number of links removed (counting one per undirected link).
    pub fn remove_links(&mut self, a: NodeId, b: NodeId) -> usize {
        let before = self.adj[a.0].len();
        self.adj[a.0].retain(|(n, _)| *n != b);
        let removed = before - self.adj[a.0].len();
        self.adj[b.0].retain(|(n, _)| *n != a);
        removed
    }

    /// Look up a node by name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Node name.
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Node kind.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.0].kind
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All host names.
    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().filter(|n| n.kind == NodeKind::Host).map(|n| n.name.as_str())
    }

    /// The one shortest-path routine: Dijkstra on latency from `from` to
    /// `to`. `None` when unreachable. Every routing query below reads
    /// this, and the transport memoises its result per host pair.
    pub(crate) fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Path> {
        if from == to {
            return Some(Path::default());
        }
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(NodeId, Link)>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[from.0] = 0.0;
        loop {
            // Linear scan: topologies here are tens of nodes.
            let mut u = None;
            let mut best = f64::INFINITY;
            for i in 0..n {
                if !visited[i] && dist[i] < best {
                    best = dist[i];
                    u = Some(i);
                }
            }
            let u = u?;
            if u == to.0 {
                break;
            }
            visited[u] = true;
            for &(v, link) in &self.adj[u] {
                let nd = dist[u] + link.latency_s;
                if nd < dist[v.0] {
                    dist[v.0] = nd;
                    prev[v.0] = Some((NodeId(u), link));
                }
            }
        }
        let mut hops = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, link) = prev[cur.0]?;
            hops.push((cur, link));
            cur = p;
        }
        hops.reverse();
        Some(Path { hops })
    }

    /// Minimum-latency route from `from` to `to`, as the list of links
    /// crossed. `None` when unreachable.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Vec<Link>> {
        Some(self.shortest_path(from, to)?.links().copied().collect())
    }

    /// Store-and-forward transfer time for `bytes` from `from` to `to`,
    /// or `None` when unreachable.
    pub fn transfer_seconds(&self, from: NodeId, to: NodeId, bytes: usize) -> Option<f64> {
        Some(self.shortest_path(from, to)?.transfer_seconds(bytes))
    }

    /// Decompose the minimum-latency route's cost into its total
    /// latency (seconds) and serialization slope (seconds per byte), so
    /// `transfer(bytes) = latency + bytes * per_byte`. The latency term
    /// is what link-layer batching amortizes: one frame pays it once
    /// for every message it carries.
    pub fn route_cost(&self, from: NodeId, to: NodeId) -> Option<(f64, f64)> {
        Some(self.shortest_path(from, to)?.cost())
    }

    /// Number of gateway nodes crossed on the route (the paper's "multiple
    /// gateways" dimension).
    pub fn gateways_crossed(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let path = self.shortest_path(from, to)?;
        Some(path.hops.iter().filter(|(n, _)| self.kind(*n) == NodeKind::Gateway).count())
    }
}

/// A minimum-latency path: each node reached after the source, with the
/// link crossed to reach it, in travel order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Path {
    hops: Vec<(NodeId, Link)>,
}

impl Path {
    fn links(&self) -> impl Iterator<Item = &Link> {
        self.hops.iter().map(|(_, link)| link)
    }

    /// Store-and-forward time for `bytes` along the path, summed in
    /// travel order.
    pub(crate) fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.links().map(|l| l.transfer_seconds(bytes)).sum()
    }

    /// Total (latency seconds, seconds per byte) of the path.
    pub(crate) fn cost(&self) -> (f64, f64) {
        (self.links().map(|l| l.latency_s).sum(), self.links().map(|l| 1.0 / l.bandwidth_bps).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// host-a — switch — host-b, plus host-c behind a gateway.
    fn small() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        let c = t.add_node("c", NodeKind::Host);
        let sw = t.add_node("sw", NodeKind::Switch);
        let gw = t.add_node("gw", NodeKind::Gateway);
        t.add_link(a, sw, Link::ethernet());
        t.add_link(b, sw, Link::ethernet());
        t.add_link(sw, gw, Link::building_hop());
        t.add_link(gw, c, Link::ethernet());
        (t, a, b, c)
    }

    #[test]
    fn routes_and_costs() {
        let (t, a, b, c) = small();
        let ab = t.transfer_seconds(a, b, 1000).unwrap();
        let ac = t.transfer_seconds(a, c, 1000).unwrap();
        assert!(ab < ac, "LAN path must be cheaper than gateway path");
        assert_eq!(t.route(a, b).unwrap().len(), 2);
        assert_eq!(t.route(a, c).unwrap().len(), 3);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let (t, a, b, _) = small();
        let small_msg = t.transfer_seconds(a, b, 100).unwrap();
        let big = t.transfer_seconds(a, b, 1_000_000).unwrap();
        assert!(big > small_msg * 10.0);
    }

    #[test]
    fn self_transfer_is_free() {
        let (t, a, _, _) = small();
        assert_eq!(t.transfer_seconds(a, a, 12345), Some(0.0));
        assert_eq!(t.gateways_crossed(a, a), Some(0));
    }

    #[test]
    fn gateway_counting() {
        let (t, a, b, c) = small();
        assert_eq!(t.gateways_crossed(a, b), Some(0));
        assert_eq!(t.gateways_crossed(a, c), Some(1));
    }

    #[test]
    fn link_removal_disconnects() {
        let (mut t, a, _, c) = small();
        let gw = t.node("gw").unwrap();
        let sw = t.node("sw").unwrap();
        assert_eq!(t.remove_links(sw, gw), 1);
        assert_eq!(t.transfer_seconds(a, c, 10), None);
        assert_eq!(t.route(a, c), None);
    }

    #[test]
    fn unreachable_is_none_not_panic() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        assert_eq!(t.route(a, b), None);
        assert_eq!(t.transfer_seconds(a, b, 1), None);
    }

    #[test]
    fn lookup_by_name() {
        let (t, a, _, _) = small();
        assert_eq!(t.node("a"), Some(a));
        assert_eq!(t.node("nope"), None);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.kind(a), NodeKind::Host);
    }

    #[test]
    fn hosts_iterator_skips_infrastructure() {
        let (t, _, _, _) = small();
        let hosts: Vec<_> = t.hosts().collect();
        assert_eq!(hosts, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_node("x", NodeKind::Host);
        t.add_node("x", NodeKind::Host);
    }

    #[test]
    fn picks_min_latency_route() {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        // Direct slow link vs. two fast hops through a switch.
        t.add_link(a, b, Link { latency_s: 0.1, bandwidth_bps: 1e9 });
        let sw = t.add_node("sw", NodeKind::Switch);
        t.add_link(a, sw, Link::ethernet());
        t.add_link(sw, b, Link::ethernet());
        let route = t.route(a, b).unwrap();
        assert_eq!(route.len(), 2, "should prefer the two-hop low-latency path");
    }
}
