//! The transport memoises one route per directed host pair and drops
//! every memo when the topology is mutated. These tests pin the two
//! properties that make that safe: a memoised answer is bit-identical to a
//! fresh shortest-path computation, and no answer outlives the topology
//! it was computed on.

use bytes::Bytes;
use netsim::{FaultPlan, Link, NetError, Network, NodeId, NodeKind, Topology};
use testkit::SplitMix64 as Gen;

/// a, b on one switch; c behind a gateway.
fn small_net() -> Network {
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
    Network::new(t)
}

fn payload(n: usize) -> Bytes {
    Bytes::from(vec![0x5a; n])
}

/// Cut → `Unreachable`; heal → the very same arrival instant as before
/// the cut. A memo that survived either mutation would fail one half.
#[test]
fn memo_is_dropped_when_the_topology_changes() {
    let net = small_net();
    let _dst = net.register("c:svc").unwrap();
    let first = net.send("a:x", "c:svc", payload(300), 1.0).unwrap();
    // Second send is served from the memo.
    assert_eq!(net.send("a:x", "c:svc", payload(300), 1.0).unwrap().to_bits(), first.to_bits());

    let (sw, gw) = net.with_topology(|t| (t.node("sw").unwrap(), t.node("gw").unwrap()));
    assert_eq!(net.with_topology_mut(|t| t.remove_links(sw, gw)), 1);
    assert_eq!(
        net.send("a:x", "c:svc", payload(300), 1.0),
        Err(NetError::Unreachable { from: "a".into(), to: "c".into() })
    );
    // The partition itself is memoised too, and must not stick either.
    assert!(net.send("a:x", "c:svc", payload(300), 1.0).is_err());

    net.with_topology_mut(|t| t.add_link(sw, gw, Link::building_hop()));
    let healed = net.send("a:x", "c:svc", payload(300), 1.0).unwrap();
    assert_eq!(healed.to_bits(), first.to_bits());
}

/// Fault windows are applied per message on top of the memoised route:
/// a latency spike stretches the arrival, and crash fencing still kills
/// pre-crash process endpoints while durable ones come back.
#[test]
fn fault_plan_still_acts_on_a_memoised_route() {
    let net = small_net();
    let _proc = net.register_process("b:proc-1", 0.0).unwrap();
    let _srv = net.register("b:server").unwrap();
    let base = net.send("a:x", "b:server", payload(100), 0.0).unwrap();
    assert_eq!(net.send("a:x", "b:server", payload(100), 0.0).unwrap().to_bits(), base.to_bits());

    net.set_fault_plan(Some(
        FaultPlan::new(7)
            .latency_spike(10.0, 11.0, 2.0, 0.5)
            .host_crash("b", 20.0)
            .host_restart("b", 21.0),
    ));
    let spiked = net.send("a:x", "b:server", payload(100), 10.0).unwrap();
    assert_eq!(spiked.to_bits(), (10.0 + (base * 2.0 + 0.5)).to_bits());
    let after_spike = net.send("a:x", "b:server", payload(100), 11.0).unwrap();
    assert_eq!(after_spike.to_bits(), (11.0 + base).to_bits());

    assert!(net.send("a:x", "b:proc-1", payload(1), 19.0).is_ok());
    assert_eq!(net.send("a:x", "b:proc-1", payload(1), 20.5), Err(NetError::HostDown("b".into())));
    assert!(net.send("a:x", "b:server", payload(1), 21.5).is_ok());
    assert_eq!(
        net.send("a:x", "b:proc-1", payload(1), 21.5),
        Err(NetError::UnknownAddress("b:proc-1".into()))
    );
}

/// A random connected-ish graph: hosts hang off switches, switches and
/// gateways are wired at random with random link classes. Returns the
/// topology and every link added (for later removal).
fn random_topology(g: &mut Gen) -> (Topology, Vec<(NodeId, NodeId)>) {
    let mut t = Topology::new();
    let n_infra = 2 + g.index(4);
    let infra: Vec<NodeId> = (0..n_infra)
        .map(|i| {
            let kind = if g.flag() { NodeKind::Switch } else { NodeKind::Gateway };
            t.add_node(format!("infra-{i}"), kind)
        })
        .collect();
    let link =
        |g: &mut Gen| Link { latency_s: g.range(0.1e-3, 40e-3), bandwidth_bps: g.range(1e5, 2e6) };
    let mut links = Vec::new();
    for i in 1..n_infra {
        // A spanning chain plus random chords, so alternatives exist.
        let to = infra[g.index(i)];
        t.add_link(infra[i], to, link(g));
        links.push((infra[i], to));
    }
    for _ in 0..g.index(4) {
        let (a, b) = (infra[g.index(n_infra)], infra[g.index(n_infra)]);
        if a != b {
            t.add_link(a, b, link(g));
            links.push((a, b));
        }
    }
    for i in 0..(2 + g.index(5)) {
        let h = t.add_node(format!("host-{i}"), NodeKind::Host);
        let at = infra[g.index(n_infra)];
        t.add_link(h, at, link(g));
        links.push((h, at));
    }
    (t, links)
}

/// `Network::transfer_seconds` (memoised) against
/// `Topology::transfer_seconds` (fresh Dijkstra) on the network's own
/// current topology: every ordered host pair, several sizes, asked twice
/// so the second answer is a memo hit.
fn assert_memo_matches_fresh(net: &Network, seed: u64) {
    let hosts: Vec<String> = net.with_topology(|t| t.hosts().map(str::to_owned).collect());
    for from in &hosts {
        for to in &hosts {
            for bytes in [0usize, 1, 46, 1_500, 65_536] {
                let fresh = net.with_topology(|t| {
                    t.transfer_seconds(t.node(from).unwrap(), t.node(to).unwrap(), bytes)
                });
                for pass in 0..2 {
                    let memo = net.transfer_seconds(from, to, bytes).ok();
                    assert_eq!(
                        memo.map(f64::to_bits),
                        fresh.map(f64::to_bits),
                        "seed {seed} pass {pass}: {from}->{to} at {bytes} B"
                    );
                }
                assert_eq!(
                    net.link_cost(from, to).ok(),
                    net.with_topology(|t| {
                        t.route_cost(t.node(from).unwrap(), t.node(to).unwrap())
                    }),
                    "seed {seed}: {from}->{to} cost"
                );
            }
        }
    }
}

#[test]
fn memoised_transfer_equals_fresh_dijkstra_on_random_topologies() {
    for seed in 0..40u64 {
        let mut g = Gen::new(0xC0FFEE ^ seed);
        let (topo, links) = random_topology(&mut g);
        let net = Network::new(topo);
        assert_memo_matches_fresh(&net, seed);
        // Mutate: drop a random link (possibly partitioning the graph),
        // then the memo must describe the new graph, not the old one.
        let (a, b) = links[g.index(links.len())];
        net.with_topology_mut(|t| t.remove_links(a, b));
        assert_memo_matches_fresh(&net, seed);
    }
}
