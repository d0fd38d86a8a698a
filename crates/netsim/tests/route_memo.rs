//! The transport memoises one route per directed host pair and drops
//! every memo when the topology is mutated. These tests pin the two
//! properties that make that safe: a memoised answer is bit-identical to a
//! fresh shortest-path computation, and no answer outlives the topology
//! it was computed on.

use bytes::Bytes;
use netsim::{Endpoint, FaultPlan, Link, NetError, Network, NodeId, NodeKind, Route, Topology};
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

/// One envelope as bits: addresses, send and arrival instants, payload.
type Delivered = (String, String, u64, u64, Vec<u8>);

fn drain(ep: &Endpoint) -> Vec<Delivered> {
    std::iter::from_fn(|| ep.try_recv())
        .map(|e| {
            let (from, to) = (e.from.to_string(), e.to.to_string());
            (from, to, e.sent_at.to_bits(), e.arrive_at.to_bits(), e.payload.to_vec())
        })
        .collect()
}

/// A send's outcome as bits.
fn bits(r: Result<f64, NetError>) -> Result<u64, NetError> {
    r.map(f64::to_bits)
}

/// A route resolved before a cut and held through it and the heal
/// answers every send exactly as a fresh `send` does: the same
/// arrival before the cut, `Unreachable` during it, the same arrival
/// again after the heal, and the same envelopes in the mailbox.
#[test]
fn a_route_held_across_a_topology_epoch_answers_as_fresh_sends() {
    let (held, fresh) = (small_net(), small_net());
    let (dst_h, dst_f) = (held.register("c:svc").unwrap(), fresh.register("c:svc").unwrap());
    let mut route = held.route("a:x", "c:svc");
    let mut both = |t: f64| {
        let on_route = bits(held.send_on(&mut route, payload(300), t));
        assert_eq!(on_route, bits(fresh.send("a:x", "c:svc", payload(300), t)), "at t = {t}");
        on_route
    };
    let first = both(1.0).unwrap();
    assert_eq!(both(1.0), Ok(first));

    for net in [&held, &fresh] {
        let (sw, gw) = net.with_topology(|t| (t.node("sw").unwrap(), t.node("gw").unwrap()));
        net.with_topology_mut(|t| t.remove_links(sw, gw));
    }
    assert_eq!(both(2.0), Err(NetError::Unreachable { from: "a".into(), to: "c".into() }));
    assert!(both(2.5).is_err());

    for net in [&held, &fresh] {
        let (sw, gw) = net.with_topology(|t| (t.node("sw").unwrap(), t.node("gw").unwrap()));
        net.with_topology_mut(|t| t.add_link(sw, gw, Link::building_hop()));
    }
    assert_eq!(both(1.0), Ok(first));
    assert_eq!(drain(&dst_h), drain(&dst_f));
    assert_eq!(held.metrics().snapshot_json(), fresh.metrics().snapshot_json());
}

/// Hosts of the differential's networks, and the addresses it sends
/// between; `c:late` is not registered until the run registers it.
const HOSTS: [&str; 3] = ["a", "b", "c"];
const ADDRS: [&str; 5] = ["a:x", "b:svc", "b:proc", "c:svc", "c:late"];

/// The fault plan of the differential's `k`th installation: seeded
/// drops, a crash with its restart, a latency spike and a partition,
/// all in the window after `t`.
fn plan(k: u64, t: f64) -> FaultPlan {
    FaultPlan::new(k)
        .drop_between("a", "b", 0.3)
        .drop_between("b", "c", 0.2)
        .host_crash("b", t + 0.5)
        .host_restart("b", t + 1.0)
        .latency_spike(t + 0.2, t + 0.9, 1.5, 1e-3)
        .partition(&["a"], &["c"], t + 1.2, t + 1.4)
}

/// The two networks of the differential, the endpoints registered on
/// both, and what those endpoints received before they went away.
struct Twin {
    held: Network,
    fresh: Network,
    eps: Vec<Option<[Endpoint; 2]>>,
    got: [Vec<Delivered>; 2],
}

impl Twin {
    fn new() -> Self {
        let eps = (0..ADDRS.len()).map(|_| None).collect();
        Self { held: small_net(), fresh: small_net(), eps, got: [Vec::new(), Vec::new()] }
    }

    fn each(&self, f: impl Fn(&Network)) {
        f(&self.held);
        f(&self.fresh);
    }

    /// Register `ADDRS[i]` on both networks at `t`, replacing (and
    /// draining) any endpoint already there.
    fn register(&mut self, i: usize, t: f64) {
        let reg = |net: &Network| match ADDRS[i].ends_with(":proc") {
            true => net.register_process(ADDRS[i], t).unwrap(),
            false => net.register(ADDRS[i]).unwrap(),
        };
        let old = self.eps[i].replace([reg(&self.held), reg(&self.fresh)]);
        self.retire(old);
    }

    /// Drop (after draining) the endpoints at `ADDRS[i]`.
    fn unregister(&mut self, i: usize) {
        let old = self.eps[i].take();
        self.retire(old);
    }

    fn retire(&mut self, eps: Option<[Endpoint; 2]>) {
        if let Some([h, f]) = eps {
            self.got[0].extend(drain(&h));
            self.got[1].extend(drain(&f));
        }
    }
}

/// Two networks driven through the same seeded script: one sends on
/// routes it resolved once and holds (and now and then by name), the
/// other always by name. Host state, fault plans (drops, crashes,
/// spikes, partitions), re-registrations, endpoint drops and topology
/// cuts are interleaved with the sends; every send's outcome, every
/// delivered envelope and the final metrics snapshot must be equal,
/// to the bit.
#[test]
fn held_routes_and_fresh_sends_agree_through_every_kind_of_change() {
    for seed in 0..24u64 {
        let mut g = Gen::new(0x5EED_0000 ^ seed);
        let mut twin = Twin::new();
        let mut t = 0.0;
        for i in 0..4 {
            twin.register(i, t);
        }
        let mut routes: Vec<Vec<Route>> = ADDRS
            .iter()
            .map(|from| ADDRS.iter().map(|to| twin.held.route(from, to)).collect())
            .collect();
        let mut plans = 0;
        for step in 0..400 {
            t += g.range(0.0, 0.05);
            match g.below(100) {
                0..=69 => {
                    let (from, to) = (g.index(ADDRS.len()), g.index(ADDRS.len()));
                    let body = payload(g.index(2_000));
                    let on_held = if g.below(4) == 0 {
                        twin.held.send(ADDRS[from], ADDRS[to], body.clone(), t)
                    } else {
                        twin.held.send_on(&mut routes[from][to], body.clone(), t)
                    };
                    let on_fresh = twin.fresh.send(ADDRS[from], ADDRS[to], body, t);
                    assert_eq!(bits(on_held), bits(on_fresh), "seed {seed} step {step}");
                }
                70..=76 => {
                    let (host, up) = (HOSTS[g.index(HOSTS.len())], g.below(3) != 0);
                    twin.each(|n| n.set_host_up(host, up));
                }
                77..=81 => {
                    plans += 1;
                    let install = g.below(4) != 0;
                    twin.each(|n| n.set_fault_plan(install.then(|| plan(plans, t))));
                }
                82..=88 => twin.register(g.index(ADDRS.len()), t),
                89..=93 => twin.unregister(g.index(ADDRS.len())),
                _ => {
                    let cut = g.flag();
                    twin.each(|net| {
                        let (sw, gw) =
                            net.with_topology(|t| (t.node("sw").unwrap(), t.node("gw").unwrap()));
                        net.with_topology_mut(|t| {
                            t.remove_links(sw, gw);
                            if !cut {
                                t.add_link(sw, gw, Link::building_hop());
                            }
                        });
                    });
                }
            }
        }
        for i in 0..ADDRS.len() {
            twin.unregister(i);
        }
        let [got_held, got_fresh] = &twin.got;
        assert!(!got_held.is_empty(), "seed {seed}: nothing was delivered");
        assert_eq!(got_held, got_fresh, "seed {seed}: envelopes");
        let snapshots = [&twin.held, &twin.fresh].map(|n| n.metrics().snapshot_json());
        assert_eq!(snapshots[0], snapshots[1], "seed {seed}: metrics");
    }
}
