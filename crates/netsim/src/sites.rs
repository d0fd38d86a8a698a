//! The NPSS test environment: NASA Lewis Research Center and The
//! University of Arizona, as used in the paper's Tables 1 and 2.
//!
//! Each site has Ethernet subnets hanging off gateway routers; the two
//! sites are joined by an Internet path. Machines are placed so that the
//! paper's three network classes all occur:
//!
//! * **local Ethernet** — two hosts on one subnet;
//! * **same building, multiple gateways** — the LeRC workstation lab and
//!   supercomputer center subnets (two gateway crossings);
//! * **via Internet** — anything between `lerc-*` and `ua-*`.
//!
//! [`TESTBED_HOSTS`] is the one table of hosts: the topology, the
//! recovery replicas and `hetsim`'s machine park are all read from it.

use crate::topology::{Link, NodeKind, Topology};

/// Which site a host belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// NASA Lewis Research Center, Cleveland.
    LewisResearchCenter,
    /// The University of Arizona, Tucson.
    UniversityOfArizona,
}

/// A host in the standard testbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// Topology node name.
    pub name: &'static str,
    /// Site the host lives at.
    pub site: Site,
    /// Human-readable machine description (matches the paper's tables).
    pub machine: &'static str,
    /// The switch node of the Ethernet subnet the host hangs off.
    pub subnet: &'static str,
}

/// The machines of the standard NPSS testbed, each subnet's hosts
/// together, in the order [`npss_testbed`] adds them.
///
/// At LeRC, the workstation lab subnet holds the Sparc 10 and both SGIs;
/// the supercomputer center subnet (two gateways away) holds the Cray,
/// the Convex, and the RS6000. At UA both hosts share one subnet.
pub const TESTBED_HOSTS: [HostSpec; 8] = {
    const fn host(
        name: &'static str,
        site: Site,
        machine: &'static str,
        subnet: &'static str,
    ) -> HostSpec {
        HostSpec { name, site, machine, subnet }
    }
    use Site::{LewisResearchCenter as LeRC, UniversityOfArizona as UA};
    [
        host("lerc-sparc10", LeRC, "Sun Sparc 10", "lerc-lab-net"),
        host("lerc-sgi-4d480", LeRC, "SGI 4D/480", "lerc-lab-net"),
        host("lerc-sgi-4d420", LeRC, "SGI 4D/420", "lerc-lab-net"),
        host("lerc-cray-ymp", LeRC, "Cray YMP", "lerc-scc-net"),
        host("lerc-convex", LeRC, "Convex C220", "lerc-scc-net"),
        host("lerc-rs6000", LeRC, "IBM RS6000", "lerc-scc-net"),
        host("ua-sparc10", UA, "Sun Sparc 10", "ua-net"),
        host("ua-sgi-4d340", UA, "SGI 4D/340", "ua-net"),
    ]
};

/// Adds `site`'s hosts in table order, each on an Ethernet link to its
/// subnet's switch.
fn add_hosts(t: &mut Topology, site: Site) {
    for h in TESTBED_HOSTS.iter().filter(|h| h.site == site) {
        let subnet = t.node(h.subnet).expect("a subnet's switch is added before its hosts");
        let host = t.add_node(h.name, NodeKind::Host);
        t.add_link(host, subnet, Link::ethernet());
    }
}

/// Build the standard two-site topology.
pub fn npss_testbed() -> Topology {
    let mut t = Topology::new();

    // --- NASA Lewis Research Center ---
    let lerc_lab = t.add_node("lerc-lab-net", NodeKind::Switch);
    let lerc_gw1 = t.add_node("lerc-gw1", NodeKind::Gateway);
    let lerc_gw2 = t.add_node("lerc-gw2", NodeKind::Gateway);
    let lerc_scc = t.add_node("lerc-scc-net", NodeKind::Switch);
    let lerc_border = t.add_node("lerc-border", NodeKind::Gateway);
    add_hosts(&mut t, Site::LewisResearchCenter);
    // lab — gw1 — gw2 — scc is the only internal path, so lab↔scc traffic
    // crosses two gateways ("same building, multiple gateways"); the
    // border router hangs off gw1 and carries only wide-area traffic.
    t.add_link(lerc_lab, lerc_gw1, Link::building_hop());
    t.add_link(lerc_gw1, lerc_gw2, Link::building_hop());
    t.add_link(lerc_gw2, lerc_scc, Link::building_hop());
    t.add_link(lerc_gw1, lerc_border, Link::building_hop());

    // --- The University of Arizona ---
    let ua_net = t.add_node("ua-net", NodeKind::Switch);
    let ua_border = t.add_node("ua-border", NodeKind::Gateway);
    add_hosts(&mut t, Site::UniversityOfArizona);
    t.add_link(ua_net, ua_border, Link::building_hop());

    // --- The Internet between them ---
    t.add_link(lerc_border, ua_border, Link::internet());

    t
}

/// Find the standard host spec for a topology node name.
pub fn host_spec(name: &str) -> Option<&'static HostSpec> {
    TESTBED_HOSTS.iter().find(|h| h.name == name)
}

/// The designated recovery replica for a testbed host, where a
/// supervised procedure can be respawned after its home host crashes:
/// the next host on the same subnet in [`TESTBED_HOSTS`] order, or, for
/// the subnet's last host, the one before it.
pub fn replica_of(host: &str) -> Option<&'static str> {
    let subnet = host_spec(host)?.subnet;
    let peers = TESTBED_HOSTS.iter().filter(|h| h.subnet == subnet);
    let next = peers.clone().skip_while(|h| h.name != host).nth(1);
    next.or_else(|| peers.take_while(|h| h.name != host).last()).map(|h| h.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_hosts_present() {
        let t = npss_testbed();
        for h in TESTBED_HOSTS {
            assert!(t.node(h.name).is_some(), "{} missing", h.name);
        }
    }

    #[test]
    fn network_classes_are_ordered() {
        let t = npss_testbed();
        let sparc = t.node("lerc-sparc10").unwrap();
        let sgi = t.node("lerc-sgi-4d480").unwrap();
        let convex = t.node("lerc-convex").unwrap();
        let ua = t.node("ua-sparc10").unwrap();
        let bytes = 256;
        let lan = t.transfer_seconds(sparc, sgi, bytes).unwrap();
        let building = t.transfer_seconds(sparc, convex, bytes).unwrap();
        let wan = t.transfer_seconds(sparc, ua, bytes).unwrap();
        assert!(lan < building, "lan {lan} < building {building}");
        assert!(building < wan, "building {building} < wan {wan}");
    }

    #[test]
    fn building_path_crosses_multiple_gateways() {
        let t = npss_testbed();
        let sparc = t.node("lerc-sparc10").unwrap();
        let cray = t.node("lerc-cray-ymp").unwrap();
        let gws = t.gateways_crossed(sparc, cray).unwrap();
        assert!(gws >= 2, "expected multiple gateways, got {gws}");
    }

    #[test]
    fn lan_path_crosses_no_gateway() {
        let t = npss_testbed();
        let a = t.node("lerc-sparc10").unwrap();
        let b = t.node("lerc-sgi-4d480").unwrap();
        assert_eq!(t.gateways_crossed(a, b), Some(0));
    }

    #[test]
    fn wan_partition_cuts_sites_apart() {
        let mut t = npss_testbed();
        let lb = t.node("lerc-border").unwrap();
        let ub = t.node("ua-border").unwrap();
        assert_eq!(t.remove_links(lb, ub), 1);
        let a = t.node("lerc-sparc10").unwrap();
        let b = t.node("ua-sparc10").unwrap();
        assert_eq!(t.transfer_seconds(a, b, 1), None);
        // Intra-site traffic unaffected.
        let c = t.node("lerc-cray-ymp").unwrap();
        assert!(t.transfer_seconds(a, c, 1).is_some());
    }

    #[test]
    fn host_spec_lookup() {
        assert_eq!(host_spec("lerc-cray-ymp").unwrap().machine, "Cray YMP");
        assert_eq!(host_spec("ua-sparc10").unwrap().site, Site::UniversityOfArizona);
        assert!(host_spec("nonesuch").is_none());
    }

    #[test]
    fn replicas_are_the_paired_hosts() {
        let pairs = TESTBED_HOSTS.map(|h| (h.name, replica_of(h.name).unwrap()));
        assert_eq!(
            pairs,
            [
                ("lerc-sparc10", "lerc-sgi-4d480"),
                ("lerc-sgi-4d480", "lerc-sgi-4d420"),
                ("lerc-sgi-4d420", "lerc-sgi-4d480"),
                ("lerc-cray-ymp", "lerc-convex"),
                ("lerc-convex", "lerc-rs6000"),
                ("lerc-rs6000", "lerc-convex"),
                ("ua-sparc10", "ua-sgi-4d340"),
                ("ua-sgi-4d340", "ua-sparc10"),
            ]
        );
        assert!(replica_of("nonesuch").is_none());
    }
}
