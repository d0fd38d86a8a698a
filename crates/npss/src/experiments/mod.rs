//! Reproductions of the paper's evaluation.
//!
//! * [`table1`] — the individual adapted-module tests over the five
//!   machine/network combinations of Table 1;
//! * [`table2`] — the combined test of Table 2 (six remote module
//!   instances across both sites);
//! * [`fig1`] — the cross-machine control-transfer demonstration behind
//!   Figure 1, plus per-machine-pair RPC cost measurements.
//!
//! The paper's tables report configurations and a correctness claim
//! (adapted modules converge and match the local-compute-only versions),
//! not absolute times; the rows produced here carry both the
//! configuration and the measured virtual-time/communication figures;
//! `npss-sim table1|table2|fig1` prints them, pinned in
//! `tests/golden/paper/`.

pub mod fig1;
pub mod table1;
pub mod table2;

/// Classify the network between two hosts the way the paper's Table 1
/// does.
pub fn network_class(sch: &schooner::Schooner, a: &str, b: &str) -> String {
    if a == b {
        return "same machine".to_owned();
    }
    let site = |host| netsim::sites::host_spec(host).expect("a testbed host").site;
    let gateways = sch.ctx().net.with_topology(|t| {
        let na = t.node(a).expect("host in topology");
        let nb = t.node(b).expect("host in topology");
        t.gateways_crossed(na, nb).unwrap_or(usize::MAX)
    });
    if site(a) != site(b) {
        "via Internet".to_owned()
    } else if gateways == 0 {
        "local Ethernet".to_owned()
    } else {
        "same building, multiple gateways".to_owned()
    }
}

/// Compare two transient traces sample-by-sample; returns the maximum
/// relative difference over N1, N2, and thrust.
pub fn max_rel_diff(
    a: &tess::transient::TransientResult,
    b: &tess::transient::TransientResult,
) -> f64 {
    let mut worst: f64 = 0.0;
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        for (x, y) in [(sa.n1, sb.n1), (sa.n2, sb.n2), (sa.thrust, sb.thrust)] {
            let scale = x.abs().max(y.abs()).max(1e-9);
            worst = worst.max((x - y).abs() / scale);
        }
    }
    if a.samples.len() != b.samples.len() {
        return f64::INFINITY;
    }
    worst
}
