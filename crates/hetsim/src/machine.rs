//! Machine descriptions and the machine park.

use std::collections::HashMap;
use std::sync::Arc;

use uts::Architecture;

use crate::load::{LoadCell, LoadModel};

/// A machine available to run remote procedures.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Topology host name (a `netsim::sites::TESTBED_HOSTS` name in the
    /// standard park).
    pub host: String,
    /// The machine's architecture (data formats, naming conventions).
    pub arch: Architecture,
    /// Human-readable description, as it appears in the paper's tables.
    pub description: String,
    /// Sustained compute rate in simulated MFLOP/s at zero load.
    pub speed_mflops: f64,
}

impl Machine {
    /// Virtual seconds needed to execute `flops` floating-point operations
    /// at the given load factor (`load` ≥ 0; 0 means idle, 1 means the
    /// machine is doing one competing job's worth of other work).
    pub fn compute_seconds(&self, flops: f64, load: f64) -> f64 {
        compute_seconds(self.speed_mflops, flops, load)
    }
}

/// Virtual seconds for `flops` on a machine of `speed_mflops` at `load`.
fn compute_seconds(speed_mflops: f64, flops: f64, load: f64) -> f64 {
    let effective = speed_mflops * 1e6 / (1.0 + load.max(0.0));
    flops.max(0.0) / effective
}

/// One host's compute cost, resolved once
/// ([`MachinePark::cost`]): its machine's speed and a handle on the
/// host's load cell. The load is read on every call, so a
/// [`LoadModel::set`] acts on the very next one. Cloning is cheap.
#[derive(Clone)]
pub struct HostCost {
    speed_mflops: f64,
    load: LoadCell,
}

impl HostCost {
    /// Virtual seconds for `flops` of work on the host at its current
    /// load, exactly as [`MachinePark::compute_seconds`] answers.
    pub fn compute_seconds(&self, flops: f64) -> f64 {
        compute_seconds(self.speed_mflops, flops, self.load.get())
    }
}

/// The set of machines known to a simulation run, with their load state.
///
/// Shared between the Schooner Servers (which consult it when starting
/// processes) and the experiment harness (which perturbs load to provoke
/// migrations).
#[derive(Clone)]
pub struct MachinePark {
    inner: Arc<ParkInner>,
}

struct ParkInner {
    machines: HashMap<String, Machine>,
    load: LoadModel,
}

impl MachinePark {
    /// Build a park from a list of machines.
    pub fn new(machines: impl IntoIterator<Item = Machine>) -> Self {
        let machines: HashMap<String, Machine> =
            machines.into_iter().map(|m| (m.host.clone(), m)).collect();
        Self { inner: Arc::new(ParkInner { machines, load: LoadModel::new() }) }
    }

    /// Look up a machine by host name.
    pub fn machine(&self, host: &str) -> Option<&Machine> {
        self.inner.machines.get(host)
    }

    /// The architecture of a host, if known.
    pub fn arch_of(&self, host: &str) -> Option<Architecture> {
        self.machine(host).map(|m| m.arch)
    }

    /// All host names in the park, sorted for determinism.
    pub fn hosts(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.inner.machines.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// The load model (shared, mutable through interior mutability).
    pub fn load(&self) -> &LoadModel {
        &self.inner.load
    }

    /// Virtual seconds for `flops` of work on `host` at its current load.
    /// `None` when the host is unknown.
    pub fn compute_seconds(&self, host: &str, flops: f64) -> Option<f64> {
        let m = self.machine(host)?;
        Some(m.compute_seconds(flops, self.inner.load.get(host)))
    }

    /// The cost handle of `host`, for a caller that charges compute on
    /// it often: it answers [`compute_seconds`](Self::compute_seconds)
    /// without looking the host up. `None` when the host is unknown.
    pub fn cost(&self, host: &str) -> Option<HostCost> {
        let speed_mflops = self.machine(host)?.speed_mflops;
        Some(HostCost { speed_mflops, load: self.inner.load.cell(host) })
    }
}

/// The standard machine park: one machine per host of
/// `netsim::sites::TESTBED_HOSTS`.
///
/// Speeds are relative, tuned so that (as in 1992) the Cray dominates on
/// raw floating-point throughput while workstations pay far less in
/// network distance.
pub fn standard_park() -> MachinePark {
    MachinePark::new(netsim::sites::TESTBED_HOSTS.iter().map(|h| {
        let (arch, speed_mflops) = match h.machine {
            "Sun Sparc 10" => (Architecture::SunSparc10, 10.0),
            "SGI 4D/480" => (Architecture::Sgi4D, 32.0),
            "SGI 4D/420" => (Architecture::Sgi4D, 24.0),
            "SGI 4D/340" => (Architecture::Sgi4D, 18.0),
            "Cray YMP" => (Architecture::CrayYmp, 300.0),
            "Convex C220" => (Architecture::ConvexC220, 50.0),
            "IBM RS6000" => (Architecture::IbmRs6000, 40.0),
            other => panic!("no machine model for testbed machine {other:?}"),
        };
        Machine { host: h.name.to_owned(), arch, description: h.machine.to_owned(), speed_mflops }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_park_matches_testbed_hosts() {
        let park = standard_park();
        let topo = netsim::npss_testbed();
        for host in park.hosts() {
            assert!(topo.node(host).is_some(), "{host} not in topology");
        }
        for host in topo.hosts() {
            assert!(park.machine(host).is_some(), "{host} not in park");
        }
    }

    #[test]
    fn compute_time_inverse_to_speed() {
        let park = standard_park();
        let cray = park.compute_seconds("lerc-cray-ymp", 1e6).unwrap();
        let sparc = park.compute_seconds("lerc-sparc10", 1e6).unwrap();
        assert!(cray < sparc / 10.0, "cray {cray} vs sparc {sparc}");
    }

    #[test]
    fn load_slows_machines_down() {
        let park = standard_park();
        let idle = park.compute_seconds("lerc-rs6000", 1e6).unwrap();
        park.load().set("lerc-rs6000", 3.0);
        let busy = park.compute_seconds("lerc-rs6000", 1e6).unwrap();
        assert!((busy / idle - 4.0).abs() < 1e-9);
    }

    /// A handle resolved before the load moves reads the new load on
    /// its next call, bit for bit as the park does by name.
    #[test]
    fn a_cost_handle_reads_load_set_after_it_was_resolved() {
        let park = standard_park();
        let cost = park.cost("lerc-rs6000").unwrap();
        let idle = cost.compute_seconds(1e6);
        assert_eq!(idle.to_bits(), park.compute_seconds("lerc-rs6000", 1e6).unwrap().to_bits());
        park.load().set("lerc-rs6000", 3.0);
        let busy = cost.compute_seconds(1e6);
        assert_eq!(busy.to_bits(), park.compute_seconds("lerc-rs6000", 1e6).unwrap().to_bits());
        assert!((busy / idle - 4.0).abs() < 1e-9);
        assert_eq!(park.load().add("lerc-rs6000", -1.0), 2.0);
        let again = park.compute_seconds("lerc-rs6000", 1e6).unwrap();
        assert_eq!(cost.compute_seconds(1e6).to_bits(), again.to_bits());
        assert!((again / idle - 3.0).abs() < 1e-9);
        assert!(park.cost("nonesuch").is_none());
    }

    #[test]
    fn unknown_host_is_none() {
        let park = standard_park();
        assert!(park.compute_seconds("nonesuch", 1.0).is_none());
        assert!(park.arch_of("nonesuch").is_none());
    }

    #[test]
    fn arch_lookup() {
        let park = standard_park();
        assert_eq!(park.arch_of("lerc-cray-ymp"), Some(Architecture::CrayYmp));
        assert_eq!(park.arch_of("lerc-convex"), Some(Architecture::ConvexC220));
        assert_eq!(park.arch_of("ua-sparc10"), Some(Architecture::SunSparc10));
    }

    #[test]
    fn negative_work_and_load_are_clamped() {
        let m = Machine {
            host: "x".into(),
            arch: Architecture::SunSparc10,
            description: "t".into(),
            speed_mflops: 1.0,
        };
        assert_eq!(m.compute_seconds(-5.0, 0.0), 0.0);
        assert_eq!(m.compute_seconds(1e6, -2.0), 1.0);
    }

    #[test]
    fn hosts_sorted() {
        let park = standard_park();
        let hosts = park.hosts();
        let mut sorted = hosts.clone();
        sorted.sort_unstable();
        assert_eq!(hosts, sorted);
    }
}
