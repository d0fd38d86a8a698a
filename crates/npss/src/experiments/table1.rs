//! Table 1: individual adapted-module tests.
//!
//! Each adapted AVS module is tested separately on the paper's five
//! machine combinations spanning local Ethernet, multi-gateway building
//! networks, and the Internet between Lewis Research Center and The
//! University of Arizona. Since TESS provides a complete engine model,
//! each adapted module is verified by running the steady-state and
//! transient calculations to convergence and comparing against the
//! all-local baseline.

use std::sync::Arc;

use schooner::Schooner;

use crate::experiments::{max_rel_diff, network_class};
use crate::f100::{F100Network, RemotePlacement};

/// One machine combination from Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineCombo {
    /// Host running the executive (the AVS machine).
    pub avs_machine: &'static str,
    /// Host running the remote computation.
    pub remote_machine: &'static str,
}

/// The five combinations of Table 1.
pub const TABLE1_COMBOS: [MachineCombo; 5] = [
    // Sun Sparc 10 -> SGI 4D/480, local Ethernet.
    MachineCombo { avs_machine: "lerc-sparc10", remote_machine: "lerc-sgi-4d480" },
    // Sun Sparc 10 -> Convex C220, same building, multiple gateways.
    MachineCombo { avs_machine: "lerc-sparc10", remote_machine: "lerc-convex" },
    // SGI 4D/480 -> Cray YMP, same building, multiple gateways.
    MachineCombo { avs_machine: "lerc-sgi-4d480", remote_machine: "lerc-cray-ymp" },
    // SGI 4D/480 (LeRC) -> Sun Sparc 10 (UA), via Internet.
    MachineCombo { avs_machine: "lerc-sgi-4d480", remote_machine: "ua-sparc10" },
    // Sun Sparc 10 (UA) -> IBM RS6000 (LeRC), via Internet.
    MachineCombo { avs_machine: "ua-sparc10", remote_machine: "lerc-rs6000" },
];

/// Which adapted module a Table 1 run exercises (the paper tested each
/// separately), with the engine slot placed remotely to test it: for the
/// duct and shaft, the bypass duct and the low-speed shaft stand in for
/// "the" module.
pub const TABLE1_MODULES: [(&str, &str); 4] = [
    ("shaft", "low speed shaft"),
    ("duct", "bypass duct"),
    ("combustor", "combustor"),
    ("nozzle", "nozzle"),
];

/// Run configuration (durations kept settable so a run can be short).
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Transient length, seconds.
    pub t_end: f64,
    /// Integrator step, seconds.
    pub dt: f64,
    /// Transient method widget value.
    pub method: String,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self { t_end: 1.0, dt: 0.02, method: "Modified Euler".to_owned() }
    }
}

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// AVS machine (testbed host name).
    pub avs_machine: String,
    /// Remote machine.
    pub remote_machine: String,
    /// Network class, as in the paper's third column.
    pub network: String,
    /// Adapted module under test.
    pub module: String,
    /// Remote calls made during the run.
    pub calls: u64,
    /// Virtual seconds of communication + remote compute.
    pub virtual_seconds: f64,
    /// Mean virtual milliseconds per remote call.
    pub per_call_ms: f64,
    /// Steady state + transient completed.
    pub converged: bool,
    /// Maximum relative deviation from the all-local baseline.
    pub max_rel_diff: f64,
}

impl Table1Row {
    /// The correctness claim of the paper: the adapted module's results
    /// match the original local-compute-only version.
    pub fn matches_local(&self) -> bool {
        self.converged && self.max_rel_diff < 1e-6
    }
}

/// Run the full Table 1 sweep: every combination × every adapted module.
pub fn run_table1(sch: &Arc<Schooner>, cfg: &Table1Config) -> Result<Vec<Table1Row>, String> {
    let mut rows = Vec::new();
    for combo in TABLE1_COMBOS {
        // All-local baseline on this AVS machine.
        let mut baseline_net = F100Network::build(sch.clone(), combo.avs_machine)?;
        baseline_net.apply_placement(&RemotePlacement::all_local())?;
        let baseline = baseline_net.run(&cfg.method, cfg.t_end, cfg.dt)?;

        for (module, slot) in TABLE1_MODULES {
            let mut net = F100Network::build(sch.clone(), combo.avs_machine)?;
            net.apply_placement(&RemotePlacement::all_local().with(slot, combo.remote_machine))?;
            let result = net.run(&cfg.method, cfg.t_end, cfg.dt);
            let (converged, diff) = match &result {
                Ok(r) => (true, max_rel_diff(r, &baseline)),
                Err(_) => (false, f64::INFINITY),
            };
            let report = net.report();
            let stats = report.iter().find(|r| r.module == slot).cloned().unwrap_or_else(|| {
                crate::engine_exec::ExecReportRow {
                    module: slot.to_owned(),
                    location: combo.remote_machine.to_owned(),
                    calls: 0,
                    virtual_seconds: 0.0,
                }
            });
            rows.push(Table1Row {
                avs_machine: combo.avs_machine.to_owned(),
                remote_machine: combo.remote_machine.to_owned(),
                network: network_class(sch, combo.avs_machine, combo.remote_machine),
                module: module.to_owned(),
                calls: stats.calls,
                virtual_seconds: stats.virtual_seconds,
                per_call_ms: if stats.calls > 0 {
                    stats.virtual_seconds * 1e3 / stats.calls as f64
                } else {
                    0.0
                },
                converged,
                max_rel_diff: diff,
            });
        }
    }
    Ok(rows)
}

/// Render the rows as the paper-style table plus measured columns.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "| AVS Machine      | Remote Machine   | Connecting Network                | Module    | Calls | per-call (sim ms) | matches local |\n",
    );
    out.push_str(
        "|------------------|------------------|-----------------------------------|-----------|-------|-------------------|---------------|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:<16} | {:<16} | {:<33} | {:<9} | {:>5} | {:>17.3} | {:<13} |\n",
            r.avs_machine,
            r.remote_machine,
            r.network,
            r.module,
            r.calls,
            r.per_call_ms,
            if r.matches_local() { "yes" } else { "NO" },
        ));
    }
    out
}
