//! Table 2: the combined test.
//!
//! TESS executes on the Sun Sparc 10 at The University of Arizona with
//! six remote module instances: the combustor on the SGI 4D/340 at UA,
//! two duct instances on the Cray Y-MP at LeRC, the nozzle on the SGI
//! 4D/420 at LeRC, and two shaft instances on the IBM RS6000 at LeRC.
//! TESS is run through a steady-state computation using the
//! Newton–Raphson method to balance the engine and a one-second transient
//! using the Improved Euler method; to verify the adapted modules, the
//! results are compared with the same computation using the original
//! local-compute-only versions.

use std::sync::Arc;

use schooner::Schooner;
use tess::transient::TransientResult;

use crate::engine_exec::ExecReportRow;
use crate::experiments::{max_rel_diff, network_class};
use crate::f100::{F100Network, RemotePlacement};

/// The AVS machine of the Table 2 run.
pub(crate) const TABLE2_AVS_MACHINE: &str = "ua-sparc10";

/// Run configuration. The paper's run is the default: a steady-state
/// balance followed by a one-second transient with Improved Euler.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Transient length, seconds (paper: 1.0).
    pub t_end: f64,
    /// Integrator step, seconds.
    pub dt: f64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Self { t_end: 1.0, dt: 0.02 }
    }
}

/// Per-remote-module row of the combined test.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Module type ("duct", "shaft", …).
    pub module: String,
    /// Number of instances placed on this machine.
    pub instances: usize,
    /// Remote machine.
    pub remote_machine: String,
    /// Network class between the AVS machine and the remote machine.
    pub network: String,
    /// Remote calls across all instances.
    pub calls: u64,
    /// Virtual seconds across all instances.
    pub virtual_seconds: f64,
}

/// The outcome of the combined test.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// Per-module rows (paper's table shape).
    pub rows: Vec<Table2Row>,
    /// The remote-configuration transient.
    pub remote_result: TransientResult,
    /// The all-local baseline transient.
    pub local_result: TransientResult,
    /// Maximum relative deviation between the two.
    pub max_rel_diff: f64,
    /// Total remote calls.
    pub total_calls: u64,
    /// End-to-end simulated seconds of the remote run's communication.
    pub total_virtual_seconds: f64,
}

impl Table2Report {
    /// The verification criterion: remote equals local.
    pub fn matches_local(&self) -> bool {
        self.max_rel_diff < 1e-6
    }
}

/// Run the combined test.
pub fn run_table2(sch: &Arc<Schooner>, cfg: &Table2Config) -> Result<Table2Report, String> {
    // Baseline: original local-compute-only versions.
    let mut local_net = F100Network::build(sch.clone(), TABLE2_AVS_MACHINE)?;
    local_net.apply_placement(&RemotePlacement::all_local())?;
    let local_result = local_net.run("Modified Euler", cfg.t_end, cfg.dt)?;

    // The Table 2 placement.
    let mut net = F100Network::build(sch.clone(), TABLE2_AVS_MACHINE)?;
    net.apply_placement(&RemotePlacement::table2())?;
    let remote_result = net.run("Modified Euler", cfg.t_end, cfg.dt)?;
    let report: Vec<ExecReportRow> = net.report();

    // Aggregate per (module type, machine), as the paper's table does.
    let mut rows: Vec<Table2Row> = Vec::new();
    for r in report.iter().filter(|r| r.location != "local") {
        let mtype = net
            .services
            .module_type_of(&r.module)
            .ok_or_else(|| format!("no component type recorded for slot '{}'", r.module))?;
        if let Some(row) =
            rows.iter_mut().find(|row| row.module == mtype && row.remote_machine == r.location)
        {
            row.instances += 1;
            row.calls += r.calls;
            row.virtual_seconds += r.virtual_seconds;
        } else {
            rows.push(Table2Row {
                module: mtype,
                instances: 1,
                remote_machine: r.location.clone(),
                network: network_class(sch, TABLE2_AVS_MACHINE, &r.location),
                calls: r.calls,
                virtual_seconds: r.virtual_seconds,
            });
        }
    }
    rows.sort_by(|a, b| a.module.cmp(&b.module));

    let total_calls = rows.iter().map(|r| r.calls).sum();
    let total_virtual_seconds = rows.iter().map(|r| r.virtual_seconds).fold(0.0, f64::max);
    let diff = max_rel_diff(&remote_result, &local_result);
    Ok(Table2Report {
        rows,
        remote_result,
        local_result,
        max_rel_diff: diff,
        total_calls,
        total_virtual_seconds,
    })
}

/// Render the report in the paper's table shape plus measured columns.
pub fn render_table2(rep: &Table2Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TESS Simulation executed on Sun Sparc 10 at U. of Arizona ({TABLE2_AVS_MACHINE})\n"
    ));
    out.push_str(
        "| Module    | # of Instances | Remote Machine  | Network                           | Calls | sim seconds |\n",
    );
    out.push_str(
        "|-----------|----------------|-----------------|-----------------------------------|-------|-------------|\n",
    );
    for r in &rep.rows {
        out.push_str(&format!(
            "| {:<9} | {:>14} | {:<15} | {:<33} | {:>5} | {:>11.3} |\n",
            r.module, r.instances, r.remote_machine, r.network, r.calls, r.virtual_seconds
        ));
    }
    out.push_str(&format!(
        "\nsteady state: Newton-Raphson; transient: {:.1} s Improved Euler (dt = {} s)\n",
        rep.remote_result.samples.last().map(|s| s.t).unwrap_or(0.0),
        rep.remote_result.dt,
    ));
    out.push_str(&format!(
        "remote vs local max relative difference: {:.3e} -> {}\n",
        rep.max_rel_diff,
        if rep.matches_local() { "MATCH" } else { "MISMATCH" }
    ));
    out
}
