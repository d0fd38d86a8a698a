//! The Table-2 transient the recovery examples crash and recover: its
//! world, its engine, its fuel schedule and its run.

use npss_sim::npss::engine_exec::Scheduling;
use npss_sim::npss::{service, ExecutiveEngine};
use npss_sim::schooner::{CallPolicy, Schooner};
use npss_sim::tess::schedules::Schedule;
use npss_sim::tess::transient::{TransientMethod, TransientResult};

pub const T_END: f64 = 1.0;
pub const DT: f64 = 0.02;

pub fn world() -> Result<Schooner, Box<dyn std::error::Error>> {
    Ok(service::world(false)?)
}

/// The Table-2 placement with checkpoint barriers every five solver
/// steps and a deliberately short-fused call policy.
pub fn table2_engine(sch: &Schooner) -> Result<ExecutiveEngine, Box<dyn std::error::Error>> {
    let policy = CallPolicy::new().idempotent(true).retries(1).backoff(0.1, 2.0, 0.1);
    let mut exec = service::table2_engine(sch, &policy, Scheduling::Sequential, 5)?;
    exec.max_recoveries = 20;
    Ok(exec)
}

pub fn fuel_schedule(exec: &ExecutiveEngine) -> Result<Schedule, Box<dyn std::error::Error>> {
    let wf_ref = exec.engine.design.wf;
    Ok(Schedule::new(vec![
        (0.0, 0.92 * wf_ref),
        (0.1 * T_END, 0.92 * wf_ref),
        (0.4 * T_END, wf_ref),
    ])?)
}

pub fn run(exec: &mut ExecutiveEngine) -> Result<TransientResult, Box<dyn std::error::Error>> {
    let fuel = fuel_schedule(exec)?;
    Ok(exec.run_transient(&fuel, TransientMethod::ImprovedEuler, DT, T_END)?)
}
