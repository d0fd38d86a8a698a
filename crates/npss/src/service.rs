//! Simulation-as-a-service: seeded session workloads for the pool.
//!
//! The paper frames NPSS as a *shared* facility — many engineers'
//! simulations against the same heterogeneous testbed. This module is
//! the workload side of that service: a [`SessionRequest`] names a
//! tenant, a seed, one of the paper-shaped workloads (Table-2 transient,
//! steady-state solve, flood sweep) and config knobs; [`run_session`]
//! builds a **fresh world** for the request and returns a
//! [`SessionReport`] with a bit-exact transcript, a digest, the world's
//! metrics snapshot, and the session's virtual-time cost.
//!
//! Fresh-world-per-session is the determinism argument: a world owns its
//! process counter, its metrics registry, and its virtual clocks, so the
//! same seeded request produces byte-identical transcripts and snapshots
//! no matter what else the pool is running — solo, or under a saturated
//! eight-worker shard. The pool (`schooner::pool`) never reaches into a
//! session world; sessions never share state.

use netsim::{FaultPlan, LinkConfig};
use schooner::{CallPolicy, Schooner, SchoonerConfig};
use tess::engine::Turbofan;
use tess::schedules::Schedule;
use tess::transient::TransientMethod;
use testkit::SplitMix64;

use crate::engine_exec::{ExecutiveEngine, Scheduling, WavePlan};
use crate::f100::TABLE2_PLACEMENT;
use crate::procs;
use crate::sweep::{SweepConfig, SweepDriver};
use crate::RemoteExec;

/// What a session computes. Each variant is one of the traffic shapes
/// the paper's evaluation exercises.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Balance the engine at `wf_frac` of design fuel flow over the
    /// Table-2 remote placement.
    SteadyState {
        /// Fraction of design `wf` to balance at (seed-jittered ±2%).
        wf_frac: f64,
    },
    /// The Table-2 combined transient: six remote module instances
    /// across both sites, improved-Euler integration.
    Transient {
        /// Transient length, virtual seconds.
        t_end: f64,
        /// Fixed step, virtual seconds.
        dt: f64,
    },
    /// The design-space flood: `variants` evaluations fanned over
    /// `lines` module lines (the PR-8 transport traffic shape).
    FloodSweep {
        /// Concurrent module lines.
        lines: usize,
        /// Total variants to evaluate.
        variants: usize,
    },
}

/// A seeded host-crash injection for one session's world, in absolute
/// virtual seconds of that world. Recovery rides the existing
/// supervision/checkpoint machinery; the session still reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPlan {
    /// Which simulated host dies.
    pub host: String,
    /// Virtual instant of the crash.
    pub t_crash_s: f64,
    /// Virtual instant of the reboot.
    pub t_restart_s: f64,
}

/// Per-session configuration knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionKnobs {
    /// Install default link batching (coalescing) on the session world.
    pub link_batching: bool,
    /// Solver-step call ordering for engine workloads.
    pub scheduling: Scheduling,
    /// Optional seeded fault injection.
    pub crash: Option<CrashPlan>,
}

impl Default for SessionKnobs {
    fn default() -> Self {
        Self { link_batching: false, scheduling: Scheduling::Sequential, crash: None }
    }
}

/// One tenant's request for one seeded simulation session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Who is asking (keys the pool's per-tenant limiter).
    pub tenant: String,
    /// Seed for every random choice the session makes.
    pub seed: u64,
    /// What to compute.
    pub workload: Workload,
    /// How to configure the session's world.
    pub knobs: SessionKnobs,
}

impl SessionRequest {
    /// A request with default knobs.
    pub fn new(tenant: &str, seed: u64, workload: Workload) -> Self {
        Self { tenant: tenant.into(), seed, workload, knobs: SessionKnobs::default() }
    }
}

/// What a session hands back to its tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The requesting tenant.
    pub tenant: String,
    /// The request seed.
    pub seed: u64,
    /// Bit-exact result transcript: one line per sample, each `f64`
    /// rendered as `to_bits` hex — byte-comparable across runs.
    pub transcript: Vec<String>,
    /// FNV-1a fold of the transcript (a cheap equality fingerprint).
    pub digest: u64,
    /// The session world's full deterministic metrics snapshot.
    pub metrics_json: String,
    /// Virtual time on the world's clock when the workload began.
    pub virtual_start_s: f64,
    /// Virtual time when the workload finished.
    pub virtual_end_s: f64,
    /// Messages the injected fault plan dropped (0 without a crash).
    pub fault_drops: u64,
    /// Call-policy retries the session needed (0 on a clean run).
    pub policy_retries: u64,
}

impl SessionReport {
    /// The session's virtual-time cost: what it occupied the simulated
    /// testbed for. This is the service-model `service_s` input.
    pub fn virtual_cost_s(&self) -> f64 {
        self.virtual_end_s - self.virtual_start_s
    }
}

/// FNV-1a over the transcript lines (with a separator per line).
fn digest_lines(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x0a;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The F100 graph's execution waves (as the AVS leveling pass derives
/// them): bypass duct ∥ combustor, the two shafts together, then the
/// tailpipe and nozzle each alone on the critical path.
pub fn f100_wave_plan() -> WavePlan {
    WavePlan {
        waves: vec![
            vec!["bypass duct".into(), "combustor".into()],
            vec!["low speed shaft".into(), "high speed shaft".into()],
            vec!["tailpipe duct".into()],
            vec!["nozzle".into()],
        ],
    }
}

/// A fresh standard world with the four adapted-module images installed
/// on every host — the Table-2 world every session, suite, bench and
/// example runs in. `link_batching` installs the default link config.
pub fn world(link_batching: bool) -> Result<Schooner, String> {
    let config = if link_batching {
        SchoonerConfig::builder().link_batching(LinkConfig).build()
    } else {
        SchoonerConfig::default()
    };
    let sch = Schooner::standard_with(config).map_err(|e| e.to_string())?;
    let hosts: Vec<String> = sch.ctx().park.hosts().iter().map(|s| s.to_string()).collect();
    let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    for (path, image) in [
        (procs::SHAFT_PATH, procs::shaft_image()),
        (procs::DUCT_PATH, procs::duct_image()),
        (procs::COMBUSTOR_PATH, procs::combustor_image()),
        (procs::NOZZLE_PATH, procs::nozzle_image()),
    ] {
        sch.install_program(path, image, &host_refs).map_err(|e| e.to_string())?;
    }
    Ok(sch)
}

/// The Table-2 placement bound to a fresh executive: six module lines
/// opened from `ua-sparc10` in [`TABLE2_PLACEMENT`]'s order (line and
/// process ids are part of the byte-identity surface), every slot
/// calling under `policy`, the F100 wave plan installed, and a checkpoint
/// barrier every `checkpoint_interval` solver steps (0 disables crash
/// recovery).
pub fn table2_engine(
    sch: &Schooner,
    policy: &CallPolicy,
    scheduling: Scheduling,
    checkpoint_interval: usize,
) -> Result<ExecutiveEngine, String> {
    let mut exec = ExecutiveEngine::all_local(Turbofan::f100()?)?;
    exec.scheduling = scheduling;
    exec.wave_plan = f100_wave_plan();
    for (slot, path, machine) in TABLE2_PLACEMENT {
        let line = sch.open_line(slot, "ua-sparc10").map_err(|e| e.to_string())?;
        let remote = RemoteExec::start(line, path, machine)?.with_policy(policy.clone());
        exec.set_remote(slot, remote)?;
    }
    exec.checkpoint_interval = checkpoint_interval;
    Ok(exec)
}

/// The Table-2 engine under the recovery policy every pooled session
/// uses: idempotent component evaluations and a retry budget generous
/// enough that a crash-window reboot lands inside it.
fn session_engine(sch: &Schooner, scheduling: Scheduling) -> Result<ExecutiveEngine, String> {
    let policy = CallPolicy::new().idempotent(true).retries(12).backoff(0.25, 2.0, 4.0);
    table2_engine(sch, &policy, scheduling, 4)
}

/// The session's virtual clock: the bypass-duct line's `now()` (every
/// engine workload places that slot remotely).
fn vnow(exec: &mut ExecutiveEngine) -> Result<f64, String> {
    exec.line_now("bypass duct").ok_or_else(|| "bypass duct is not remote".into())
}

fn hex_line(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 17);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{:016x}", v.to_bits()));
    }
    out
}

/// Run one seeded session in a fresh world and report. Every random
/// choice derives from `req.seed`, every clock is virtual, and the world
/// is torn down before the report is returned — nothing leaks between
/// sessions.
pub fn run_session(req: &SessionRequest) -> Result<SessionReport, String> {
    let mut rng = SplitMix64::new(req.seed);
    let sch = world(req.knobs.link_batching)?;
    if let Some(crash) = &req.knobs.crash {
        sch.ctx().net.set_fault_plan(Some(
            FaultPlan::new(req.seed)
                .host_crash(&crash.host, crash.t_crash_s)
                .host_restart(&crash.host, crash.t_restart_s),
        ));
    }

    let outcome = run_workload(&sch, req, &mut rng);

    sch.ctx().net.set_fault_plan(None);
    let metrics_json = sch.ctx().obs.metrics().snapshot_json();
    let fault_drops = sch.ctx().obs.metrics().counter("net.fault.hostdown");
    let policy_retries = sch.ctx().obs.metrics().counter("rpc.retries.policy");
    sch.shutdown();

    let (transcript, virtual_start_s, virtual_end_s) = outcome?;
    Ok(SessionReport {
        tenant: req.tenant.clone(),
        seed: req.seed,
        digest: digest_lines(&transcript),
        transcript,
        metrics_json,
        virtual_start_s,
        virtual_end_s,
        fault_drops,
        policy_retries,
    })
}

/// The workload body: returns (transcript, virtual start, virtual end).
fn run_workload(
    sch: &Schooner,
    req: &SessionRequest,
    rng: &mut SplitMix64,
) -> Result<(Vec<String>, f64, f64), String> {
    match &req.workload {
        Workload::Transient { t_end, dt } => {
            let mut exec = session_engine(sch, req.knobs.scheduling)?;
            let start = vnow(&mut exec)?;
            // A seed-specific throttle move: idle fraction, push level,
            // and ramp shape all drawn from the session's stream.
            let wf_ref = exec.engine.design.wf;
            let idle = rng.range(0.90, 0.94);
            let push = rng.range(0.98, 1.0);
            let knee = rng.range(0.2, 0.5);
            let fuel = Schedule::new(vec![
                (0.0, idle * wf_ref),
                (knee * t_end, idle * wf_ref),
                (0.8 * t_end, push * wf_ref),
            ])
            .map_err(|e| e.to_string())?;
            let result = exec
                .run_transient(&fuel, TransientMethod::ImprovedEuler, *dt, *t_end)
                .map_err(|e| e.to_string())?;
            let end = vnow(&mut exec)?;
            exec.shutdown();
            let transcript = result
                .samples
                .iter()
                .map(|s| hex_line(&[s.t, s.n1, s.n2, s.wf, s.thrust, s.t4, s.w2]))
                .collect();
            Ok((transcript, start, end))
        }
        Workload::SteadyState { wf_frac } => {
            let mut exec = session_engine(sch, req.knobs.scheduling)?;
            let start = vnow(&mut exec)?;
            let jitter = rng.range(0.98, 1.02);
            let wf = (wf_frac * jitter).clamp(0.85, 1.05) * exec.engine.design.wf;
            let op = exec.balance(wf)?;
            let end = vnow(&mut exec)?;
            exec.shutdown();
            let transcript = vec![hex_line(&[op.n1, op.n2, op.wf, op.thrust, op.sfc, op.bpr])];
            Ok((transcript, start, end))
        }
        Workload::FloodSweep { lines, variants } => {
            let cfg = SweepConfig { lines: *lines, variants: *variants, seed: req.seed };
            let mut driver = SweepDriver::start(sch, cfg).map_err(|e| e.to_string())?;
            let report = driver.run().map_err(|e| e.to_string())?;
            driver.shutdown();
            let transcript =
                vec![format!("{:016x} {:016x}", report.checksum, report.makespan_s.to_bits())];
            Ok((transcript, 0.0, report.makespan_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_transcripts() {
        let a = vec!["00ff".to_string(), "aa".to_string()];
        let b = vec!["00".to_string(), "ffaa".to_string()];
        assert_ne!(digest_lines(&a), digest_lines(&b), "line boundaries must be part of the fold");
        assert_eq!(digest_lines(&a), digest_lines(&a.clone()));
    }

    #[test]
    fn hex_line_roundtrips_bits() {
        let line = hex_line(&[1.0, -0.0, f64::MIN_POSITIVE]);
        let parts: Vec<&str> = line.split(' ').collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(u64::from_str_radix(parts[0], 16).unwrap(), 1.0_f64.to_bits());
        assert_eq!(u64::from_str_radix(parts[1], 16).unwrap(), (-0.0_f64).to_bits());
    }

    #[test]
    fn same_seed_same_fuel_profile() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(a.range(0.90, 0.94).to_bits(), b.range(0.90, 0.94).to_bits());
    }
}
