//! The executive's engine: TESS's gas path with the adapted components
//! routed through [`Exec`] executors.
//!
//! The F100 network contains six module instances with (potentially)
//! remote computations: two ducts (bypass and tailpipe), one combustor,
//! one nozzle, and two shafts. [`ExecutiveEngine::evaluate`] *is*
//! [`tess::Turbofan::evaluate_with`]: the gas path is TESS's own, and
//! its four adapted slots (the two ducts, the combustor and the nozzle)
//! answer through the [`AdaptedModules`] seam from their executors —
//! in-process for the original local-compute-only versions, or across
//! the simulated network through Schooner. The two shafts are called on
//! the evaluated point. This module holds the executors, the call
//! scheduling, checkpoints and the journal, and no thermodynamics.
//!
//! Because the adapted procedures exchange single-precision values (as
//! the original Fortran did), the executive's solvers run at
//! single-precision-appropriate tolerances: a finite-difference Jacobian
//! over values with ~1e-7 relative quantization needs a larger probe step
//! and a looser residual target than the double-precision internal
//! engine.

use tess::engine::{AdaptedModules, OperatingPoint, Turbofan};
use tess::schedules::Schedule;
use tess::solver::newton::{newton_solve, NewtonOptions};
use tess::transient::{transient_steps, TransientMethod, TransientResult, TransientSample};
use tess::GasState;
use uts::Value;

use crate::exec::{flow_to_value, value_to_flow, LocalExec, PendingCall, RemoteExec};
use crate::procs;

/// How the executive orders adapted-module calls within a solver step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// One blocking call at a time, in gas-path order — the baseline.
    #[default]
    Sequential,
    /// Issue every call in a dataflow level before collecting any, so
    /// independent components overlap in virtual time and a level costs
    /// its slowest member, not the sum.
    WaveParallel,
}

/// Execution waves over the adapted-module slots, derived from the AVS
/// network's leveling pass: slots in the same wave have no dataflow
/// between them and may run concurrently.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WavePlan {
    /// Slot names grouped into waves, outermost in dependency order.
    pub waves: Vec<Vec<String>>,
}

impl WavePlan {
    /// Whether two slots sit in the same wave (i.e. are independent).
    pub fn same_wave(&self, a: &str, b: &str) -> bool {
        self.waves.iter().any(|w| w.iter().any(|s| s == a) && w.iter().any(|s| s == b))
    }

    /// Derive the plan for the named slots from the Network Editor's
    /// graph. The AVS leveling pass (delayed connections break cycles)
    /// orders the slots by level; slots are then grouped greedily into
    /// **antichains** — a slot joins the first wave none of whose members
    /// reaches it (or is reached by it) over immediate connections, so
    /// every wave's members are provably independent. Slots absent from
    /// the network are skipped; intra-wave order follows `slots`, which
    /// keeps issue and collect order deterministic.
    pub fn derive(editor: &avs::NetworkEditor, slots: &[&str]) -> Result<WavePlan, String> {
        let levels =
            editor.levels().ok_or("network has a cycle not broken by a delayed connection")?;
        let ids = editor.module_ids();
        let mut placed: Vec<(usize, usize, avs::ModuleId)> = Vec::new();
        for (si, slot) in slots.iter().enumerate() {
            let Some(id) = ids.iter().copied().find(|&i| editor.name_of(i) == Some(slot)) else {
                continue;
            };
            let lvl = levels
                .iter()
                .position(|w| w.contains(&id))
                .ok_or_else(|| format!("module '{slot}' missing from the leveling"))?;
            placed.push((lvl, si, id));
        }
        placed.sort_unstable();
        let mut waves: Vec<Vec<(usize, avs::ModuleId)>> = Vec::new();
        for (_, si, id) in placed {
            let open = waves.iter_mut().find(|w| {
                w.iter().all(|&(_, m)| !editor.has_path(m, id) && !editor.has_path(id, m))
            });
            match open {
                Some(w) => w.push((si, id)),
                None => waves.push(vec![(si, id)]),
            }
        }
        let named = waves
            .into_iter()
            .map(|mut w| {
                w.sort_unstable();
                w.into_iter().map(|(si, _)| slots[si].to_owned()).collect()
            })
            .collect();
        Ok(WavePlan { waves: named })
    }
}

/// A component executor: local baseline or Schooner-remote.
#[allow(clippy::large_enum_variant)] // few instances, boxing buys nothing
pub enum Exec {
    /// The original local-compute-only version.
    Local(LocalExec),
    /// Remote through a Schooner line.
    Remote(RemoteExec),
}

impl Exec {
    /// Call `name`; `out` is cleared first, holds the outputs on success
    /// and is empty on error.
    fn call(&mut self, name: &str, args: &[Value], out: &mut Vec<Value>) -> Result<(), String> {
        match self {
            Exec::Local(e) => e.call(name, args, out).map_err(|e| e.to_string()),
            Exec::Remote(e) => e.call(name, args, out).map_err(|e| e.to_string()),
        }
    }

    /// Where this executor runs.
    pub fn location(&self) -> String {
        match self {
            Exec::Local(e) => e.location(),
            Exec::Remote(e) => e.location(),
        }
    }

    /// Calls made so far.
    pub fn calls(&self) -> u64 {
        match self {
            Exec::Local(e) => e.calls(),
            Exec::Remote(e) => e.calls(),
        }
    }

    /// Virtual seconds of communication + remote compute (0 when local).
    pub fn elapsed_virtual(&self) -> f64 {
        match self {
            Exec::Local(_) => 0.0,
            Exec::Remote(e) => e.elapsed_virtual(),
        }
    }

    /// Tear down a remote executor's line.
    pub fn quit(&mut self) {
        if let Exec::Remote(e) = self {
            e.quit();
        }
    }

    /// Issue the request half of a call; local executors (which have no
    /// line to overlap on) compute eagerly, into `out`.
    fn begin(&mut self, name: &str, args: &[Value], out: &mut Vec<Value>) -> PendingCall {
        match self {
            Exec::Local(e) => PendingCall::Ready(e.call(name, args, out)),
            Exec::Remote(e) => {
                e.begin(name, args, out).unwrap_or_else(|err| PendingCall::Ready(Err(err)))
            }
        }
    }

    /// Collect the reply half of a call begun with [`Exec::begin`] into
    /// the `out` it was begun with.
    fn finish(&mut self, pending: PendingCall, out: &mut Vec<Value>) -> Result<(), String> {
        match (self, pending) {
            (Exec::Remote(e), p) => e.finish(p, out).map_err(|e| e.to_string()),
            (Exec::Local(_), PendingCall::Ready(r)) => r.map_err(|e| e.to_string()),
            (Exec::Local(_), PendingCall::Ticket(t)) => {
                Err(format!("pending call '{}' outlived its remote executor", t.name()))
            }
        }
    }
}

/// Newton options appropriate for single-precision component calls.
const SOLVER: NewtonOptions =
    NewtonOptions { tol: 3e-5, max_iters: 60, fd_step: 3e-3, max_backtracks: 12 };

/// Statistics for one executor, for the experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReportRow {
    /// Module instance ("bypass duct", "low speed shaft", …).
    pub module: String,
    /// Where it ran.
    pub location: String,
    /// Remote (or local) procedure calls made.
    pub calls: u64,
    /// Virtual seconds spent in communication + remote compute.
    pub virtual_seconds: f64,
}

/// One adapted-module slot: its name, the gas-path procedure it serves,
/// the executor currently bound to it, and the vector that executor
/// writes each call's outputs into. The slot keeps that vector across
/// calls, so a call allocates nothing for its results; it is emptied
/// once the outputs are read, so no value outlives its call.
struct SlotExec {
    slot: &'static str,
    proc: &'static str,
    exec: Exec,
    out: Vec<Value>,
}

impl SlotExec {
    /// Read the outputs of the slot's last call, then empty its vector.
    fn take<T>(&mut self, read: impl FnOnce(&[Value]) -> Result<T, String>) -> Result<T, String> {
        let got = read(&self.out);
        self.out.clear();
        got
    }

    /// The one `float` result of the slot's last call, `proc`.
    fn take_float(&mut self, proc: &str) -> Result<f32, String> {
        self.take(|out| match out.first() {
            Some(Value::Float(x)) => Ok(*x),
            other => Err(format!("{proc} returned {other:?}")),
        })
    }
}

/// Run a group of adapted-module calls, `calls` sorted by slot index,
/// each writing its outputs into its slot's vector.
///
/// Without `overlap` they go out one blocking call at a time in the
/// order given and the first error is returned as is. With it the
/// group is one execution wave: every participating remote line is
/// synced to a common start instant, all requests are issued in slot
/// order, then all replies are collected in slot order. Every pending
/// call is drained even after a failure (a line with a ticket
/// outstanding accepts no other traffic); when several calls in the
/// wave fail, the error reported is the one lowest in slot order, so
/// the outcome never depends on reply arrival order. Either way, a
/// group that fails leaves no slot of the group holding an output.
///
/// Groups are fixed-size arrays on the caller's stack, so the
/// sequential sweep pays nothing for sharing this path.
fn call_group<const N: usize>(
    slots: &mut [SlotExec],
    overlap: bool,
    calls: [(usize, &'static str, &[Value]); N],
) -> Result<(), String> {
    let mut first_err: Option<String> = None;
    if !overlap {
        for (slot, name, args) in calls {
            let SlotExec { exec, out, .. } = &mut slots[slot];
            if let Err(e) = exec.call(name, args, out) {
                first_err = Some(e);
                break;
            }
        }
    } else {
        let mut t0 = 0.0_f64;
        for (slot, _, _) in calls {
            if let Exec::Remote(r) = &mut slots[slot].exec {
                t0 = t0.max(r.line_mut().now());
            }
        }
        for (slot, _, _) in calls {
            if let Exec::Remote(r) = &mut slots[slot].exec {
                r.line_mut().sync_to(t0);
            }
        }
        let pending = calls.map(|(slot, name, args)| {
            let SlotExec { exec, out, .. } = &mut slots[slot];
            exec.begin(name, args, out)
        });
        for ((slot, name, _), p) in calls.into_iter().zip(pending) {
            let SlotExec { slot: slot_name, exec, out, .. } = &mut slots[slot];
            // `calls` is in slot order: the first failure met is the
            // lowest slot's.
            if let Err(e) = exec.finish(p, out) {
                first_err.get_or_insert_with(|| format!("{slot_name} ({name}): {e}"));
            }
        }
    }
    match first_err {
        Some(msg) => {
            for (slot, _, _) in calls {
                slots[slot].out.clear();
            }
            Err(msg)
        }
        None => Ok(()),
    }
}

/// Index of each slot in [`ExecutiveEngine`]'s table; the table order is
/// the deterministic call order of the gas path.
const BYPASS_DUCT: usize = 0;
const TAILPIPE: usize = 1;
const COMBUSTOR: usize = 2;
const NOZZLE: usize = 3;
const LP_SHAFT: usize = 4;
const HP_SHAFT: usize = 5;

/// The executive's side of TESS's [`AdaptedModules`] seam: each adapted
/// module is its slot's procedure, called with the engine's parameters in
/// single precision.
struct Routed<'a> {
    engine: &'a Turbofan,
    slots: &'a mut [SlotExec],
    /// Whether the bypass duct and the combustor go out as one wave.
    overlap: bool,
}

impl AdaptedModules for Routed<'_> {
    fn duct_and_burn(
        &mut self,
        bypass: &GasState,
        core: &GasState,
        wf: f64,
    ) -> Result<(GasState, GasState), String> {
        let cy = &self.engine.cycle;
        let duct_args =
            [flow_to_value(bypass), Value::Float(cy.bypass_dp as f32), Value::Float(0.0)];
        let comb_args = [
            flow_to_value(core),
            Value::Float(wf as f32),
            Value::Float(cy.comb_eta as f32),
            Value::Float(cy.comb_dp as f32),
        ];
        call_group(
            self.slots,
            self.overlap,
            [(BYPASS_DUCT, "duct", &duct_args), (COMBUSTOR, "comb", &comb_args)],
        )?;
        let st16 = self.slots[BYPASS_DUCT].take(|out| value_to_flow(&out[0]));
        let st4 = self.slots[COMBUSTOR].take(|out| value_to_flow(&out[0]));
        Ok((st16?, st4?))
    }

    // The tailpipe and the nozzle are each a singleton wave in the plan.
    fn tailpipe(&mut self, mixed: &GasState) -> Result<GasState, String> {
        let dp = self.engine.cycle.tailpipe_dp as f32;
        let args = [flow_to_value(mixed), Value::Float(dp), Value::Float(0.0)];
        call_group(self.slots, false, [(TAILPIPE, "duct", &args)])?;
        self.slots[TAILPIPE].take(|out| value_to_flow(&out[0]))
    }

    fn nozzle(&mut self, face: &GasState, p_amb: f64) -> Result<(f64, f64), String> {
        let (cy, d) = (&self.engine.cycle, &self.engine.design);
        let args = [
            flow_to_value(face),
            Value::Float(p_amb as f32),
            Value::Float(d.nozzle_area as f32),
            Value::Float(cy.nozzle_cd as f32),
            Value::Float(cy.nozzle_cv as f32),
        ];
        call_group(self.slots, false, [(NOZZLE, "nozl", &args)])?;
        self.slots[NOZZLE].take(|out| {
            let nz =
                out[0].as_floats().ok_or_else(|| "nozl returned malformed result".to_string())?;
            Ok((nz[0] as f64, nz[1] as f64))
        })
    }
}

/// The executive's engine.
pub struct ExecutiveEngine {
    /// The underlying engine model (local components + design data).
    pub engine: Turbofan,
    /// The adapted-module slots, in gas-path order (see the index
    /// constants); reach one with [`ExecutiveEngine::exec_mut`].
    slots: Vec<SlotExec>,
    /// Solver steps between checkpoint barriers in
    /// [`ExecutiveEngine::run_transient`]; 0 disables checkpointing and
    /// crash recovery (the default, preserving the plain failure path).
    pub checkpoint_interval: usize,
    /// Recovery attempts allowed per `run_transient` call.
    pub max_recoveries: u32,
    /// Recoveries performed by the most recent `run_transient` call.
    pub recoveries: u32,
    /// Call ordering within a solver step.
    pub scheduling: Scheduling,
    /// Execution waves from the AVS leveling pass; consulted (never
    /// assumed) before any two slots are overlapped.
    pub wave_plan: WavePlan,
    /// The world's observability sink, captured from the first remote
    /// executor bound; engine-level events and journal records go here
    /// rather than being charged to any component's line.
    obs: Option<schooner::Obs>,
    ecorr_lp: Option<f32>,
    ecorr_hp: Option<f32>,
}

/// Engine-side state retained at a checkpoint barrier: everything the
/// transient loop needs to resume from that solver step. Remote-process
/// state is checkpointed separately through the Manager.
#[derive(Clone, Copy)]
struct TransientCheckpoint {
    t: f64,
    step: usize,
    y: [f64; 2],
    inner: [f64; 5],
    samples_len: usize,
}

impl ExecutiveEngine {
    /// All components local: the baseline configuration.
    pub fn all_local(engine: Turbofan) -> Result<Self, String> {
        type SlotRow = (&'static str, &'static str, fn() -> schooner::ProgramImage);
        let table: [SlotRow; 6] = [
            ("bypass duct", "duct", procs::duct_image),
            ("tailpipe duct", "duct", procs::duct_image),
            ("combustor", "comb", procs::combustor_image),
            ("nozzle", "nozl", procs::nozzle_image),
            ("low speed shaft", "shaft", procs::shaft_image),
            ("high speed shaft", "shaft", procs::shaft_image),
        ];
        let mut slots = Vec::with_capacity(table.len());
        for (slot, proc, image) in table {
            let exec = Exec::Local(LocalExec::new(&image())?);
            slots.push(SlotExec { slot, proc, exec, out: Vec::new() });
        }
        Ok(Self {
            engine,
            slots,
            checkpoint_interval: 0,
            max_recoveries: 2,
            recoveries: 0,
            scheduling: Scheduling::default(),
            wave_plan: WavePlan::default(),
            obs: None,
            ecorr_lp: None,
            ecorr_hp: None,
        })
    }

    /// The executor bound to an adapted-module slot (`"bypass duct"`,
    /// `"tailpipe duct"`, `"combustor"`, `"nozzle"`, `"low speed shaft"`,
    /// `"high speed shaft"`), or `None` for unknown slots.
    pub fn exec_mut(&mut self, slot: &str) -> Option<&mut Exec> {
        self.slots.iter_mut().find(|s| s.slot == slot).map(|s| &mut s.exec)
    }

    /// The virtual clock of the remote line bound to `slot`, or `None`
    /// when the slot is local or unknown.
    pub fn line_now(&mut self, slot: &str) -> Option<f64> {
        match self.exec_mut(slot)? {
            Exec::Remote(r) => Some(r.line_mut().now()),
            Exec::Local(_) => None,
        }
    }

    /// Replace one executor with a remote one (by adapted-module slot
    /// name: `"bypass duct"`, `"tailpipe duct"`, `"combustor"`,
    /// `"nozzle"`, `"low speed shaft"`, `"high speed shaft"`).
    pub fn set_remote(&mut self, slot: &str, mut exec: RemoteExec) -> Result<(), String> {
        if self.obs.is_none() {
            self.obs = Some(exec.line_mut().obs().clone());
        }
        self.bind(slot, Exec::Remote(exec))
    }

    /// Replace one executor with a different **local** implementation —
    /// the "substitute a different code for an engine component" case
    /// when the substituted code runs on the local machine.
    pub fn set_local(&mut self, slot: &str, exec: LocalExec) -> Result<(), String> {
        self.bind(slot, Exec::Local(exec))
    }

    /// Quit the executor bound to `slot` and bind `exec` in its place.
    fn bind(&mut self, slot: &str, exec: Exec) -> Result<(), String> {
        let target =
            self.exec_mut(slot).ok_or_else(|| format!("no adapted module slot '{slot}'"))?;
        target.quit();
        *target = exec;
        Ok(())
    }

    /// Executor statistics for reports.
    pub fn report_rows(&self) -> Vec<ExecReportRow> {
        self.slots
            .iter()
            .map(|s| ExecReportRow {
                module: s.slot.to_owned(),
                location: s.exec.location(),
                calls: s.exec.calls(),
                virtual_seconds: s.exec.elapsed_virtual(),
            })
            .collect()
    }

    /// Tear down all remote lines.
    pub fn shutdown(&mut self) {
        for s in &mut self.slots {
            s.exec.quit();
        }
    }

    /// Run the once-per-simulation `set…` procedures: parameter
    /// validation for duct/combustor/nozzle and the shaft balance
    /// corrections from the design-point powers. Configuration has no
    /// dataflow between components — each `set…` call only touches its
    /// own module — so under the wave scheduler all six go out as one
    /// full-width wave, each parameter set riding its component's line.
    pub fn setup(&mut self) -> Result<(), String> {
        let cy = &self.engine.cycle;
        let d = &self.engine.design;
        let shaft_args = |p_c: f64, p_t: f64| {
            [
                Value::floats(&[p_c as f32, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::floats(&[p_t as f32, 0.0, 0.0, 0.0]),
                Value::Integer(1),
            ]
        };
        let bypass = [Value::Float(cy.bypass_dp as f32)];
        let tailpipe = [Value::Float(cy.tailpipe_dp as f32)];
        let comb = [Value::Float(cy.comb_eta as f32), Value::Float(cy.comb_dp as f32)];
        let nozzle = [
            Value::Float(d.nozzle_area as f32),
            Value::Float(cy.nozzle_cd as f32),
            Value::Float(cy.nozzle_cv as f32),
        ];
        let lp = shaft_args(d.p_fan, d.p_lpt);
        let hp = shaft_args(d.p_hpc, d.p_hpt);
        call_group(
            &mut self.slots,
            self.scheduling == Scheduling::WaveParallel,
            [
                (BYPASS_DUCT, "setduct", &bypass),
                (TAILPIPE, "setduct", &tailpipe),
                (COMBUSTOR, "setcomb", &comb),
                (NOZZLE, "setnozl", &nozzle),
                (LP_SHAFT, "setshaft", &lp),
                (HP_SHAFT, "setshaft", &hp),
            ],
        )?;
        for slot in [BYPASS_DUCT, TAILPIPE, COMBUSTOR, NOZZLE] {
            self.slots[slot].out.clear();
        }
        let lp = self.slots[LP_SHAFT].take_float("setshaft");
        let hp = self.slots[HP_SHAFT].take_float("setshaft");
        self.ecorr_lp = Some(lp?);
        self.ecorr_hp = Some(hp?);
        Ok(())
    }

    /// Evaluate TESS's gas path ([`tess::Turbofan::evaluate_with`]) with
    /// the adapted components routed through their executors.
    ///
    /// The bypass duct and the combustor are independent in the AVS
    /// graph, so they form one call group — a wave under the wave
    /// scheduler, two blocking calls otherwise; the gas path reaches them
    /// after the local HPC and bleed, so both sets of arguments exist
    /// before either request is issued.
    pub fn evaluate(
        &mut self,
        n1: f64,
        n2: f64,
        wf: f64,
        x: &[f64; 5],
    ) -> Result<OperatingPoint, String> {
        let overlap = self.scheduling == Scheduling::WaveParallel
            && self.wave_plan.same_wave("bypass duct", "combustor");
        let mut routed = Routed { engine: &self.engine, slots: &mut self.slots, overlap };
        self.engine.evaluate_with(&mut routed, n1, n2, wf, x)
    }

    /// Spool accelerations through the shaft executors (RPM/s). The two
    /// shafts share no state: one wave under the wave scheduler.
    fn spool_accels(&mut self, op: &OperatingPoint) -> Result<(f64, f64), String> {
        let ecorr_lp = self.ecorr_lp.ok_or("setup() not run")?;
        let ecorr_hp = self.ecorr_hp.ok_or("setup() not run")?;
        let shaft_args = |p_c: f64, p_t: f64, ecorr: f32, n: f64, inertia: f64| {
            [
                Value::floats(&[p_c as f32, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::floats(&[p_t as f32, 0.0, 0.0, 0.0]),
                Value::Integer(1),
                Value::Float(ecorr),
                Value::Float(n as f32),
                Value::Float(inertia as f32),
            ]
        };
        let lp = shaft_args(op.p_fan, op.p_lpt, ecorr_lp, op.n1, self.engine.cycle.i1);
        let hp = shaft_args(op.p_hpc, op.p_hpt, ecorr_hp, op.n2, self.engine.cycle.i2);
        let overlap = self.scheduling == Scheduling::WaveParallel
            && self.wave_plan.same_wave("low speed shaft", "high speed shaft");
        call_group(&mut self.slots, overlap, [(LP_SHAFT, "shaft", &lp), (HP_SHAFT, "shaft", &hp)])?;
        let lp = self.slots[LP_SHAFT].take_float("shaft");
        let hp = self.slots[HP_SHAFT].take_float("shaft");
        Ok((lp? as f64, hp? as f64))
    }

    /// Solve the four inner flow-match unknowns at fixed speeds and fuel.
    fn solve_inner(
        &mut self,
        n1: f64,
        n2: f64,
        wf: f64,
        guess: &mut [f64; 5],
    ) -> Result<OperatingPoint, String> {
        let report = newton_solve(
            |x: &[f64], r: &mut [f64]| {
                let op = self.evaluate(n1, n2, wf, &[x[0], x[1], x[2], x[3], x[4]])?;
                r.copy_from_slice(&op.flow_residuals);
                Ok(())
            },
            guess.as_slice(),
            &SOLVER,
        )
        .map_err(|e| e.to_string())?;
        guess.copy_from_slice(&report.x);
        self.evaluate(n1, n2, wf, guess)
    }

    /// Balance the engine at fuel flow `wf` (Newton–Raphson over the six
    /// unknowns), running `setup` first if needed.
    pub fn balance(&mut self, wf: f64) -> Result<OperatingPoint, String> {
        if self.ecorr_lp.is_none() {
            self.setup()?;
        }
        let n1d = self.engine.cycle.n1_design;
        let n2d = self.engine.cycle.n2_design;
        let x0 = [1.0, 1.0, 0.5, 0.5, self.engine.design.er_hpt, self.engine.design.er_lpt, 1.0];
        let report = newton_solve(
            |x: &[f64], r: &mut [f64]| {
                let op =
                    self.evaluate(x[0] * n1d, x[1] * n2d, wf, &[x[2], x[3], x[4], x[5], x[6]])?;
                let (a1, a2) = self.spool_accels(&op)?;
                r[..5].copy_from_slice(&op.flow_residuals);
                r[5] = a1 / 1000.0;
                r[6] = a2 / 1000.0;
                Ok(())
            },
            &x0,
            &SOLVER,
        )
        .map_err(|e| format!("executive balance: {e}"))?;
        self.evaluate(
            report.x[0] * n1d,
            report.x[1] * n2d,
            wf,
            &[report.x[2], report.x[3], report.x[4], report.x[5], report.x[6]],
        )
    }

    /// Ask the Manager to checkpoint every remote component's `state(...)`
    /// variables, best effort: a failure only means the retained snapshot
    /// is one barrier older. Stateless procedures checkpoint as 0 bytes.
    pub fn checkpoint_remotes(&mut self) {
        for s in &mut self.slots {
            if let Exec::Remote(r) = &mut s.exec {
                let _ = r.checkpoint(s.proc);
            }
        }
    }

    /// Push the latest retained checkpoint of every remote component back
    /// into its current instance, best effort — the inverse of
    /// [`ExecutiveEngine::checkpoint_remotes`], used by journal-driven
    /// recovery after `Schooner::seed_recovery` repopulated the store.
    pub(crate) fn restore_remotes(&mut self) {
        for s in &mut self.slots {
            if let Exec::Remote(r) = &mut s.exec {
                let _ = r.restore(s.proc);
            }
        }
    }

    /// The engine's notion of "now": the furthest-advanced remote line's
    /// virtual clock (0 in an all-local configuration). Engine-level
    /// events and journal records are stamped with this, not with
    /// whichever line happened to be listed first.
    fn world_now(&mut self) -> f64 {
        self.slots
            .iter_mut()
            .filter_map(|s| match &mut s.exec {
                Exec::Remote(r) => Some(r.line_mut().now()),
                Exec::Local(_) => None,
            })
            .fold(0.0, f64::max)
    }

    /// Emit an engine-level event into the world's observability sink
    /// (no-op before any remote executor is bound).
    fn emit_event(&mut self, kind: schooner::EventKind) {
        let now = self.world_now();
        if let Some(obs) = &self.obs {
            obs.emit(now, kind);
        }
    }

    /// Append the typed record `kind` builds to the world's attached
    /// journal. In an all-local configuration or with no journal
    /// attached it is a no-op that builds nothing.
    fn journal(&mut self, kind: impl FnOnce() -> ledger::RecordKind) {
        if !self.obs.as_ref().is_some_and(|obs| obs.ledger().is_attached()) {
            return;
        }
        let now = self.world_now();
        if let Some(obs) = &self.obs {
            obs.ledger().append(now, kind());
        }
    }

    /// Journal one accepted transient sample, field-for-field in f64 bits
    /// so replay reconstructs it exactly.
    fn journal_sample(&mut self, s: &TransientSample) {
        self.journal(|| ledger::RecordKind::Sample {
            values: vec![s.t, s.n1, s.n2, s.wf, s.thrust, s.t4, s.w2],
        });
    }

    /// Place a checkpoint barrier at `cp` and return it: the Manager
    /// snapshots every remote component, the event is emitted, and the
    /// journal gets the engine-side resume state plus a metrics snapshot
    /// at the same sequence point, so `costs --journal` can answer "as of
    /// the latest barrier" from the file alone.
    fn barrier(&mut self, cp: TransientCheckpoint) -> TransientCheckpoint {
        self.checkpoint_remotes();
        self.emit_event(schooner::EventKind::Barrier { step: cp.step, t: cp.t });
        self.journal(|| {
            let mut state = Vec::with_capacity(7);
            state.extend_from_slice(&cp.y);
            state.extend_from_slice(&cp.inner);
            ledger::RecordKind::Barrier {
                step: cp.step as u64,
                t_engine: cp.t,
                samples_len: cp.samples_len as u64,
                state,
            }
        });
        let now = self.world_now();
        if let Some(obs) = &self.obs {
            if obs.ledger().is_attached() {
                let json = obs.metrics().snapshot_json();
                obs.ledger().append(now, ledger::RecordKind::MetricsSnapshot { json });
            }
        }
        cp
    }

    /// Balance at the initial fuel, then run a transient with the chosen
    /// method: the executive's equivalent of a full TESS run.
    ///
    /// With [`ExecutiveEngine::checkpoint_interval`] > 0 the loop places a
    /// **checkpoint barrier** every that-many solver steps: the engine
    /// retains its resume state (time, spool speeds, inner-solution guess,
    /// sample count) and the Manager snapshots every remote component's
    /// `state(...)` variables. If a step then fails — e.g. a host crash
    /// outlives the call policy's retries — the transient rolls back to
    /// the latest barrier and re-runs from there (up to
    /// [`ExecutiveEngine::max_recoveries`] times) instead of aborting.
    /// For the single-step methods (Improved Euler, Runge–Kutta 4) the
    /// integrator carries no history across steps, so a recovered run
    /// produces **bit-identical** samples to an uninterrupted one; the
    /// multi-step methods restart their history at the barrier, the same
    /// reset semantics TESS applies at failure events.
    pub fn run_transient(
        &mut self,
        fuel: &Schedule,
        method: TransientMethod,
        dt: f64,
        t_end: f64,
    ) -> Result<TransientResult, String> {
        let steps = transient_steps(t_end, dt)?;
        let initial = self.balance(fuel.at(0.0))?;
        let y = [initial.n1, initial.n2];
        let mut inner = self.engine.design_inner_guess();
        self.solve_inner(y[0], y[1], fuel.at(0.0), &mut inner)?;

        let samples = vec![TransientSample::at(0.0, &initial)];
        self.journal_sample(&samples[0]);
        let entry = TransientCheckpoint { t: 0.0, step: 0, y, inner, samples_len: 1 };
        self.transient_loop(fuel, method, dt, steps, entry, samples)
    }

    /// Resume an interrupted transient from a replayed journal alone.
    ///
    /// The repository must come from the journal the crashed run wrote;
    /// the caller builds a fresh world with the **same** deterministic
    /// configuration (topology, component placement, fault plan), attaches
    /// the journal with `Schooner::resume_journal`, seeds the checkpoint
    /// store and incarnation floor with `Schooner::seed_recovery`, and
    /// binds the remote executors before calling this. The method then:
    ///
    /// 1. rebuilds the accepted samples from the journal's `Sample` and
    ///    `Rollback` records (f64-bit-exact),
    /// 2. finds the latest checkpoint **barrier** and takes its resume
    ///    state (time, step, spool speeds, inner-solution guess),
    /// 3. re-runs `set…` configuration and pushes the retained remote
    ///    checkpoints back into the live instances, and
    /// 4. continues the transient loop from the barrier.
    ///
    /// For single-step integration methods the result is bit-identical to
    /// the run that was interrupted.
    pub fn recover_from_journal(
        &mut self,
        repo: &ledger::Repository,
        fuel: &Schedule,
        method: TransientMethod,
        dt: f64,
        t_end: f64,
    ) -> Result<TransientResult, String> {
        let steps = transient_steps(t_end, dt)?;
        let mut samples: Vec<TransientSample> = Vec::new();
        let mut resume: Option<TransientCheckpoint> = None;
        for rec in repo.records() {
            match &rec.kind {
                ledger::RecordKind::Sample { values } => {
                    if let [t, n1, n2, wf, thrust, t4, w2] = values[..] {
                        samples.push(TransientSample { t, n1, n2, wf, thrust, t4, w2 });
                    }
                }
                ledger::RecordKind::Rollback { samples_len, .. } => {
                    samples.truncate(*samples_len as usize);
                }
                ledger::RecordKind::Barrier { step, t_engine, samples_len, state } => {
                    if let [n1, n2, x0, x1, x2, x3, x4] = state[..] {
                        resume = Some(TransientCheckpoint {
                            t: *t_engine,
                            step: *step as usize,
                            y: [n1, n2],
                            inner: [x0, x1, x2, x3, x4],
                            samples_len: *samples_len as usize,
                        });
                    }
                }
                _ => {}
            }
        }
        let r = resume.ok_or("journal holds no checkpoint barrier to resume from")?;
        samples.truncate(r.samples_len);
        if samples.len() < r.samples_len {
            return Err(format!(
                "journal is missing samples: barrier expects {}, found {}",
                r.samples_len,
                samples.len()
            ));
        }
        self.setup()?;
        self.restore_remotes();
        self.transient_loop(fuel, method, dt, steps, r, samples)
    }

    /// The transient stepping loop shared by [`Self::run_transient`]
    /// (entering at step 0) and [`Self::recover_from_journal`] (entering
    /// at a replayed barrier) from `entry`, whose `samples_len` is
    /// `samples.len()`. Places the entry checkpoint barrier, then
    /// integrates to step `steps` with rollback recovery.
    fn transient_loop(
        &mut self,
        fuel: &Schedule,
        method: TransientMethod,
        dt: f64,
        steps: usize,
        entry: TransientCheckpoint,
        mut samples: Vec<TransientSample>,
    ) -> Result<TransientResult, String> {
        let mut integrator = method.integrator();
        self.recoveries = 0;
        let mut checkpoint = (self.checkpoint_interval > 0).then(|| self.barrier(entry));
        let TransientCheckpoint { mut t, mut step, mut y, mut inner, .. } = entry;
        while step < steps {
            let outcome: Result<TransientSample, String> = (|| {
                let mut f = |tau: f64, y: &[f64], d: &mut [f64]| -> Result<(), String> {
                    let op = self.solve_inner(y[0], y[1], fuel.at(tau), &mut inner)?;
                    (d[0], d[1]) = self.spool_accels(&op)?;
                    Ok(())
                };
                integrator.step(&mut f, t, &mut y, dt)?;
                let op = self.solve_inner(y[0], y[1], fuel.at(t + dt), &mut inner)?;
                Ok(TransientSample::at(t + dt, &op))
            })();
            match outcome {
                Ok(sample) => {
                    t += dt;
                    step += 1;
                    self.journal_sample(&sample);
                    samples.push(sample);
                    if checkpoint.is_some()
                        && step.is_multiple_of(self.checkpoint_interval)
                        && step < steps
                    {
                        let samples_len = samples.len();
                        let cp = TransientCheckpoint { t, step, y, inner, samples_len };
                        checkpoint = Some(self.barrier(cp));
                    }
                }
                Err(e) => {
                    let Some(cp) = checkpoint else { return Err(e) };
                    if self.recoveries >= self.max_recoveries {
                        return Err(format!(
                            "transient failed after {} recoveries: {e}",
                            self.recoveries
                        ));
                    }
                    self.recoveries += 1;
                    TransientCheckpoint { t, step, y, inner, .. } = cp;
                    samples.truncate(cp.samples_len);
                    integrator = method.integrator();
                    if let Some(obs) = &self.obs {
                        obs.metrics().counter_add("engine.rollbacks", 1);
                    }
                    self.emit_event(schooner::EventKind::Rollback {
                        step: step + 1,
                        cause: e,
                        t,
                        recovery: self.recoveries,
                        max: self.max_recoveries,
                    });
                    self.journal(|| ledger::RecordKind::Rollback {
                        step: step as u64,
                        t_engine: t,
                        samples_len: samples.len() as u64,
                    });
                }
            }
        }
        Ok(TransientResult { samples, method: method.display_name().to_owned(), dt })
    }
}
