//! Component executors: the seam between the engine's gas-path evaluation
//! and where a component's computation actually runs.
//!
//! An executor invokes one of an adapted module's procedures with UTS
//! values. [`LocalExec`] is the *original local-compute-only version* of
//! a module — the same procedure implementations, called in-process.
//! [`RemoteExec`] routes the call through a Schooner line to a process on
//! whatever machine the user's widgets selected. Both paths speak
//! single-precision `float` values, so a correct remote configuration
//! produces **exactly** the same numbers as the local baseline — the
//! comparison the paper used to verify the adapted modules.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use schooner::{
    CallPolicy, CallTicket, LineHandle, OnExhaustion, ProcFault, Procedure, ProgramImage, SchError,
};
use std::collections::HashMap;
use std::fmt;
use tess::gas::GasState;
use uts::Value;

/// A failure from a component executor.
///
/// Callers that care can distinguish a Schooner runtime problem (the
/// retryable/fail-over layer has already run by the time this surfaces)
/// from a fault raised by the procedure implementation itself, or a local
/// configuration mistake. Configuration errors are constructed explicitly
/// with [`ExecError::Config`]; the implicit string conversions of earlier
/// releases are gone, so a stray `?` can no longer launder an arbitrary
/// message into (or out of) the typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The Schooner runtime failed the call (after any policy-driven
    /// retries and failovers — see [`SchError::PolicyExhausted`]).
    Sch(SchError),
    /// The procedure implementation reported a fault.
    Fault(ProcFault),
    /// The executor is misconfigured (no such procedure or slot).
    Config(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Sch(e) => e.fmt(f),
            ExecError::Fault(e) => e.fmt(f),
            ExecError::Config(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SchError> for ExecError {
    fn from(e: SchError) -> Self {
        ExecError::Sch(e)
    }
}

impl From<ProcFault> for ExecError {
    fn from(e: ProcFault) -> Self {
        ExecError::Fault(e)
    }
}

/// In-process execution of an image's procedures.
///
/// Names resolve without regard to case, as the Manager's name database,
/// a line's binding cache and a process all resolve them, so a call that
/// works remotely works here too.
pub struct LocalExec {
    procs: HashMap<String, Box<dyn Procedure>>,
    calls: u64,
}

impl LocalExec {
    /// Instantiate the image locally.
    pub fn new(image: &ProgramImage) -> Result<Self, String> {
        Ok(Self { procs: image.instantiate().map_err(|e| e.to_string())?, calls: 0 })
    }

    /// Call procedure `name` with the input arguments. `out` is cleared
    /// first, holds the outputs on success and is empty on error.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<(), ExecError> {
        self.calls += 1;
        out.clear();
        let (_, proc) = self
            .procs
            .iter_mut()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .ok_or_else(|| ExecError::Config(format!("no local procedure '{name}'")))?;
        proc.call(args, out).map_err(|fault| {
            out.clear();
            ExecError::Fault(fault)
        })
    }

    /// Where the computation runs, for reports.
    pub fn location(&self) -> String {
        "local".to_owned()
    }

    /// Number of calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

/// Remote execution through a Schooner line.
///
/// Every call runs under this executor's [`CallPolicy`]. When the policy
/// asks for [`OnExhaustion::Degrade`] and a local fallback was supplied
/// with [`RemoteExec::with_fallback`], an exhausted (or deadline-blown)
/// call switches the executor permanently to the *original
/// local-compute-only version*: configuration calls (`set…`) already made
/// remotely are replayed into the fallback so it starts from the same
/// parameters, the degradation is recorded in the world's
/// [`schooner::Obs`], and the simulation continues on baseline numbers.
pub struct RemoteExec {
    line: LineHandle,
    started_at: f64,
    policy: CallPolicy,
    fallback: Option<Fallback>,
    /// Successful `set…` (configuration) calls, kept for fallback replay.
    config_log: Vec<(String, Vec<Value>)>,
}

/// A remote executor's local baseline: held in reserve while calls go
/// over the line, and the route every call takes once it is active.
struct Fallback {
    local: LocalExec,
    /// Set, for good, when the executor degrades.
    active: bool,
}

impl RemoteExec {
    /// Start the executable at `path` on `machine` within a fresh line.
    /// (`line` should be freshly opened for this module; the startup
    /// request is issued here, matching the `sch_contact_schx` call in
    /// the module's compute function.)
    pub fn start(mut line: LineHandle, path: &str, machine: &str) -> Result<Self, String> {
        line.start_remote(path, machine).map_err(|e| e.to_string())?;
        let started_at = line.now();
        Ok(Self {
            line,
            started_at,
            policy: CallPolicy::default(),
            fallback: None,
            config_log: Vec::new(),
        })
    }

    /// Use `policy` for every call made through this executor.
    pub fn with_policy(mut self, policy: CallPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Keep a local baseline implementation to degrade to when the call
    /// policy is exhausted. Only effective together with a policy that
    /// says [`CallPolicy::degrade_on_exhaustion`].
    pub fn with_fallback(mut self, fallback: LocalExec) -> Self {
        self.fallback = Some(Fallback { local: fallback, active: false });
        self
    }

    /// Whether this executor has degraded to its local fallback.
    pub fn is_degraded(&self) -> bool {
        self.fallback.as_ref().is_some_and(|f| f.active)
    }

    /// The policy in force.
    pub fn policy(&self) -> &CallPolicy {
        &self.policy
    }

    /// The underlying line (e.g. to move the procedure).
    pub fn line_mut(&mut self) -> &mut LineHandle {
        &mut self.line
    }

    /// Transport statistics from the line.
    pub fn stats(&self) -> schooner::line::LineStats {
        self.line.stats()
    }

    /// Tear down the line (`sch_i_quit`).
    pub fn quit(&mut self) {
        let _ = self.line.quit();
    }

    /// Ask the Manager to checkpoint the remote process exporting `name`:
    /// its `state(...)` variables are captured architecture-neutrally and
    /// retained for crash recovery. Returns the snapshot size in bytes
    /// (0 for stateless procedures, or after degrading to the fallback).
    pub fn checkpoint(&mut self, name: &str) -> Result<u64, ExecError> {
        if self.is_degraded() {
            return Ok(0);
        }
        self.line.checkpoint(name).map_err(ExecError::Sch)
    }

    /// Ask the Manager to push the latest retained checkpoint of the
    /// remote process exporting `name` back into its current instance —
    /// used by journal-driven recovery after the store was pre-seeded
    /// from a replayed ledger. Returns the restored size in bytes (0
    /// when nothing is retained, or after degrading to the fallback).
    pub fn restore(&mut self, name: &str) -> Result<u64, ExecError> {
        if self.is_degraded() {
            return Ok(0);
        }
        self.line.restore(name).map_err(ExecError::Sch)
    }

    /// Switch permanently to the local fallback, replaying recorded
    /// configuration calls so it matches the remote instance's setup.
    /// With no fallback to switch to, `cause` is the call's error.
    fn degrade(&mut self, cause: SchError) -> Result<(), ExecError> {
        let Some(fallback) = self.fallback.as_mut() else { return Err(ExecError::Sch(cause)) };
        let mut replayed = Vec::new();
        for (name, args) in &self.config_log {
            fallback.local.call(name, args, &mut replayed)?;
        }
        fallback.active = true;
        let obs = self.line.obs();
        obs.metrics().counter_add("exec.degrades", 1);
        obs.emit(
            self.line.now(),
            schooner::EventKind::Degraded {
                line: self.line.id(),
                module: self.line.module().to_owned(),
                cause: cause.to_string(),
            },
        );
        Ok(())
    }

    /// Call procedure `name` with the input arguments. `out` is cleared
    /// first, holds the outputs on success and is empty on error. The
    /// blocking form is the split-phase form with no gap: one code path,
    /// so the two cannot drift apart in policy or bookkeeping.
    pub fn call(
        &mut self,
        name: &str,
        args: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<(), ExecError> {
        let pending = self.begin(name, args, out)?;
        self.finish(pending, out)
    }

    /// Where the computation runs, for reports: the host the line's
    /// process runs on after any failover or move, or the local fallback
    /// once degraded.
    pub fn location(&self) -> String {
        let host = self.line.remote_host().unwrap_or_default();
        if self.is_degraded() {
            format!("local (degraded from {host})")
        } else {
            host.to_owned()
        }
    }

    /// Number of calls made so far.
    pub fn calls(&self) -> u64 {
        let local = self.fallback.as_ref().map_or(0, |f| f.local.calls());
        self.line.stats().calls + local
    }

    /// Virtual seconds attributable to this executor's communication and
    /// remote computation.
    pub fn elapsed_virtual(&self) -> f64 {
        self.line.now() - self.started_at
    }

    /// Issue the request half of a call through this executor's line and
    /// return without waiting for the reply; pair with
    /// [`RemoteExec::finish`], passing it the same `out`. A degraded
    /// executor computes on the local fallback immediately (there is
    /// nothing to overlap with), into `out`.
    pub fn begin(
        &mut self,
        name: &str,
        args: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<PendingCall, ExecError> {
        Ok(match &mut self.fallback {
            Some(Fallback { local, active: true }) => {
                PendingCall::Ready(local.call(name, args, out))
            }
            _ => PendingCall::Ticket(self.line.issue_with(name, args, &self.policy)?),
        })
    }

    /// Collect the reply half of a call begun with [`RemoteExec::begin`].
    /// The executor's [`CallPolicy`] runs its full retry/failover
    /// lifecycle here, including degradation to the local fallback on
    /// exhaustion — identical to the blocking [`RemoteExec::call`]. `out`
    /// is the vector `begin` was given: it holds the outputs on success
    /// and is empty on error.
    pub fn finish(&mut self, pending: PendingCall, out: &mut Vec<Value>) -> Result<(), ExecError> {
        let ticket = match pending {
            PendingCall::Ready(result) => return result,
            PendingCall::Ticket(t) => t,
        };
        // Collecting consumes the ticket, the one holder of the call's
        // name and arguments; copy them first only when something reads
        // them afterwards — the configuration log or the fallback.
        let is_set =
            ticket.name().as_bytes().get(..3).is_some_and(|p| p.eq_ignore_ascii_case(b"set"));
        let can_degrade =
            self.policy.on_exhaustion == OnExhaustion::Degrade && self.fallback.is_some();
        let kept =
            (is_set || can_degrade).then(|| (ticket.name().to_owned(), ticket.args().to_vec()));
        match (self.line.collect_into(ticket, out), kept) {
            (Ok(()), kept) => {
                if is_set {
                    self.config_log.extend(kept);
                }
                Ok(())
            }
            (
                Err(e @ (SchError::PolicyExhausted { .. } | SchError::DeadlineExceeded { .. })),
                Some((name, args)),
            ) if can_degrade => {
                self.degrade(e)?;
                self.call(&name, &args, out)
            }
            (Err(e), _) => Err(ExecError::Sch(e)),
        }
    }
}

/// A component call whose request has been issued but whose reply has
/// not yet been collected. The ticket owns the call's name and
/// arguments; nothing here copies them.
pub enum PendingCall {
    /// Already resolved: local executors and degraded remote ones have no
    /// line to overlap on and compute at issue time, into the output
    /// vector the call was begun with.
    Ready(Result<(), ExecError>),
    /// The split-phase call outstanding on the executor's line.
    Ticket(CallTicket),
}

/// Pack a gas state into the single-precision `[w, tt, pt, far]` quadruple
/// the adapted modules exchange.
pub fn flow_to_value(s: &GasState) -> Value {
    Value::floats(&[s.w as f32, s.tt as f32, s.pt as f32, s.far as f32])
}

/// Unpack a `[w, tt, pt, far]` quadruple.
pub fn value_to_flow(v: &Value) -> Result<GasState, String> {
    let xs = v.as_floats().ok_or_else(|| format!("expected array[4] of float, got {v}"))?;
    if xs.len() != 4 {
        return Err(format!("expected 4 flow components, got {}", xs.len()));
    }
    Ok(GasState::new(xs[0] as f64, xs[1] as f64, xs[2] as f64, xs[3] as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procs::duct_image;

    #[test]
    fn local_exec_counts_calls() {
        let mut exec = LocalExec::new(&duct_image()).unwrap();
        assert_eq!(exec.calls(), 0);
        let mut out = Vec::new();
        exec.call(
            "duct",
            &[Value::floats(&[42.0, 390.0, 2.9e5, 0.0]), Value::Float(0.02), Value::Float(0.0)],
            &mut out,
        )
        .unwrap();
        assert_eq!(exec.calls(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(exec.location(), "local");
        assert!(exec.call("nothere", &[], &mut out).is_err());
        assert!(out.is_empty(), "a failed call leaves no outputs");
        assert_eq!(crate::engine_exec::Exec::Local(exec).elapsed_virtual(), 0.0);
    }

    #[test]
    fn flow_value_round_trip() {
        let s = GasState::new(58.31, 1600.25, 2.35e6, 0.0221);
        let v = flow_to_value(&s);
        let back = value_to_flow(&v).unwrap();
        // Exact at f32 precision.
        assert_eq!(back.w as f32, s.w as f32);
        assert_eq!(back.tt as f32, s.tt as f32);
        assert_eq!(back.pt as f32, s.pt as f32);
        assert_eq!(back.far as f32, s.far as f32);
    }

    #[test]
    fn value_to_flow_rejects_malformed() {
        assert!(value_to_flow(&Value::Float(1.0)).is_err());
        assert!(value_to_flow(&Value::floats(&[1.0, 2.0])).is_err());
        assert!(value_to_flow(&Value::doubles(&[1.0, 2.0, 3.0, 4.0])).is_err());
    }
}
