//! Typed observability events.
//!
//! Every instrumented moment in the runtime is one [`EventKind`] variant
//! with structured fields. The `Display` impl and [`EventKind::who`] are
//! the `what` and `who` columns of [`Obs::render`](super::Obs::render);
//! the example transcripts and the determinism CI job diffing them pin
//! both byte for byte. Code that wants the *data* matches on the variant
//! instead of parsing the text.

use std::fmt;
use std::sync::Arc;

/// One recorded event: the virtual time it happened plus what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Virtual time (seconds) at the emitting component.
    pub t: f64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed event taxonomy.
///
/// Grouped by emitter: line-side RPC lifecycle, Manager bookkeeping and
/// supervision, Server/process lifecycle, and engine-level recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    // ----- RPC lifecycle (emitted by a line) -----
    /// A remote executable was started within (or shared from) a line.
    RemoteStarted {
        /// Emitting line.
        line: u64,
        /// Executable path.
        path: String,
        /// Machine it was started on.
        machine: String,
        /// Address of the new process.
        addr: String,
    },
    /// A call request left the line for a bound process. The three
    /// per-call events share their names with the binding (or process)
    /// that emits them rather than copying the text on every call.
    CallIssued {
        /// Emitting line.
        line: u64,
        /// Remote procedure name (after case folding).
        proc: Arc<str>,
        /// Process address dialled.
        addr: Arc<str>,
    },
    /// The call's reply was unmarshaled and control returned to the line.
    ReplyReceived {
        /// Emitting line.
        line: u64,
        /// Remote procedure name.
        proc: Arc<str>,
        /// Process address that answered.
        addr: Arc<str>,
    },
    /// A policy-driven retry, optionally after a backoff pause.
    CallRetry {
        /// Emitting line.
        line: u64,
        /// Retry ordinal against the current binding (1-based).
        attempt: u32,
        /// Procedure being retried.
        name: String,
        /// Backoff pause taken before this retry, if the policy has one.
        backoff_s: Option<f64>,
        /// Rendered error that triggered the retry.
        cause: String,
    },
    /// The policy moved the procedure to a failover machine.
    FailoverMove {
        /// Emitting line.
        line: u64,
        /// Procedure being moved.
        name: String,
        /// Failover target machine.
        target: String,
        /// Rendered error that exhausted the previous binding.
        cause: String,
    },
    /// A failover migration itself failed; the next target is tried.
    FailoverFailed {
        /// Emitting line.
        line: u64,
        /// Failover target machine that refused.
        target: String,
        /// Rendered migration error.
        cause: String,
    },
    /// A delayed reply from a pre-crash incarnation was discarded.
    ReplyFenced {
        /// Emitting line.
        line: u64,
        /// Incarnation that stamped the stale reply.
        incarnation: u64,
        /// Incarnation of the line's current binding.
        binding: u64,
    },
    /// A degradation-aware executor switched to its local fallback.
    Degraded {
        /// Emitting line.
        line: u64,
        /// Module that degraded.
        module: String,
        /// Rendered error that exhausted the policy.
        cause: String,
    },

    // ----- Manager -----
    /// A module registered and its line was opened.
    LineOpened {
        /// The new line id.
        line: u64,
        /// Module name.
        module: String,
    },
    /// A started executable's exports entered a name database.
    ExportsRegistered {
        /// Number of declarations in the export spec.
        count: usize,
        /// Executable path.
        path: String,
        /// Address of the exporting process.
        addr: String,
        /// Owning line; `None` for the shared database.
        line: Option<u64>,
    },
    /// A name was resolved for a caller.
    Mapped {
        /// Procedure name as requested.
        name: String,
        /// Asking line.
        line: u64,
        /// Address handed out.
        addr: String,
    },
    /// A heartbeat probe found the endpoint itself gone.
    ProbeEndpointGone {
        /// Probed address.
        addr: String,
    },
    /// A heartbeat probe was answered.
    HeartbeatAnswered {
        /// Probed address.
        addr: String,
    },
    /// A heartbeat probe went unanswered.
    HeartbeatMiss {
        /// Consecutive misses so far.
        n: u32,
        /// Declare-dead threshold.
        threshold: u32,
        /// Probed address.
        addr: String,
    },
    /// Missed beats reached the threshold: the process is dead.
    DeathVerdict {
        /// Dead address.
        addr: String,
        /// Incarnation that died.
        incarnation: u64,
    },
    /// The supervision policy says the failure goes to the caller.
    FailureEscalated {
        /// Procedure whose failure is escalated.
        name: String,
    },
    /// One respawn candidate host refused; the next is tried.
    RespawnFailed {
        /// Executable path.
        path: String,
        /// Candidate host that refused.
        host: String,
        /// Rendered error.
        cause: String,
    },
    /// A respawned instance was restored from its latest checkpoint.
    CheckpointRestored {
        /// Executable path.
        path: String,
        /// Virtual time the restored snapshot was taken at.
        taken_at: f64,
    },
    /// A dead process was respawned under a fresh incarnation.
    Respawned {
        /// Executable path.
        path: String,
        /// Host it respawned on.
        host: String,
        /// The fresh incarnation.
        incarnation: u64,
        /// The replacement's address.
        addr: String,
    },
    /// A `state(...)` snapshot was captured and retained.
    Checkpointed {
        /// Procedure name the checkpoint was requested through.
        name: String,
        /// Snapshot size.
        bytes: u64,
        /// Virtual capture time.
        at: f64,
    },
    /// A line's remote procedures were terminated.
    LineShutdown {
        /// The line.
        line: u64,
        /// Its module name.
        module: String,
    },
    /// A procedure's process migrated to a new address.
    Moved {
        /// Procedure name.
        name: String,
        /// Old process address.
        old: String,
        /// New process address.
        new: String,
    },
    /// The Manager itself shut down.
    ManagerShutdown,

    // ----- Server / process -----
    /// A Server forked a new remote-procedure process.
    ProcessSpawned {
        /// The Server's host.
        host: String,
        /// The new process's address.
        addr: String,
        /// Executable path.
        path: String,
        /// Owning line (0 = shared).
        line: u64,
    },
    /// A process executed one procedure call.
    Computed {
        /// The process's address.
        addr: Arc<str>,
        /// Procedure executed.
        proc: Arc<str>,
        /// Flops charged.
        flops: f64,
        /// Virtual compute seconds those flops cost on this machine.
        compute_s: f64,
    },
    /// A process observed `ProcShutdown` and exited.
    ProcessShutdown {
        /// The process's address.
        addr: String,
    },

    // ----- Engine -----
    /// A checkpoint barrier was placed during a transient.
    Barrier {
        /// Solver step the barrier covers up to.
        step: usize,
        /// Transient time at the barrier.
        t: f64,
    },
    /// A failed step rolled the transient back to its latest barrier.
    Rollback {
        /// The step that failed (1-based).
        step: usize,
        /// Rendered failure.
        cause: String,
        /// Transient time of the barrier being resumed from.
        t: f64,
        /// Recovery ordinal (1-based).
        recovery: u32,
        /// Recovery budget.
        max: u32,
    },
}

impl EventKind {
    /// The emitting component: the transcript's `who` column.
    pub fn who(&self) -> String {
        use EventKind::*;
        match self {
            RemoteStarted { line, .. }
            | CallIssued { line, .. }
            | ReplyReceived { line, .. }
            | CallRetry { line, .. }
            | FailoverMove { line, .. }
            | FailoverFailed { line, .. }
            | ReplyFenced { line, .. }
            | Degraded { line, .. } => format!("line-{line}"),
            LineOpened { .. }
            | ExportsRegistered { .. }
            | Mapped { .. }
            | ProbeEndpointGone { .. }
            | HeartbeatAnswered { .. }
            | HeartbeatMiss { .. }
            | DeathVerdict { .. }
            | FailureEscalated { .. }
            | RespawnFailed { .. }
            | CheckpointRestored { .. }
            | Respawned { .. }
            | Checkpointed { .. }
            | LineShutdown { .. }
            | Moved { .. }
            | ManagerShutdown => "manager".to_owned(),
            ProcessSpawned { host, .. } => format!("server@{host}"),
            Computed { addr, .. } => addr.to_string(),
            ProcessShutdown { addr } => addr.clone(),
            Barrier { .. } | Rollback { .. } => "executive".to_owned(),
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventKind::*;
        match self {
            RemoteStarted { path, machine, addr, .. } => {
                write!(f, "started '{path}' on {machine} at {addr}")
            }
            CallIssued { proc, addr, .. } => write!(f, "call {proc} -> {addr}"),
            ReplyReceived { proc, addr, .. } => write!(f, "return {proc} <- {addr}"),
            CallRetry { attempt, name, backoff_s: Some(pause), cause, .. } => {
                write!(f, "retry {attempt} of '{name}' after {pause:.3}s backoff: {cause}")
            }
            CallRetry { attempt, name, backoff_s: None, cause, .. } => {
                write!(f, "retry {attempt} of '{name}': {cause}")
            }
            FailoverMove { name, target, cause, .. } => {
                write!(f, "failover: moving '{name}' to {target} after: {cause}")
            }
            FailoverFailed { target, cause, .. } => {
                write!(f, "failover to {target} failed: {cause}")
            }
            ReplyFenced { incarnation, binding, .. } => {
                write!(f, "fenced reply from incarnation {incarnation} (binding is {binding})")
            }
            Degraded { module, cause, .. } => {
                write!(f, "degraded '{module}' to local fallback after: {cause}")
            }
            LineOpened { line, module } => {
                write!(f, "opened line {line} for module '{module}'")
            }
            ExportsRegistered { count, path, addr, line } => {
                write!(f, "registered {count} export(s) from '{path}' at {addr} (")?;
                match line {
                    Some(l) => write!(f, "line {l}")?,
                    None => write!(f, "shared")?,
                }
                write!(f, ")")
            }
            Mapped { name, line, addr } => {
                write!(f, "mapped '{name}' for line {line} -> {addr}")
            }
            ProbeEndpointGone { addr } => {
                write!(f, "heartbeat probe of {addr}: endpoint gone")
            }
            HeartbeatAnswered { addr } => write!(f, "heartbeat from {addr} answered"),
            HeartbeatMiss { n, threshold, addr } => {
                write!(f, "heartbeat miss {n}/{threshold} for {addr}")
            }
            DeathVerdict { addr, incarnation } => {
                write!(f, "declared {addr} dead (incarnation {incarnation})")
            }
            FailureEscalated { name } => {
                write!(f, "escalating failure of '{name}' to the caller")
            }
            RespawnFailed { path, host, cause } => {
                write!(f, "respawn of '{path}' on {host} failed: {cause}")
            }
            CheckpointRestored { path, taken_at } => {
                write!(f, "restored '{path}' from checkpoint taken at t={taken_at:.6}")
            }
            Respawned { path, host, incarnation, addr } => {
                write!(f, "respawned '{path}' on {host} as incarnation {incarnation} at {addr}")
            }
            Checkpointed { name, bytes, at } => {
                write!(f, "checkpointed '{name}' ({bytes} bytes) at t={at:.6}")
            }
            LineShutdown { line, module } => {
                write!(f, "line {line} ('{module}') shut down")
            }
            Moved { name, old, new } => write!(f, "moved '{name}' from {old} to {new}"),
            ManagerShutdown => write!(f, "shutdown"),
            ProcessSpawned { addr, path, line, .. } => {
                write!(f, "started process {addr} from '{path}' (line {line})")
            }
            Computed { proc, flops, compute_s, .. } => {
                write!(f, "executed {proc} ({flops:.0} flops, {compute_s:.6}s)")
            }
            ProcessShutdown { .. } => write!(f, "shutdown"),
            Barrier { step, t } => {
                write!(f, "checkpoint barrier at step {step} (t={t:.3})")
            }
            Rollback { step, cause, t, recovery, max } => {
                write!(
                    f,
                    "step {step} failed ({cause}); resuming from checkpoint at t={t:.3} \
                     (recovery {recovery} of {max})"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_rpc_strings() {
        let e = EventKind::RemoteStarted {
            line: 3,
            path: "/demo/doubler".into(),
            machine: "lerc-cray-ymp".into(),
            addr: "lerc-cray-ymp:proc-7".into(),
        };
        assert_eq!(e.who(), "line-3");
        assert_eq!(
            e.to_string(),
            "started '/demo/doubler' on lerc-cray-ymp at lerc-cray-ymp:proc-7"
        );
        let e = EventKind::CallIssued {
            line: 1,
            proc: "DOUBLE".into(),
            addr: "lerc-cray-ymp:proc-7".into(),
        };
        assert_eq!(e.to_string(), "call DOUBLE -> lerc-cray-ymp:proc-7");
        let e = EventKind::ReplyReceived {
            line: 1,
            proc: "DOUBLE".into(),
            addr: "lerc-cray-ymp:proc-7".into(),
        };
        assert_eq!(e.to_string(), "return DOUBLE <- lerc-cray-ymp:proc-7");
    }

    #[test]
    fn display_matches_legacy_retry_strings() {
        let e = EventKind::CallRetry {
            line: 2,
            attempt: 3,
            name: "duct".into(),
            backoff_s: Some(0.25),
            cause: "host 'x' is down".into(),
        };
        assert_eq!(e.to_string(), "retry 3 of 'duct' after 0.250s backoff: host 'x' is down");
        let e = EventKind::CallRetry {
            line: 2,
            attempt: 1,
            name: "duct".into(),
            backoff_s: None,
            cause: "host 'x' is down".into(),
        };
        assert_eq!(e.to_string(), "retry 1 of 'duct': host 'x' is down");
        let e = EventKind::ReplyFenced { line: 2, incarnation: 1, binding: 2 };
        assert_eq!(e.to_string(), "fenced reply from incarnation 1 (binding is 2)");
    }

    #[test]
    fn display_matches_legacy_manager_strings() {
        assert_eq!(
            EventKind::LineOpened { line: 4, module: "demo".into() }.to_string(),
            "opened line 4 for module 'demo'"
        );
        let shared = EventKind::ExportsRegistered {
            count: 2,
            path: "/p".into(),
            addr: "h:proc-1".into(),
            line: None,
        };
        assert_eq!(shared.to_string(), "registered 2 export(s) from '/p' at h:proc-1 (shared)");
        let lined = EventKind::ExportsRegistered {
            count: 1,
            path: "/p".into(),
            addr: "h:proc-1".into(),
            line: Some(5),
        };
        assert_eq!(lined.to_string(), "registered 1 export(s) from '/p' at h:proc-1 (line 5)");
        assert_eq!(
            EventKind::HeartbeatMiss { n: 1, threshold: 2, addr: "h:proc-1".into() }.to_string(),
            "heartbeat miss 1/2 for h:proc-1"
        );
        assert_eq!(
            EventKind::DeathVerdict { addr: "h:proc-1".into(), incarnation: 1 }.to_string(),
            "declared h:proc-1 dead (incarnation 1)"
        );
        assert_eq!(
            EventKind::Checkpointed { name: "accum".into(), bytes: 17, at: 1.5 }.to_string(),
            "checkpointed 'accum' (17 bytes) at t=1.500000"
        );
        assert_eq!(
            EventKind::CheckpointRestored { path: "/npss/accum".into(), taken_at: 1.5 }.to_string(),
            "restored '/npss/accum' from checkpoint taken at t=1.500000"
        );
        assert_eq!(EventKind::ManagerShutdown.who(), "manager");
        assert_eq!(EventKind::ManagerShutdown.to_string(), "shutdown");
    }

    #[test]
    fn display_matches_legacy_server_and_engine_strings() {
        let e = EventKind::ProcessSpawned {
            host: "lerc-cray-ymp".into(),
            addr: "lerc-cray-ymp:proc-7".into(),
            path: "/demo/doubler".into(),
            line: 1,
        };
        assert_eq!(e.who(), "server@lerc-cray-ymp");
        assert_eq!(
            e.to_string(),
            "started process lerc-cray-ymp:proc-7 from '/demo/doubler' (line 1)"
        );
        let e = EventKind::Computed {
            addr: "lerc-cray-ymp:proc-7".into(),
            proc: "DOUBLE".into(),
            flops: 100.0,
            compute_s: 0.5,
        };
        assert_eq!(e.who(), "lerc-cray-ymp:proc-7");
        assert_eq!(e.to_string(), "executed DOUBLE (100 flops, 0.500000s)");
        let e = EventKind::Rollback { step: 11, cause: "boom".into(), t: 0.2, recovery: 1, max: 2 };
        assert_eq!(e.who(), "executive");
        assert_eq!(
            e.to_string(),
            "step 11 failed (boom); resuming from checkpoint at t=0.200 (recovery 1 of 2)"
        );
    }
}
