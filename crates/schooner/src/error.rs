//! Error type for the Schooner runtime.

use std::fmt;

use netsim::NetError;

/// Result alias used throughout the crate.
pub type SchResult<T> = std::result::Result<T, SchError>;

/// Errors surfaced by the Schooner runtime and library calls.
#[derive(Debug, Clone, PartialEq)]
pub enum SchError {
    /// A UTS-level failure (parse, conversion, range, signature).
    Uts(uts::Error),
    /// A transport-level failure.
    Net(NetError),
    /// No export with this name is visible to the calling line.
    UnknownProcedure(String),
    /// The named line does not exist (or was shut down).
    UnknownLine(u64),
    /// The executable path is not installed on the target machine.
    UnknownExecutable { path: String, host: String },
    /// A procedure with the same name is already registered in the line —
    /// duplicate names are permitted only *across* lines.
    DuplicateProcedure { name: String, line: u64 },
    /// The remote procedure's implementation reported a failure.
    RemoteFault(String),
    /// The remote process died or was shut down while a call was pending.
    ProcessGone(String),
    /// A protocol message could not be decoded.
    Protocol(String),
    /// The Manager did not answer within the liveness timeout.
    ManagerUnavailable,
    /// Migration was requested for a procedure that declares state but the
    /// state transfer failed.
    StateTransfer(String),
    /// A call's virtual-time deadline passed before an attempt succeeded.
    DeadlineExceeded {
        /// What was being called.
        what: String,
        /// The deadline, in virtual seconds since the call began.
        deadline_s: f64,
    },
    /// A call policy ran out of retries and failover targets. The last
    /// underlying error is preserved so callers can see *why*.
    PolicyExhausted {
        /// What was being called.
        what: String,
        /// Total attempts made (including the first).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<SchError>,
    },
    /// The procedure's host crashed and its supervision policy chose to
    /// escalate the failure to the caller instead of recovering. Not
    /// retryable: the supervisor has already decided no replacement will
    /// appear.
    Escalated(String),
    /// A pooled session's job panicked inside its worker thread. The
    /// pool survives (the worker catches the unwind and moves on) but
    /// this session produced no report.
    SessionPanicked {
        /// The tenant whose session died.
        tenant: String,
    },
    /// Anything else.
    Other(String),
}

impl fmt::Display for SchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchError::Uts(e) => write!(f, "UTS: {e}"),
            SchError::Net(e) => write!(f, "network: {e}"),
            SchError::UnknownProcedure(name) => {
                write!(f, "no procedure '{name}' visible to this line")
            }
            SchError::UnknownLine(id) => write!(f, "no such line {id}"),
            SchError::UnknownExecutable { path, host } => {
                write!(f, "no executable '{path}' installed on '{host}'")
            }
            SchError::DuplicateProcedure { name, line } => {
                write!(f, "procedure '{name}' already registered in line {line}")
            }
            SchError::RemoteFault(msg) => write!(f, "remote procedure fault: {msg}"),
            SchError::ProcessGone(addr) => write!(f, "remote process '{addr}' has gone away"),
            SchError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            SchError::ManagerUnavailable => write!(f, "Schooner Manager unavailable"),
            SchError::StateTransfer(msg) => write!(f, "state transfer failed: {msg}"),
            SchError::DeadlineExceeded { what, deadline_s } => {
                write!(f, "call '{what}' exceeded its {deadline_s} s virtual deadline")
            }
            SchError::PolicyExhausted { what, attempts, last } => {
                write!(f, "call '{what}' failed after {attempts} attempts; last error: {last}")
            }
            SchError::Escalated(what) => {
                write!(f, "supervision escalated the failure of '{what}' to the caller")
            }
            SchError::SessionPanicked { tenant } => {
                write!(f, "pooled session for tenant '{tenant}' panicked in its worker")
            }
            SchError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SchError {}

impl From<uts::Error> for SchError {
    fn from(e: uts::Error) -> Self {
        SchError::Uts(e)
    }
}

impl From<NetError> for SchError {
    fn from(e: NetError) -> Self {
        SchError::Net(e)
    }
}

impl From<crate::proc::ProcFault> for SchError {
    fn from(f: crate::proc::ProcFault) -> Self {
        SchError::RemoteFault(f.to_string())
    }
}

impl SchError {
    /// True when the binding that produced this error is stale: the
    /// process behind it is gone, so re-resolving through the Manager may
    /// find a live replacement. This is safe to retry once even for
    /// non-idempotent calls — the request never reached a live procedure.
    pub fn is_stale_binding(&self) -> bool {
        matches!(
            self,
            SchError::ProcessGone(_)
                | SchError::Net(NetError::UnknownAddress(_))
                | SchError::Net(NetError::Disconnected(_))
        )
    }

    /// True when the failure is transient at the transport or Manager
    /// level, so retrying an **idempotent** call may succeed. Remote
    /// faults and protocol errors are excluded: those calls reached the
    /// other side or indicate a bug, and retrying cannot help.
    pub fn is_retryable(&self) -> bool {
        self.is_stale_binding()
            || matches!(
                self,
                SchError::ManagerUnavailable
                    | SchError::Net(NetError::HostDown(_))
                    | SchError::Net(NetError::Unreachable { .. })
                    | SchError::Net(NetError::Dropped { .. })
                    | SchError::Net(NetError::Timeout)
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SchError::UnknownExecutable { path: "/bin/npss-shaft".into(), host: "cray".into() };
        assert!(e.to_string().contains("/bin/npss-shaft"));
        assert!(e.to_string().contains("cray"));
        let e = SchError::DuplicateProcedure { name: "shaft".into(), line: 3 };
        assert!(e.to_string().contains("shaft"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let u: SchError = uts::Error::Other("x".into()).into();
        assert!(matches!(u, SchError::Uts(_)));
        let n: SchError = NetError::Timeout.into();
        assert!(matches!(n, SchError::Net(_)));
        let p: SchError = crate::proc::ProcFault::Failed("boom".into()).into();
        assert_eq!(p, SchError::RemoteFault("boom".into()));
    }

    #[test]
    fn retry_classification() {
        assert!(SchError::ProcessGone("a:1".into()).is_stale_binding());
        assert!(SchError::Net(NetError::Disconnected("a:1".into())).is_stale_binding());
        assert!(!SchError::Net(NetError::HostDown("a".into())).is_stale_binding());
        assert!(SchError::Net(NetError::HostDown("a".into())).is_retryable());
        assert!(SchError::ManagerUnavailable.is_retryable());
        assert!(
            SchError::Net(NetError::Dropped { from: "a".into(), to: "b".into() }).is_retryable()
        );
        assert!(!SchError::RemoteFault("boom".into()).is_retryable());
        assert!(!SchError::UnknownProcedure("f".into()).is_retryable());
        assert!(!SchError::Escalated("shaft".into()).is_retryable());
        assert!(!SchError::Escalated("shaft".into()).is_stale_binding());
    }

    #[test]
    fn policy_errors_render_context() {
        let e = SchError::PolicyExhausted {
            what: "shaft".into(),
            attempts: 4,
            last: Box::new(SchError::Net(NetError::HostDown("cray".into()))),
        };
        let text = e.to_string();
        assert!(text.contains("shaft") && text.contains("4") && text.contains("cray"));
        let d = SchError::DeadlineExceeded { what: "shaft".into(), deadline_s: 2.5 };
        assert!(d.to_string().contains("2.5"));
    }
}
