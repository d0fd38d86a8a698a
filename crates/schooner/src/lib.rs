//! # Schooner — a heterogeneous remote procedure call facility
//!
//! Schooner lets a program invoke procedures on other machines despite the
//! complications of heterogeneity and distribution. A Schooner program is
//! designed like a normal procedural program, but its procedures may live
//! on whatever machine/architecture combination suits them; the system
//! handles data conversion (through the UTS intermediate representation)
//! and message passing between the processes that the procedures become at
//! runtime.
//!
//! The runtime consists of:
//!
//! * a persistent **Manager** (one per executing program) that starts and
//!   stops processes, maintains the table of exported procedures and their
//!   locations — with upper/lower-case Fortran name synonyms — and
//!   type-checks imports against exports at bind time ([`manager`]);
//! * one **Server** per machine, used by the Manager to start processes on
//!   that machine ([`server`]);
//! * a **communication library** linked into every procedure
//!   ([`message`], [`stub`]);
//! * **stub generation** from UTS specification files ([`stub`]).
//!
//! The Manager, the Servers and the processes are run-to-completion
//! actors with private state, not threads: whoever waits for a message
//! drives them, on its own thread, until the message arrives — or until
//! the world goes quiescent, which is how a lost message is detected.
//! Virtual timestamps, not host scheduling, carry the distribution.
//!
//! The extended execution model developed for NPSS is implemented in
//! full:
//!
//! * **lines** — multiple sequential threads of control within one
//!   program, each with its own procedure name database and its own
//!   shutdown scope ([`mod@line`]);
//! * the **dynamic startup protocol** — a newly-configured module contacts
//!   the Manager at runtime and asks for a remote procedure to be started
//!   on a specific machine ([`line::LineHandle::start_remote`]);
//! * **procedure migration** — stateless moves plus the state-variable
//!   transfer extension driven by `state(...)` clauses in the spec;
//!   callers' stale name caches recover by falling back to the Manager;
//! * **shared procedures** — started outside any line, callable from all,
//!   with the per-line database consulted first;
//! * **supervised execution** — heartbeat health monitoring, per-path
//!   recovery policies, incarnation fencing of pre-crash replies, and
//!   checkpoint/restore of `state(...)` variables through the Manager
//!   ([`supervise`]).
//!
//! # Example
//!
//! ```
//! use schooner::{FnProcedure, ProgramImage, Schooner};
//! use uts::Value;
//!
//! // The whole simulated testbed: two sites, eight machines, Servers,
//! // and the persistent Manager.
//! let sch = Schooner::standard().unwrap();
//!
//! // An executable image: export spec + implementation.
//! let image = ProgramImage::new(
//!     "doubler",
//!     r#"export double prog("x" val float, "y" res float)"#,
//! ).unwrap()
//! .with_procedure("double", || Box::new(FnProcedure::new(|args: &[Value]| {
//!     match args[0] {
//!         Value::Float(x) => Ok(vec![Value::Float(2.0 * x)]),
//!         _ => Err("bad argument".into()),
//!     }
//! }))).unwrap();
//! sch.install_program("/demo/doubler", image, &["lerc-cray-ymp"]).unwrap();
//!
//! // A module registers (opening a line), starts the remote procedure,
//! // and calls it across the simulated WAN.
//! let mut line = sch.open_line("demo", "ua-sparc10").unwrap();
//! line.start_remote("/demo/doubler", "lerc-cray-ymp").unwrap();
//! let out = line.call("double", &[Value::Float(21.0)]).unwrap();
//! assert_eq!(out, vec![Value::Float(42.0)]);
//! assert!(line.now() > 0.1, "WAN round trips cost virtual time");
//! line.quit().unwrap();
//! sch.shutdown();
//! ```

mod codec;
pub mod error;
pub mod line;
pub mod manager;
pub mod message;
pub mod obs;
pub mod policy;
pub mod pool;
pub mod proc;
pub mod program;
pub mod server;
pub mod stub;
pub mod supervise;
pub mod system;
mod world;

pub use error::{SchError, SchResult};
pub use line::{CallTicket, LineHandle, LineId, LineStats};
pub use message::{FaultCode, WireFault};
pub use obs::{
    critical_path, CallSpan, CriticalPath, EventKind, Histogram, MetricsRegistry, Obs, ObsEvent,
    Phase, SpanWave,
};
pub use policy::{CallPolicy, OnExhaustion};
pub use pool::{PoolConfig, Rejected, SessionPool, SessionTicket, TokenBucket};
pub use proc::{FnProcedure, ProcFault, ProcResult, Procedure, StatefulProcedure};
pub use program::{ProgramImage, ProgramRegistry};
pub use supervise::{CheckpointStore, Health, HealthMonitor, SupervisionPolicy};
pub use system::{Schooner, SchoonerConfig, SchoonerConfigBuilder};

/// The common imports for programs built on Schooner.
///
/// ```
/// use schooner::prelude::*;
/// let _policy = CallPolicy::new().retries(2).idempotent(true);
/// ```
pub mod prelude {
    pub use crate::error::{SchError, SchResult};
    pub use crate::line::{LineHandle, LineId, LineStats};
    pub use crate::obs::{CallSpan, EventKind, MetricsRegistry, Obs, Phase};
    pub use crate::policy::{CallPolicy, OnExhaustion};
    pub use crate::proc::{FnProcedure, ProcFault, ProcResult, Procedure, StatefulProcedure};
    pub use crate::program::ProgramImage;
    pub use crate::supervise::SupervisionPolicy;
    pub use crate::system::{Schooner, SchoonerConfig, SchoonerConfigBuilder};
    pub use uts::Value;
}
