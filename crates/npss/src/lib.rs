//! # npss — the prototype NPSS simulation executive
//!
//! This crate is the combination the paper describes: **AVS** provides the
//! execution framework (a dataflow network of engine-component modules
//! with control-panel widgets), **Schooner** provides transparent access
//! to heterogeneous, distributed machines, and **TESS** provides the
//! engine physics. Together they form a simulation executive in which a
//! complete engine model is a single integrated program whose component
//! computations may execute anywhere in the (simulated) testbed.
//!
//! The four TESS modules the paper adapted for remote execution —
//! **shaft**, **duct**, **combustor**, and **nozzle** — are implemented
//! here as Schooner program images ([`procs`]) with UTS export
//! specifications (the shaft's is verbatim from the paper). Their AVS
//! modules ([`modules`]) carry the two extra widgets the paper shows:
//! radio buttons selecting the remote machine and a type-in for the
//! executable's pathname.
//!
//! [`f100`] builds the Figure 2 network — the F100 engine as an AVS
//! dataflow graph — and [`experiments`] reproduces the paper's evaluation:
//! Table 1 (individual adapted-module tests over five machine/network
//! combinations) and Table 2 (the combined test with six remote module
//! instances spread across both sites).

pub mod bridge;
pub mod engine_exec;
pub mod exec;
pub mod experiments;
pub mod f100;
pub mod modules;
pub mod procs;
pub mod service;
pub mod sweep;

pub use bridge::{
    component_image, component_path, install_component, ComponentProcedure, RemoteComponent,
    COMPONENT_PROC,
};
pub use engine_exec::{ExecutiveEngine, Scheduling, WavePlan};
pub use exec::{flow_to_value, value_to_flow, ExecError, LocalExec, RemoteExec};
pub use f100::{F100Network, RemotePlacement};
pub use service::{run_session, CrashPlan, SessionKnobs, SessionReport, SessionRequest, Workload};
pub use sweep::{flight_profile, FlightPoint, SweepConfig, SweepDriver, SweepReport};
