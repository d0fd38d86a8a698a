//! # hetsim — simulated heterogeneous machines
//!
//! The NPSS testbed mixed vector supercomputers, minisupers, parallel
//! machines, and RISC workstations. This crate models each machine's
//! properties that matter to the executive:
//!
//! * its **architecture** (native data formats and Fortran naming
//!   convention — defined in the `uts` crate, consumed here);
//! * its **compute speed** and a dynamic **load model**, which together
//!   convert abstract work units into virtual seconds — the basis both for
//!   realistic LAN/WAN experiment shapes and for the "move the computation
//!   off the overloaded machine" migration scenario;
//! * a per-host **virtual file store**, standing in for the data files
//!   (performance maps) and executables that the real system kept on each
//!   machine's local filesystem.
//!
//! [`standard_park`] builds the machine park matching the topology in
//! `netsim::npss_testbed`, with relative speeds in plausible 1992
//! proportions (the Cray fastest on vectorizable work, workstations
//! slowest).

pub mod files;
pub mod load;
pub mod machine;

pub use files::FileStore;
pub use load::LoadModel;
pub use machine::{standard_park, HostCost, Machine, MachinePark};
